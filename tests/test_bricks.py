import json
from bisect import bisect_left, bisect_right
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brickforge import bricks as bk
from brickforge import limits as lm
from brickforge import serialize as sz
from brickforge import surfaces as sf
from brickforge.errors import NonStabilizing, NotAscending, ParseError

F = Fraction
BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.json"


def kt(base=sf.TORUS_1_1):
    return lm.generate(lm.Scenario("kerckhoff-thurston", base))


def brock():
    return lm.generate(lm.Scenario("brock", sf.TORUS_1_2))


def bo(d, base=sf.TORUS_1_1):
    return lm.generate(lm.Scenario("bonahon-otal", base, depth=d))


# increasing affine maps x -> a + b x of the level line
AFFINE_MAPS = [
    (F(0), F(1)), (F(1, 4), F(1, 2)), (F(1, 8), F(3, 4)),
    (F(0), F(1, 2)), (F(1, 3), F(1, 3)),
]
SCENARIO_KINDS = ["kerckhoff-thurston", "bonahon-otal", "brock"]


def scenario(kind, depth):
    base = sf.TORUS_1_2 if kind == "brock" else sf.TORUS_1_1
    return lm.generate(lm.Scenario(kind, base, depth=depth))


def moved(e, a, b):
    """The embedding e followed by x -> a + b x."""
    return bk.LeafEmbedding(
        tuple((bid, (a + b * lo, a + b * hi)) for bid, (lo, hi) in e.levels)
    )


def product_complex():
    full = sf.full_surface(sf.TORUS_1_1)
    b1 = bk.Brick("b1", full, "half-open-below", F(0), F(1, 2))
    b2 = bk.Brick("b2", full, "half-open-above", F(1, 2), F(1))
    j = bk.Joint("b2", "b1", full)
    return bk.BrickComplex(sf.TORUS_1_1, (b1, b2), (j,))


def sigma_pieces():
    full = sf.full_surface(sf.TORUS_1_2)
    sigma = sf.slot_class(full, (0, 0), (1, 0))
    domains = sf.component_domains(full, sf.Simplex.of(full, sigma))
    torus_side = next(y for y in domains if y.token.startswith("torus-side"))
    pants_side = next(y for y in domains if y.token.startswith("pants"))
    return full, sigma, torus_side, pants_side


def partial_tower():
    """Connected complex covering (0, 3/4] with an uncovered torus side
    in the middle band."""
    full, sigma, torus_side, pants_side = sigma_pieces()
    bricks = (
        bk.Brick("gf0", full, "half-open-below", F(0), F(1, 8),
                 label=bk.EndLabel("gf0", "geometrically-finite", conformal=())),
        bk.Brick("buf0", full, "closed", F(1, 8), F(3, 8)),
        bk.Brick("p", pants_side, "closed", F(3, 8), F(5, 8)),
        bk.Brick("buf1", full, "closed", F(5, 8), F(3, 4)),
    )
    joints = (
        bk.Joint("buf0", "gf0", full),
        bk.Joint("p", "buf0", pants_side),
        bk.Joint("buf1", "p", pants_side),
    )
    k = bk.BrickComplex(sf.TORUS_1_2, bricks, joints)
    return k, torus_side


class TestValidate:
    def test_stacked_product_bricks(self):
        ok, report = bk.validate_complex(product_complex())
        assert ok and not report

    def test_disconnected_union(self):
        k = product_complex()
        bad = replace(k, joints=())
        ok, report = bk.validate_complex(bad)
        assert not ok
        assert any("disconnected" in r for r in report)

    def test_overlapping_full_bricks(self):
        full = sf.full_surface(sf.TORUS_1_1)
        b1 = bk.Brick("b1", full, "closed", F(1, 4), F(3, 4))
        b2 = bk.Brick("b2", full, "closed", F(1, 2), F(1))
        k = bk.BrickComplex(sf.TORUS_1_1, (b1, b2), ())
        ok, report = bk.validate_complex(k)
        assert not ok
        assert any("overlap" in r for r in report)

    def test_joint_level_mismatch(self):
        # a joint is where its upper brick starts and its lower brick ends:
        # the parser refuses a document that states another level, or
        # whose bricks do not meet there
        k = product_complex()
        doc = sz.complex_doc(k, bk.identity_embedding(k))
        assert sz.parse_complex(doc)[0] == k
        doc["joints"][0]["level"] = "1/3"
        with pytest.raises(ParseError, match="level 1/3 is not the front of 'b2' and 'b1'"):
            sz.parse_complex(doc)
        doc["joints"][0]["level"] = "1/2"
        doc["bricks"][0]["hi"] = "1/3"
        with pytest.raises(ParseError, match="level 1/2 is not the front"):
            sz.parse_complex(doc)

    def test_scenarios_validate(self):
        for m, _ in (kt(), brock(), bo(3), kt(sf.TORUS_1_2)):
            ok, report = bk.validate_complex(m.complex)
            assert ok, report


def joints_at_level(k, levels, bid, level):
    """The joint query by level: the joints of a brick whose stated level,
    `levels[i]` for joint i, is `level`, in joint order."""
    return [
        j for j, at in zip(k.joints, levels) if at == level and bid in (j.upper, j.lower)
    ]


def model_documents():
    """The document of every scenario on both bases, and the bench's."""
    for base in (sf.TORUS_1_1, sf.TORUS_1_2):
        models = [kt(base)] + [bo(d, base) for d in (1, 2, 3)]
        if base == sf.TORUS_1_2:
            models.append(brock())
        for m, e in models:
            yield sz.complex_doc(m.complex, e)
    yield from (json.loads(text) for text in json.loads(BENCH_INPUTS.read_text()).values())


class TestJointsAt:
    def test_sides_agree_with_stated_levels(self):
        for doc in model_documents():
            k, _ = sz.parse_complex(doc)
            levels = [sz.parse_frac(j["level"]) for j in doc.get("joints", [])]
            for b in k.bricks:
                assert k.joints_at(b.bid, "lower") == joints_at_level(k, levels, b.bid, b.lo)
                assert k.joints_at(b.bid, "upper") == joints_at_level(k, levels, b.bid, b.hi)


class TestSlits:
    def test_inside_full_brick_empty(self):
        m, e = kt()
        slit = bk.slit_at(m.complex, e, F(1, 16))
        assert slit == ()

    def test_deleted_tube_level_is_one_annulus(self):
        m, e = kt()
        slit = bk.slit_at(m.complex, e, F(1, 2))
        assert len(slit) == 1
        assert slit[0].kind == "annulus"

    def test_outside_partial_model_full_slit(self):
        k, _ = partial_tower()
        slit = bk.slit_at(k, bk.identity_embedding(k), F(7, 8))
        assert len(slit) == 1
        assert slit[0].kind == "full"

    def test_uncovered_torus_side(self):
        k, torus_side = partial_tower()
        slit = bk.slit_at(k, bk.identity_embedding(k), F(1, 2))
        tokens = sorted(y.token.split(":")[0] for y in slit)
        assert tokens == ["annulus", "torus-side"]

    def test_removed_leaf_levels_fully_covered(self):
        m, e = brock()
        for c in (F(9, 20), F(11, 20)):
            assert bk.slit_at(m.complex, e, c) == ()

    @pytest.mark.parametrize("a, b", AFFINE_MAPS)
    def test_open_ends_are_not_covered(self, a, b):
        # b1 is open at its embedded bottom, b2 at its embedded top, and
        # they meet at their closed ends
        k = product_complex()
        e = moved(bk.identity_embedding(k), a, b)
        for c, kinds in ((F(0), ["full"]), (F(1, 2), []), (F(1), ["full"])):
            slit = bk.slit_at(k, e, a + b * c)
            assert [y.kind for y in slit] == kinds, c

    @pytest.mark.parametrize("a, b", AFFINE_MAPS)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_slits_follow_affine_embedding(self, kind, depth, a, b):
        # a brick covers its embedded closed ends and not its open ones,
        # wherever the embedding puts them
        m, e = scenario(kind, depth)
        k, e_moved = m.complex, moved(e, a, b)
        levels = bk.critical_levels(k, e)
        mids = [(lo + hi) / 2 for lo, hi in zip(levels, levels[1:])]
        for c in levels + mids:
            assert (
                bk.slit_at(k, e_moved, a + b * c)
                == bk.slit_at(k, e, c)
            ), c


class TestBoundary:
    def test_single_tube_gives_one_torus(self):
        m, e = kt()
        comps = bk.boundary_components(bk.LevelSweep.of(m.complex, e))
        assert len(comps) == 1
        assert comps[0].kind == "torus"

    def test_removed_leaf_has_no_boundary(self):
        m, e = brock()
        assert bk.boundary_components(bk.LevelSweep.of(m.complex, e)) == []

    def test_tower_torus_counts(self):
        for d in range(1, 6):
            m, e = bo(d)
            comps = bk.boundary_components(bk.LevelSweep.of(m.complex, e))
            assert len(comps) == d
            assert all(c.kind == "torus" for c in comps)


class TestEnds:
    def test_product_has_two_ends(self):
        full = sf.full_surface(sf.TORUS_1_1)
        b1 = bk.Brick("b1", full, "half-open-below", F(0), F(1, 2),
                      label=bk.EndLabel("b1", "geometrically-finite", conformal=()))
        b2 = bk.Brick("b2", full, "half-open-above", F(1, 2), F(1),
                      label=bk.EndLabel("b2", "geometrically-finite", conformal=()))
        j = bk.Joint("b2", "b1", full)
        k = bk.BrickComplex(sf.TORUS_1_1, (b1, b2), (j,))
        ends = bk.classify_ends(bk.LevelSweep.of(k, bk.identity_embedding(k)))
        assert len(ends) == 2
        assert all(e.kind == "GF" for e in ends)

    def test_single_tube_model_ends(self):
        m, e = kt()
        ends = bk.classify_ends(bk.LevelSweep.of(m.complex, e))
        assert sorted(e.kind for e in ends) == ["GF", "GF"]
        assert sorted(e.level for e in ends) == [F(0), F(1)]

    def test_removed_leaf_ends(self):
        m, e = brock()
        ends = bk.classify_ends(bk.LevelSweep.of(m.complex, e))
        assert sorted(e.kind for e in ends) == ["GF", "GF", "SD", "SD"]
        sd_levels = [e.level for e in ends if e.kind == "SD"]
        assert sd_levels == [F(1, 2), F(1, 2)]

    def test_per_level_bound(self):
        for m, e in (kt(), brock(), bo(4), kt(sf.TORUS_1_2)):
            s = m.complex.base
            bound = -2 * (2 - 2 * s.genus - s.punctures)
            ends = bk.classify_ends(bk.LevelSweep.of(m.complex, e))
            by_level = {}
            for end in ends:
                by_level.setdefault(end.level, []).append(end)
            for level, group in by_level.items():
                assert len(group) <= bound

    def test_peripheral_gf_bricks(self):
        m, e = kt()
        assert bk.peripheral_gf_bricks(bk.LevelSweep.of(m.complex, e)) == ["gf0", "gf1"]


def slope_tower(slopes):
    """The tower of tubes on T(1,1) with the given (p, q) slope cores."""
    full = sf.full_surface(sf.TORUS_1_1)
    return lm._tower(sf.TORUS_1_1, [sf.slope_curve(full, p, q) for p, q in slopes])


def assert_a2_gaps_agree(sweep):
    """The production boundary gaps are the brute-force oracle's, in the
    same order, and both A2 checks read them."""
    gaps = list(bk.boundary_gaps(sweep))
    assert gaps == list(bk.clear_annulus_gaps(sweep))
    assert bk.check_a2(sweep) == (not gaps) == bk.check_a2_bruteforce(sweep)


class TestConditions:
    def test_scenarios_satisfy_all(self):
        for m, e in (kt(), brock(), bo(2), bo(5), kt(sf.TORUS_1_2)):
            report = bk.check_conditions(bk.LevelSweep.of(m.complex, e))
            assert all(report.values()), report

    def test_parallel_tubes_fail_a2(self):
        full = sf.full_surface(sf.TORUS_1_1)
        core = sf.slope_curve(full, 0, 1)
        sweep = bk.LevelSweep.of(*lm._tower(sf.TORUS_1_1, [core, core]))
        assert bk.check_conditions(sweep)["A2"] is False
        assert bk.check_a2_bruteforce(sweep) is False

    def test_a2_bruteforce_agrees_on_scenarios(self):
        fixtures = [
            (m.complex, e)
            for m, e in (kt(), brock(), bo(1), bo(3), bo(5), kt(sf.TORUS_1_2))
        ]
        full = sf.full_surface(sf.TORUS_1_1)
        core = sf.slope_curve(full, 0, 1)
        fixtures.append(lm._tower(sf.TORUS_1_1, [core, core]))
        fixtures.append(lm._tower(sf.TORUS_1_1, [core, core, core]))
        # the smallest tower where ordering the gaps by level alone would
        # take a 1/0 gap before the first 0/1 gap
        fixtures.append(slope_tower([(0, 1), (1, 0), (1, 0), (0, 1), (0, 1)]))
        for k, e in fixtures:
            assert_a2_gaps_agree(bk.LevelSweep.of(k, e))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sampled_from([(0, 1), (1, 0), (1, 1), (2, 1)]),
            min_size=1,
            max_size=5,
        )
    )
    def test_a2_bruteforce_agrees_on_random_towers(self, slopes):
        assert_a2_gaps_agree(bk.LevelSweep.of(*slope_tower(slopes)))

    def test_interior_gf_front_fails_a4(self):
        m, e = kt()
        k = m.complex
        bricks = tuple(
            replace(b, hi=F(15, 16)) if b.bid == "gf1" else b for b in k.bricks
        )
        bad_e = bk.LeafEmbedding(
            tuple(
                (bid, (ab[0], F(15, 16)) if bid == "gf1" else ab)
                for bid, ab in e.levels
            )
        )
        bad = bk.LabelledBrickManifold(replace(k, bricks=bricks))
        report = bk.check_conditions(bk.LevelSweep.of(bad.complex, bad_e))
        assert report["A4"] is False

    def test_essential_gf_front_fails_a5(self):
        m, e = kt()
        k = m.complex
        joints = tuple(j for j in k.joints if not ("gf1" in (j.upper, j.lower)))
        bad = bk.LabelledBrickManifold(replace(k, joints=joints))
        report = bk.check_conditions(bk.LevelSweep.of(bad.complex, e))
        assert report["A5"] is False

    def test_equal_sd_descriptors_fail_el(self):
        m, e = brock()
        k = m.complex
        h0 = k.brick("h0")
        bricks = tuple(
            replace(b, label=replace(h0.label, brick_id="h1"))
            if b.bid == "h1"
            else b
            for b in k.bricks
        )
        bad = bk.LabelledBrickManifold(replace(k, bricks=bricks))
        report = bk.check_conditions(bk.LevelSweep.of(bad.complex, e))
        assert report["EL"] is False


# Reference oracles for the level index: each level question answered by
# scanning every brick or every slit.


def level_by_scan(e, bid):
    for b, ab in e.levels:
        if b == bid:
            return ab
    raise KeyError(bid)


def present_by_scan(k, e, c):
    out = []
    for b in k.bricks:
        alpha, beta = level_by_scan(e, b.bid)
        if (
            alpha < c < beta
            or (c == alpha and not b.open_below())
            or (c == beta and not b.open_above())
        ):
            out.append(b)
    return out


def meets_by_scan(sweep, c, lo, hi):
    return any(
        bk.curve_meets_slit(c, slit)
        for (a, b), slit in sweep.slits
        if a < hi and lo < b
    )


def joined_by_scan(sweep, pieces):
    for i, (core, (lo_i, hi_i)) in enumerate(pieces):
        for j in range(i + 1, len(pieces)):
            other, (lo_j, hi_j) = pieces[j]
            lo, hi = min(hi_i, hi_j), max(lo_i, lo_j)
            if other != core or lo > hi:
                continue
            if not meets_by_scan(sweep, core, lo, hi):
                yield i, j, lo, hi


TOWER_SLOPES = [(0, 1), (1, 0), (1, 1), (2, 1)]


@st.composite
def embedded_models(draw):
    """(complex, embedding): a random slope tower or a built-in scenario,
    moved by an increasing affine map of the level line."""
    if draw(st.booleans()):
        slopes = draw(st.lists(st.sampled_from(TOWER_SLOPES), min_size=1, max_size=5))
        k, e = slope_tower(slopes)
    else:
        m, e = scenario(draw(st.sampled_from(SCENARIO_KINDS)), draw(st.integers(1, 3)))
        k = m.complex
    a, b = draw(st.sampled_from(AFFINE_MAPS))
    return k, moved(e, a, b)


def model_curves(sweep):
    """The curves a sweep is asked about: brick frontiers and the cores of
    annular slit components, plus every tower slope on T(1,1)."""
    curves = [c for b in sweep.complex.bricks for c in b.support.boundary]
    curves += [
        y.boundary[0]
        for _, slit in sweep.slits
        for y in slit
        if y.kind == "annulus"
    ]
    if sweep.complex.base == sf.TORUS_1_1:
        full = sf.full_surface(sf.TORUS_1_1)
        curves += [sf.slope_curve(full, p, q) for p, q in TOWER_SLOPES]
    return list(dict.fromkeys(curves))


def probe_levels(levels):
    """Every critical level, every midpoint, and levels outside the span."""
    mids = [(lo + hi) / 2 for lo, hi in zip(levels, levels[1:])]
    outside = [levels[0] - 1, levels[0] / 2, (levels[-1] + 1) / 2, levels[-1] + 1]
    return levels + mids + outside


class TestLevelIndex:
    """The level index answers every level question as the scans did."""

    @settings(max_examples=40, deadline=None)
    @given(embedded_models())
    def test_present_agrees_with_scan(self, model):
        k, e = model
        for c in probe_levels(bk.critical_levels(k, e)):
            assert bk._present(k, e, c) == present_by_scan(k, e, c), c

    @settings(max_examples=40, deadline=None)
    @given(embedded_models(), st.lists(st.fractions(-1, 2, max_denominator=256)))
    def test_rank_is_bisection(self, model, xs):
        sweep = bk.LevelSweep.of(*model)
        levels = list(sweep.levels)
        for x in xs + probe_levels(levels):
            assert sweep.rank(x) == bisect_left(levels, x), x
            assert sweep.rank(x, right=True) == bisect_right(levels, x), x

    @settings(max_examples=40, deadline=None)
    @given(embedded_models(), st.data())
    def test_meets_between_agrees_with_scan(self, model, data):
        sweep = bk.LevelSweep.of(*model)
        curves = model_curves(sweep)
        assume(curves)
        ends = probe_levels(list(sweep.levels))
        fractions = st.fractions(-1, 2, max_denominator=64)
        for _ in range(12):
            c = data.draw(st.sampled_from(curves))
            lo = data.draw(st.sampled_from(ends) | fractions)
            hi = data.draw(st.sampled_from(ends) | fractions | st.just(lo))
            for a, b in ((lo, hi), (hi, lo), (lo, lo)):
                assert sweep.meets_between(c, a, b) == meets_by_scan(sweep, c, a, b)

    @settings(max_examples=40, deadline=None)
    @given(embedded_models(), st.data())
    def test_joined_agrees_with_scan(self, model, data):
        sweep = bk.LevelSweep.of(*model)
        curves = model_curves(sweep)
        assume(curves)
        levels = list(sweep.levels)
        # bands between critical levels and midpoints, so that pieces touch,
        # overlap and nest; few cores, so that they repeat
        ends = sorted(set(probe_levels(levels)))
        band = st.lists(st.sampled_from(ends), min_size=2, max_size=2, unique=True).map(
            lambda ab: tuple(sorted(ab))
        )
        cores = data.draw(st.lists(st.sampled_from(curves), min_size=1, max_size=3))
        pieces = data.draw(
            st.lists(st.tuples(st.sampled_from(cores), band), max_size=8)
        )
        assert list(sweep.joined(pieces)) == list(joined_by_scan(sweep, pieces))

    @settings(max_examples=40, deadline=None)
    @given(embedded_models())
    def test_boundary_at_agrees_with_scan(self, model):
        sweep = bk.LevelSweep.of(*model)
        levels = list(sweep.levels)
        # and levels just above each critical level, whose integer keys
        # round down to that level's key
        above = [lo + (hi - lo) / 1000 for lo, hi in zip(levels, levels[1:])]
        for level in probe_levels(levels) + above:
            assert list(sweep.boundary_at(level)) == [
                comp for comp in sweep.boundary if level in comp.interval
            ], level

    def test_level_of_reads_the_first_entry(self):
        e = bk.LeafEmbedding((("a", (F(0), F(1, 2))), ("b", (F(1, 2), F(1))),
                              ("a", (F(1, 4), F(3, 4)))))
        for bid in ("a", "b"):
            assert e.level_of(bid) == level_by_scan(e, bid)
        with pytest.raises(KeyError):
            e.level_of("c")

    def test_brick_reads_the_first_brick_of_an_id(self):
        full = sf.full_surface(sf.TORUS_1_1)
        a, b, a2 = (
            bk.Brick(bid, full, "closed", lo, lo + F(1, 4))
            for bid, lo in (("a", F(0)), ("b", F(1, 4)), ("a", F(1, 2)))
        )
        k = bk.BrickComplex(sf.TORUS_1_1, (a, b, a2))
        fresh = bk.BrickComplex(sf.TORUS_1_1, (a, b, a2))
        assert k.brick("a") is a and k.brick("b") is b
        with pytest.raises(KeyError):
            k.brick("c")
        # the index is not a field
        assert (k, hash(k), repr(k)) == (fresh, hash(fresh), repr(fresh))

    def test_distinct_cores_are_never_swept(self, count_calls):
        sweep = bk.LevelSweep.of(*slope_tower(TOWER_SLOPES))
        full = sf.full_surface(sf.TORUS_1_1)
        lo, hi = sweep.span
        pieces = [
            (sf.slope_curve(full, p, q), (lo, hi))
            for p, q in TOWER_SLOPES + [(1, 2), (3, 1)]
        ]
        sweeps = count_calls(bk.LevelSweep, "meets_between")
        assert list(sweep.joined(pieces)) == []
        assert sweeps == []

    @settings(max_examples=30, deadline=None)
    @given(embedded_models(), st.sampled_from(AFFINE_MAPS))
    def test_index_does_not_leak_into_identity(self, model, ab):
        k, e = model
        fresh = bk.LeafEmbedding(e.levels)
        bk.LevelSweep.of(k, e)  # builds the index of e
        assert "level_index" in vars(e)
        assert e == fresh and hash(e) == hash(fresh) and repr(e) == repr(fresh)
        assert replace(e) == fresh and "level_index" not in vars(replace(e))
        # a replaced embedding indexes its own levels
        shifted = replace(e, levels=moved(e, *ab).levels)
        assert shifted == moved(fresh, *ab)
        assert bk.critical_levels(k, shifted) == bk.critical_levels(k, moved(fresh, *ab))
        assert sz.parse_complex(sz.loads(sz.dumps(sz.complex_doc(k, e)))) == (k, e)


class TestRearrange:
    def ascending_stages(self):
        k1, torus_side = partial_tower()
        h0 = bk.Brick("h0", torus_side, "closed", F(3, 8), F(5, 8))
        k2 = bk.BrickComplex(
            k1.base,
            k1.bricks + (h0,),
            k1.joints + (bk.Joint("h0", "buf0", torus_side),),
        )
        return k1, k2

    def test_constant_sequence_unchanged(self):
        k, _ = partial_tower()
        e = bk.identity_embedding(k)
        out = bk.rearrange([(k, e), (k, e)])
        assert len(out) == 2
        for _, e2, notes in out:
            assert e2 == e
            assert notes == ()

    def test_drifting_levels_pinned(self):
        k, _ = partial_tower()
        e1 = bk.identity_embedding(k)
        shifted = bk.LeafEmbedding(
            tuple(
                (bid, (a + F(1, 100), b + F(1, 100)) if bid == "buf1" else (a, b))
                for bid, (a, b) in e1.levels
            )
        )
        out = bk.rearrange([(k, e1), (k, shifted)])
        assert out[1][1] == e1
        assert out[1][2]

    def test_not_ascending_rejected(self):
        k1, k2 = self.ascending_stages()
        with pytest.raises(NotAscending):
            bk.rearrange([(k2, bk.identity_embedding(k2)), (k1, bk.identity_embedding(k1))])


class TestLimit:
    def test_limit_of_ascending_stages(self):
        k1, k2 = TestRearrange().ascending_stages()
        seq = bk.rearrange(
            [(k1, bk.identity_embedding(k1)), (k2, bk.identity_embedding(k2))]
        )
        emb, w0 = bk.limit_embedding(seq)
        assert w0["gf0"] == 0
        assert w0["h0"] == 1
        assert emb.level_of("h0") == (F(3, 8), F(5, 8))

    def test_non_stabilizing_rejected(self):
        k, _ = partial_tower()
        e1 = bk.identity_embedding(k)
        moved = bk.LeafEmbedding(
            tuple(
                (bid, (a, b + F(1, 64)) if bid == "buf1" else (a, b))
                for bid, (a, b) in e1.levels
            )
        )
        with pytest.raises(NonStabilizing):
            bk.limit_embedding([(k, e1, ()), (k, moved, ())])

    def test_peripheral_gf_persists(self):
        k1, k2 = TestRearrange().ascending_stages()
        seq = bk.rearrange(
            [(k1, bk.identity_embedding(k1)), (k2, bk.identity_embedding(k2))]
        )
        emb, _ = bk.limit_embedding(seq)
        assert "gf0" in bk.peripheral_gf_bricks(bk.LevelSweep.of(k2, emb))


class TestSerialization:
    def test_round_trip_slope_model(self):
        m, e = kt()
        text = sz.dumps(sz.complex_doc(m.complex, e))
        k2, e2 = sz.parse_complex(sz.loads(text))
        assert k2 == m.complex
        assert e2 == e
        assert sz.dumps(sz.complex_doc(k2, e2)) == text

    def test_round_trip_flat_model(self):
        m, e = brock()
        text = sz.dumps(sz.complex_doc(m.complex, e))
        k2, e2 = sz.parse_complex(sz.loads(text))
        assert k2 == m.complex
        assert sz.dumps(sz.complex_doc(k2, e2)) == text

    @pytest.mark.parametrize("a, b", AFFINE_MAPS)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_round_trip_under_affine_embedding(self, kind, depth, a, b):
        m, e = scenario(kind, depth)
        e_moved = moved(e, a, b)
        text = sz.dumps(sz.complex_doc(m.complex, e_moved))
        k2, e2 = sz.parse_complex(sz.loads(text))
        assert k2 == m.complex
        assert e2 == e_moved
        assert sz.dumps(sz.complex_doc(k2, e2)) == text

    def test_bad_documents_rejected(self):
        with pytest.raises(ParseError):
            sz.loads("not json")
        with pytest.raises(ParseError):
            sz.parse_complex({"base": "1,1"})
        with pytest.raises(ParseError):
            sz.parse_frac("1.5")
        full = sf.full_surface(sf.TORUS_1_1)
        with pytest.raises(ParseError):
            sz.parse_curve("F:one/two", full)
        with pytest.raises(ParseError):
            sz.parse_curve("X:3", full)

    @pytest.mark.parametrize(
        "curve, base",
        [("F:1/0", sf.TORUS_1_2), ("A:1", sf.TORUS_1_2), ("N:[0,0,1,0,1,0]", sf.TORUS_1_1)],
        ids=["slope-on-T12", "arc-on-T12", "normal-on-T11"],
    )
    def test_curve_off_its_domain_rejected(self, curve, base):
        with pytest.raises(ParseError):
            sz.parse_curve(curve, sf.full_surface(base))

    def test_rational_and_curve_formats(self):
        assert sz.frac_str(F(1, 2)) == "1/2"
        assert sz.parse_frac("3/4") == F(3, 4)
        full = sf.full_surface(sf.TORUS_1_1)
        assert sz.curve_str(sf.slope_curve(full, 3, 5)) == "F:3/5"
        flat = sf.full_surface(sf.TORUS_1_2)
        v0 = sf.line_class(flat, 0, 1, 0)
        assert sz.curve_str(v0) == "N:[0,0,1,0,1,0]"
        assert sz.parse_curve("N:[0,0,1,0,1,0]", flat) == v0

