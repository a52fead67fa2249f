import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brickforge import blocks as bl
from brickforge import bricks as bk
from brickforge import charts
from brickforge import flatcurves as fc
from brickforge import hierarchy as hy
from brickforge import limits as lm
from brickforge import serialize as sz
from brickforge import surfaces as sf
from brickforge.errors import (
    DomainError,
    ELViolation,
    MissingLabel,
    NoTightGeodesic,
)
from brickforge.records import replace
from test_bricks import embedded_models, model_curves, probe_levels

F = Fraction
BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.json"


def kt(base=sf.TORUS_1_1):
    return lm.generate(lm.Scenario("kerckhoff-thurston", base))


def brock():
    return lm.generate(lm.Scenario("brock", sf.TORUS_1_2))


def bo(d, base=sf.TORUS_1_1):
    return lm.generate(lm.Scenario("bonahon-otal", base, depth=d))


def identity_sweep(m):
    return bk.LevelSweep.of(m.complex, bk.identity_embedding(m.complex))


def slope_marking(domain, p, q):
    return sf.Marking(sf.Simplex.of(domain, sf.slope_curve(domain, p, q)))


def single_brick_model(p1, q1, p2, q2):
    full = sf.full_surface(sf.TORUS_1_1)
    b = bk.Brick(
        "b0",
        full,
        "closed",
        F(0),
        F(1),
        initial=slope_marking(full, p1, q1),
        terminal=slope_marking(full, p2, q2),
    )
    k = bk.BrickComplex(sf.TORUS_1_1, (b,), ())
    return bk.LabelledBrickManifold(k), b


def single_brick_model_12(initial, terminal):
    full = sf.full_surface(sf.TORUS_1_2)
    b = bk.Brick(
        "b0", full, "closed", F(0), F(1), initial=initial, terminal=terminal
    )
    k = bk.BrickComplex(sf.TORUS_1_2, (b,), ())
    return bk.LabelledBrickManifold(k), b


# The placement rule as it stood before `tube_bands`, kept as its oracle:
# four named interval variants of [0, 1], mirrored on a half-open-below
# brick and scaled into the brick's level band, with each gap band derived
# again from its tube band and wide band.


def oracle_tube_intervals(n, variant):
    if variant == "closed-wide":
        return [(F(i, n + 1), F(i + 1, n + 1)) for i in range(n + 1)]
    if variant == "closed-gap":
        return [(F(i, n + 1), F(2 * i + 1, 2 * n + 2)) for i in range(n + 1)]
    if variant == "ray-wide":
        return [(1 - F(1, 2**i), 1 - F(1, 2 ** (i + 1))) for i in range(n + 1)]
    if variant == "ray-gap":
        return [(1 - F(1, 2**i), 1 - F(3, 2 ** (i + 2))) for i in range(n + 1)]
    raise ValueError(variant)


def oracle_tube_bands(band, n, kind, gap):
    def scale(iv):
        width = band[1] - band[0]
        return (band[0] + iv[0] * width, band[0] + iv[1] * width)

    def mirror(iv):
        return (1 - iv[1], 1 - iv[0])

    wide_variant = "ray-wide" if kind != "closed" else "closed-wide"
    tube_variant = (
        ("ray-gap" if kind != "closed" else "closed-gap") if gap else wide_variant
    )
    tubes = oracle_tube_intervals(n, tube_variant)
    wides = oracle_tube_intervals(n, wide_variant)
    if kind == "half-open-below":
        tubes = [mirror(iv) for iv in tubes]
        wides = [mirror(iv) for iv in wides]
    out = []
    for tband, wband in zip(map(scale, tubes), map(scale, wides)):
        g = None
        if gap:
            g = (tband[1], wband[1]) if tband[1] < wband[1] else (wband[0], tband[0])
            if g[0] == g[1]:
                g = None
        out.append((tband, wband, g))
    return out


def assert_matches_oracle(band, n, kind, gap):
    got = bl.tube_bands(band, n, kind, gap)
    want = oracle_tube_bands(band, n, kind, gap)
    assert got == want, (band, n, kind, gap)
    ends = [x for triple in got for iv in triple if iv is not None for x in iv]
    assert all(type(x) is F for x in ends)


RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=64)


class TestTubeIntervals:
    UNIT = (F(0), F(1))
    cases = {
        ("closed", False, 2): [(F(0), F(1, 3)), (F(1, 3), F(2, 3)), (F(2, 3), F(1))],
        ("closed", True, 2): [(F(0), F(1, 6)), (F(1, 3), F(1, 2)), (F(2, 3), F(5, 6))],
        ("half-open-above", False, 1): [(F(0), F(1, 2)), (F(1, 2), F(3, 4))],
        ("half-open-above", True, 1): [(F(0), F(1, 4)), (F(1, 2), F(5, 8))],
    }

    def tubes(self, n, kind, gap):
        return [t for t, _, _ in bl.tube_bands(self.UNIT, n, kind, gap)]

    def test_known_partitions(self):
        for (kind, gap, n), expected in self.cases.items():
            assert self.tubes(n, kind, gap) == expected

    def test_exact_formulas(self):
        for n in range(11):
            assert self.tubes(n, "closed", False) == [
                (F(i, n + 1), F(i + 1, n + 1)) for i in range(n + 1)
            ]
            assert self.tubes(n, "closed", True) == [
                (F(i, n + 1), F(2 * i + 1, 2 * n + 2)) for i in range(n + 1)
            ]
            assert self.tubes(n, "half-open-above", False) == [
                (1 - F(1, 2**i), 1 - F(1, 2 ** (i + 1))) for i in range(n + 1)
            ]
            assert self.tubes(n, "half-open-above", True) == [
                (1 - F(1, 2**i), 1 - F(3, 2 ** (i + 2))) for i in range(n + 1)
            ]

    def test_gap_bands_inside_wide_bands(self):
        # a gap tube is the half of its wide band nearer the real front,
        # and its gap band the other half
        for kind in bk.KINDS:
            for n in range(8):
                down = kind == "half-open-below"
                for tube, wide, gap in bl.tube_bands(self.UNIT, n, kind, True):
                    low, high = (gap, tube) if down else (tube, gap)
                    assert wide[0] == low[0] < low[1] == high[0] < high[1] == wide[1]
                for tube, wide, gap in bl.tube_bands(self.UNIT, n, kind, False):
                    assert tube == wide and gap is None

    def test_agrees_with_the_variant_oracle(self):
        for band in (self.UNIT, (F(1, 8), F(7, 8)), (F(2, 5), F(1, 2))):
            for kind in bk.KINDS:
                for gap in (False, True):
                    for n in range(13):
                        assert_matches_oracle(band, n, kind, gap)

    @settings(max_examples=200, deadline=None)
    @given(
        ends=st.lists(RATIONAL, min_size=2, max_size=2, unique=True),
        n=st.integers(0, 12),
        kind=st.sampled_from(bk.KINDS),
        gap=st.booleans(),
    )
    def test_agrees_with_the_variant_oracle_on_any_band(self, ends, n, kind, gap):
        assert_matches_oracle(tuple(sorted(ends)), n, kind, gap)


class TestNormalize:
    def test_inessential_joint_merged(self):
        full = sf.full_surface(sf.TORUS_1_1)
        b1 = bk.Brick("b1", full, "closed", F(0), F(1, 2))
        b2 = bk.Brick("b2", full, "closed", F(1, 2), F(1))
        j = bk.Joint("b2", "b1", full)
        m = bk.LabelledBrickManifold(bk.BrickComplex(sf.TORUS_1_1, (b1, b2), (j,)))
        out = bl.normalize(identity_sweep(m))
        assert len(out.complex.bricks) == 1
        merged = out.complex.bricks[0]
        assert (merged.lo, merged.hi) == (F(0), F(1))
        assert merged.kind == "closed"
        assert not out.complex.joints

    def test_merge_keeps_open_ends(self):
        full = sf.full_surface(sf.TORUS_1_1)
        b1 = bk.Brick("b1", full, "half-open-below", F(0), F(1, 2))
        b2 = bk.Brick("b2", full, "half-open-above", F(1, 2), F(1))
        j = bk.Joint("b2", "b1", full)
        m = bk.LabelledBrickManifold(bk.BrickComplex(sf.TORUS_1_1, (b1, b2), (j,)))
        out = bl.normalize(identity_sweep(m))
        assert len(out.complex.bricks) == 1
        assert out.complex.bricks[0].kind == "open"

    def test_labelled_bricks_not_merged(self):
        m, _ = kt()
        out = bl.normalize(identity_sweep(m))
        assert {b.bid for b in out.complex.bricks} == {
            b.bid for b in m.complex.bricks
        }

    def test_scenarios_already_normalized(self):
        for m, _ in (kt(), brock(), bo(3)):
            s = identity_sweep(m)
            assert bl.normalize(s) is s

    def _split_fixture(self):
        full = sf.full_surface(sf.TORUS_1_2)
        v0 = sf.line_class(full, 0, 1, 0)
        v1 = sf.line_class(full, 0, 1, 1)
        strip0 = next(
            y
            for y in sf.component_domains(full, sf.Simplex.of(full, v0))
            if y.kind == "proper"
        )
        strip1 = next(
            y
            for y in sf.component_domains(full, sf.Simplex.of(full, v1))
            if y.kind == "proper"
        )
        bricks = (
            bk.Brick("p0", strip0, "closed", F(0), F(1, 4)),
            bk.Brick("mid", full, "closed", F(1, 4), F(3, 4)),
            bk.Brick("top", strip1, "closed", F(3, 4), F(1)),
        )
        joints = (
            bk.Joint("mid", "p0", strip0),
            bk.Joint("top", "mid", strip1),
        )
        k = bk.BrickComplex(sf.TORUS_1_2, bricks, joints)
        return bk.LabelledBrickManifold(k), v0

    def test_non_overlapping_annulus_splits_brick(self):
        m, v0 = self._split_fixture()
        out = bl.normalize(identity_sweep(m))
        bids = {b.bid for b in out.complex.bricks}
        assert "mid" not in bids
        piece = out.complex.brick("mid/0")
        assert piece.support.kind == "proper"
        assert sf.curve_tag(v0) in piece.collars

    def test_split_preserves_boundary(self):
        m, _ = self._split_fixture()
        before = bk.boundary_components(identity_sweep(m))
        after = bk.boundary_components(bl.normalize(identity_sweep(m)))
        assert sorted(c.kind for c in before) == sorted(c.kind for c in after)
        assert {c.core for c in before} == {c.core for c in after}

    def test_idempotent(self):
        for m in (kt()[0], brock()[0], self._split_fixture()[0]):
            once = bl.normalize(identity_sweep(m))
            twice = bl.normalize(once)
            assert {(b.bid, b.support.token, b.kind, b.lo, b.hi)
                    for b in once.complex.bricks} == {
                (b.bid, b.support.token, b.kind, b.lo, b.hi)
                for b in twice.complex.bricks
            }

    def test_decompose_keeps_normalized_sweep(self):
        m, _ = self._split_fixture()
        d = bl.decompose(identity_sweep(m))
        assert d.sweep.complex == bl.normalize(identity_sweep(m)).complex
        ok, report = bl.verify_decomposition(d)
        assert ok, report


class TestBoundaryData:
    def test_kt_horizontal_annulus(self):
        m, e = kt()
        (comp,) = bk.LevelSweep.of(m.complex, e).boundary
        assert comp.core == sf.slope_curve(sf.full_surface(sf.TORUS_1_1), 0, 1)
        assert comp.interval == (F(7, 16), F(9, 16))

    def test_gf_pants_from_label(self):
        # buf0 meets gf0 across an inessential joint, so its lower front
        # is marked by gf0's pants curve
        m, e = kt()
        sweep = bk.LevelSweep.of(m.complex, e)
        full = sf.full_surface(sf.TORUS_1_1)
        start = bl._endpoint_marking(sweep, m.complex.brick("buf0"), "lower")
        assert start.base.curves == (sf.slope_curve(full, 0, 1),)

    def test_sd_descriptors_passed_through(self):
        m, e = brock()
        sweep = bk.LevelSweep.of(m.complex, e)
        # each label reaches the endpoint of its brick's open front
        ends = {}
        for bid in ("h0", "h1"):
            b = m.complex.brick(bid)
            side = "upper" if b.open_above() else "lower"
            ends[bid] = bl._endpoint_marking(sweep, b, side)
        assert ends == {
            bid: m.complex.brick(bid).label.lamination for bid in ("h0", "h1")
        }
        assert ends["h0"] != ends["h1"]

    def test_no_marking_data_raises(self):
        full = sf.full_surface(sf.TORUS_1_1)
        b = bk.Brick("b0", full, "closed", F(0), F(1))
        k = bk.BrickComplex(sf.TORUS_1_1, (b,), ())
        m = bk.LabelledBrickManifold(k)
        with pytest.raises(MissingLabel):
            bl.decompose(identity_sweep(m))


class TestTubeUnionFor:
    """The tubes placed along one brick's tight geodesic: the round-1
    tubes of the decomposition of a one-brick model."""

    def test_adjacent_slopes_closed_brick(self, brick_tubes):
        full = sf.full_surface(sf.TORUS_1_1)
        b = bk.Brick("b0", full, "closed", F(0), F(1))
        end = slope_marking(full, 1, 0)
        tubes, _ = brick_tubes(b, slope_marking(full, 0, 1), end)
        # a closed brick's geodesic ends at its terminal marking itself
        assert hy.tight_geodesic(full, slope_marking(full, 0, 1), end)[1] is end
        assert [t.band for t in tubes] == [(F(0), F(1, 4)), (F(1, 2), F(3, 4))]
        assert [t.core.rep for t in tubes] == [
            sf.slope_curve(full, 0, 1).rep,
            sf.slope_curve(full, 1, 0).rep,
        ]

    def test_band_scaled_to_brick(self, brick_tubes):
        full = sf.full_surface(sf.TORUS_1_1)
        b = bk.Brick("b0", full, "closed", F(1, 4), F(3, 4))
        tubes, _ = brick_tubes(
            b, slope_marking(full, 0, 1), slope_marking(full, 1, 0)
        )
        assert [t.band for t in tubes] == [
            (F(1, 4), F(3, 8)),
            (F(1, 2), F(5, 8)),
        ]

    def test_high_complexity_uses_full_partition(self, brick_tubes):
        full = sf.full_surface(sf.TORUS_1_2)
        v0 = sf.line_class(full, 0, 1, 0)
        sigma = sf.slot_class(full, (0, 0), (1, 0))
        b = bk.Brick("b0", full, "closed", F(0), F(1))
        tubes, _ = brick_tubes(
            b,
            sf.Marking(sf.Simplex.of(full, v0)),
            sf.Marking(sf.Simplex.of(full, sigma)),
        )
        n = len(tubes) - 1
        assert n >= 1
        assert [t.band for t in tubes] == [
            (F(i, n + 1), F(i + 1, n + 1)) for i in range(n + 1)
        ]
        assert tubes[0].core == v0
        assert tubes[-1].core == sigma

    def test_lamination_ray_has_tail(self, brick_tubes):
        full = sf.full_surface(sf.TORUS_1_1)
        b = bk.Brick("b0", full, "half-open-above", F(0), F(1))
        lam = sf.LaminationDescriptor(full, sf.IrrationalSlope((1, 1, 1, 1, 1, 1)))
        tubes, _ = brick_tubes(b, slope_marking(full, 0, 1), lam)
        # the ray ends at a finite stand-in for the lamination
        _, end = hy.tight_geodesic(full, slope_marking(full, 0, 1), lam)
        assert isinstance(end, sf.Marking)
        n = len(tubes) - 1
        assert n >= 1
        assert [t.band for t in tubes] == [
            (1 - F(1, 2**i), 1 - F(3, 2 ** (i + 2))) for i in range(n + 1)
        ]

    def test_half_open_below_mirrors_bands(self, brick_tubes):
        full = sf.full_surface(sf.TORUS_1_1)
        b = bk.Brick("b0", full, "half-open-below", F(0), F(1))
        lam = sf.LaminationDescriptor(full, sf.IrrationalSlope((2, 2, 2, 2)))
        tubes, _ = brick_tubes(b, lam, slope_marking(full, 0, 1))
        assert tubes[0].band == (F(3, 4), F(1))
        assert all(t.band[1] <= F(1) for t in tubes)

    def test_not_connectable(self, brick_tubes):
        full = sf.full_surface(sf.TORUS_1_2)
        v0 = sf.line_class(full, 0, 1, 0)
        b = bk.Brick("b0", full, "closed", F(0), F(1))
        with pytest.raises(DomainError, match="not connectable"):
            brick_tubes(b, sf.Marking(sf.Simplex.of(full, v0)), None)

    def test_pants_brick_rejected(self, brick_tubes):
        full = sf.full_surface(sf.TORUS_1_2)
        sigma = sf.slot_class(full, (0, 0), (1, 0))
        pants = next(
            y
            for y in sf.component_domains(full, sf.Simplex.of(full, sigma))
            if y.complexity() == 3
        )
        b = bk.Brick("b0", pants, "closed", F(0), F(1))
        tubes, d = brick_tubes(b, None, None)
        assert tubes == []
        assert [(x.btype, x.interval) for x in d.blocks] == [("S03", (F(0), F(1)))]


def merge_by_restart(tubes, sweep):
    """The restart loop that `merge_homotopic` replaced, kept as its
    oracle: sort the tubes by (level, core serial), merge the first
    merge-eligible pair, append the merged tube and start again."""
    out = list(tubes)
    serial = {id(t.core): bl._core_serial(t.core) for t in tubes}
    while True:
        out.sort(key=lambda t: (t.band[0], serial[id(t.core)]))
        pair = next(bl._merge_eligible_pairs(out, sweep), None)
        if pair is None:
            return out
        a, b, rest = pair
        interface = "torus" if "torus" in (a.interface, b.interface) else "annulus"
        merged = bl.Tube(
            tid=a.tid,
            core=a.core,
            band=(min(a.band[0], b.band[0]), max(a.band[1], b.band[1])),
            origin=a.origin,
            token=a.token,
            interface=interface,
            twist=a.twist + b.twist,
        )
        out = rest + [merged]


def merged_both_ways(tubes, sweep):
    """(merge_homotopic's tubes, the oracle's tubes); the oracle runs on a
    fresh sweep of the same model, so that the two share no remembered
    slit answer."""
    got = bl.merge_homotopic(tubes, sweep)
    fresh = bk.LevelSweep.of(sweep.complex, sweep.embedding)
    return got, merge_by_restart(tubes, fresh)


# the built-in scenarios, by their `limit --scenario` names
ORACLE_SCENARIOS = {
    "brock": lm.Scenario("brock", sf.TORUS_1_2),
    **{
        f"kt:1,2:{d}": lm.Scenario("kerckhoff-thurston", sf.TORUS_1_2, depth=d)
        for d in (1, 2)
    },
    **{
        f"bo:1,2:{d}": lm.Scenario("bonahon-otal", sf.TORUS_1_2, depth=d)
        for d in (1, 2, 3)
    },
    **{
        f"kt:{d}": lm.Scenario("kerckhoff-thurston", sf.TORUS_1_1, depth=d)
        for d in range(1, 7)
    },
    **{
        f"bo:{d}": lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=d)
        for d in range(1, 21)
    },
}


@st.composite
def swept_tubes(draw):
    """(sweep, tubes): up to twenty tubes over the levels of an embedded
    model.  Bands span one to three steps between critical levels and
    midpoints, so that bands touch and gaps are short; cores are few, so
    that they repeat; and some tubes have a twin with the same core and
    band start, so that tubes tie on (band start, core)."""
    sweep = bk.LevelSweep.of(*draw(embedded_models()))
    curves = model_curves(sweep)
    assume(curves)
    ends = sorted(set(probe_levels(list(sweep.levels))))
    cores = draw(st.lists(st.sampled_from(curves), min_size=1, max_size=3))
    tubes = []
    size = draw(st.integers(0, 20))
    while len(tubes) < size:
        core = draw(st.sampled_from(cores))
        lo = draw(st.integers(0, len(ends) - 2))
        for _ in range(draw(st.sampled_from([1, 1, 2]))):
            hi = min(lo + draw(st.integers(1, 3)), len(ends) - 1)
            tubes.append(
                bl.Tube(
                    tid=f"t{len(tubes)}",
                    core=core,
                    band=(ends[lo], ends[hi]),
                    origin=(1, "b0"),
                    token="drawn",
                    interface=draw(st.sampled_from(["annulus", "torus"])),
                    twist=draw(st.integers(-2, 2)),
                )
            )
    return sweep, tubes


class TestMerging:
    def _model(self):
        full = sf.full_surface(sf.TORUS_1_1)
        b = bk.Brick("b0", full, "closed", F(0), F(1))
        k = bk.BrickComplex(sf.TORUS_1_1, (b,), ())
        return identity_sweep(bk.LabelledBrickManifold(k)), full

    def test_same_core_clear_between_merged(self):
        sweep, full = self._model()
        core = sf.slope_curve(full, 0, 1)
        a = bl.Tube("a", core, (F(0), F(1, 4)), (1, "b0"), full.token)
        b = bl.Tube("b", core, (F(1, 2), F(3, 4)), (1, "b0"), full.token)
        out = bl.merge_homotopic([a, b], sweep)
        assert len(out) == 1
        assert out[0].band == (F(0), F(3, 4))
        assert out[0].tid == "a"

    def test_obstructing_tube_blocks_merge(self):
        sweep, full = self._model()
        core = sf.slope_curve(full, 0, 1)
        cross = sf.slope_curve(full, 1, 0)
        a = bl.Tube("a", core, (F(0), F(1, 4)), (1, "b0"), full.token)
        b = bl.Tube("b", core, (F(1, 2), F(3, 4)), (1, "b0"), full.token)
        c = bl.Tube("c", cross, (F(3, 8), F(7, 16)), (1, "b0"), full.token)
        out = bl.merge_homotopic([a, b, c], sweep)
        assert len(out) == 3

    def test_distinct_cores_unchanged(self):
        sweep, full = self._model()
        a = bl.Tube("a", sf.slope_curve(full, 0, 1), (F(0), F(1, 4)), (1, "b0"), full.token)
        b = bl.Tube("b", sf.slope_curve(full, 1, 0), (F(1, 2), F(3, 4)), (1, "b0"), full.token)
        assert len(bl.merge_homotopic([a, b], sweep)) == 2

    # Each tube list below equals the oracle's in every field and in order.
    # A pass that told merged-away tubes by id() would take a new merged
    # tube that reuses such an id for a merged-away one, and differ here.

    @pytest.mark.parametrize("spec", list(ORACLE_SCENARIOS))
    def test_scenarios_merge_as_restart(self, spec):
        m, e = lm.generate(ORACLE_SCENARIOS[spec])
        d = bl.decompose(bk.LevelSweep.of(m.complex, e))
        got, want = merged_both_ways(list(d.placed), d.sweep)
        assert got == want == list(d.tubes)
        assert len(got) < len(d.placed)

    def test_bench_documents_merge_as_restart(self):
        for name, text in json.loads(BENCH_INPUTS.read_text()).items():
            d = bl.decompose(bk.LevelSweep.of(*sz.parse_complex(sz.loads(text))))
            got, want = merged_both_ways(list(d.placed), d.sweep)
            assert got == want == list(d.tubes), name

    @settings(max_examples=150, deadline=None)
    @given(swept_tubes())
    def test_drawn_tubes_merge_as_restart(self, drawn):
        sweep, tubes = drawn
        got, want = merged_both_ways(tubes, sweep)
        assert got == want

    def test_kt_cusp_tube_absorbs_neighbors(self):
        m, _ = kt()
        d = bl.decompose(identity_sweep(m))
        assert len(d.tubes) == 1
        tube = d.tubes[0]
        assert tube.interface == "torus"
        assert len(d.placed) > len(d.tubes)


class TestDecompose:
    def test_scenario_survey(self):
        cases = {
            "kt11": (kt(), 1, 1),
            "kt12": (kt(sf.TORUS_1_2), 2, 1),
            "bo1": (bo(1), 1, 1),
            "bo3": (bo(3), 1, 3),
            "bo5": (bo(5), 1, 5),
            "bo12": (bo(2, sf.TORUS_1_2), 2, 2),
            "brock": (brock(), 2, 0),
        }
        for name, ((m, e), max_rounds, torus) in cases.items():
            d = bl.decompose(identity_sweep(m))
            assert d.rounds_used <= max_rounds, name
            assert len(d.torus_tubes) == torus, name
            assert all(b.btype in bl.BLOCK_TYPES for b in d.blocks), name
            ok, report = bl.verify_decomposition(d)
            assert ok, (name, report)

    def test_round_bound_matches_complexity(self):
        m, _ = kt(sf.TORUS_1_2)
        d = bl.decompose(identity_sweep(m))
        assert d.rounds_used <= sf.TORUS_1_2.complexity() - 3

    def test_gap_per_tube_block(self):
        for m, _ in (kt(), bo(3), brock()):
            d = bl.decompose(identity_sweep(m))
            for b in d.blocks:
                if b.tube is not None:
                    assert b.gap is not None
                    assert b.interval[0] <= b.gap[0] < b.gap[1] <= b.interval[1]

    def test_single_brick_tube_per_vertex(self):
        m, b = single_brick_model(0, 1, 5, 3)
        d = bl.decompose(identity_sweep(m))
        h_len = len(sf.farey_geodesic(
            sf.slope_curve(b.support, 0, 1), sf.slope_curve(b.support, 5, 3)
        ))
        assert len(d.placed) == h_len
        assert len([x for x in d.blocks if x.btype == "S11"]) == h_len

    def test_gf_bricks_left_out(self):
        m, _ = kt()
        d = bl.decompose(identity_sweep(m))
        gf = {b.bid for b in d.sweep.complex.bricks if bl._is_gf(b)}
        assert gf == {"gf0", "gf1"}
        for bid in gf:
            assert all(t.origin[1] != bid for t in d.placed)

    def test_gluing_graph_touches_every_tube(self):
        m, _ = bo(3)
        d = bl.decompose(identity_sweep(m))
        for t in d.tubes:
            assert any(
                t.band[0] < b.interval[1] and b.interval[0] < t.band[1]
                for b in d.blocks
            ), t.tid

    def test_el_violation_raises(self):
        m, _ = brock()
        k = m.complex
        lam = k.brick("h0").label.lamination
        h1 = k.brick("h1")
        bad_label = bk.EndLabel("h1", "simply-degenerate", lamination=lam)
        bricks = tuple(
            replace(b, label=bad_label) if b.bid == "h1" else b for b in k.bricks
        )
        bad = bk.LabelledBrickManifold(replace(k, bricks=bricks))
        with pytest.raises(ELViolation):
            bl.decompose(identity_sweep(bad))

    def test_empty_ray_prefix_raises(self):
        full = sf.full_surface(sf.TORUS_1_1)
        lam = sf.LaminationDescriptor(full, sf.SymbolicFilling("end"))
        b = bk.Brick(
            "b0", full, "half-open-above", F(0), F(1),
            initial=slope_marking(full, 0, 1), terminal=lam,
        )
        m = bk.LabelledBrickManifold(bk.BrickComplex(sf.TORUS_1_1, (b,), ()))
        with pytest.raises(NoTightGeodesic):
            bl.decompose(identity_sweep(m))

    def test_sd_ray_truncated_with_tail(self):
        full = sf.full_surface(sf.TORUS_1_1)
        lam = sf.LaminationDescriptor(full, sf.IrrationalSlope((1, 2, 1, 2, 1, 2)))
        b = bk.Brick(
            "b0", full, "half-open-above", F(0), F(1),
            initial=slope_marking(full, 0, 1), terminal=lam,
        )
        m = bk.LabelledBrickManifold(bk.BrickComplex(sf.TORUS_1_1, (b,), ()))
        d = bl.decompose(identity_sweep(m))
        _, end = hy.tight_geodesic(full, slope_marking(full, 0, 1), lam)
        assert isinstance(end, sf.Marking)
        assert len(d.placed) >= 2


class TestConditionBB:
    def test_clean_fixtures_have_no_adjustments(self):
        for m, _ in (kt(), bo(2), brock()):
            assert bl.decompose(identity_sweep(m)).adjustments == ()

    def test_front_inside_gap_is_relevelled(self):
        full = sf.full_surface(sf.TORUS_1_1)
        blocks = (
            bl.Block("b0", "S11", full, (F(0), F(1, 2)),
                     gap=(F(1, 4), F(1, 2)), tube="v0"),
        )
        b1 = bk.Brick("b1", full, "closed", F(0), F(3, 8))
        b2 = bk.Brick("b2", full, "closed", F(3, 8), F(1))
        k = bk.BrickComplex(
            sf.TORUS_1_1, (b1, b2), (bk.Joint("b2", "b1", full),)
        )
        sweep = bk.LevelSweep.of(k, bk.identity_embedding(k))
        out, adjustments = bl._enforce_bb(blocks, sweep)
        assert adjustments == ((F(3, 8), F(1, 4)),)
        assert list(bl._bb_violations(out, sweep, adjusted=frozenset({F(3, 8)}))) == []

    def test_verify_reports_unadjusted_front(self):
        m, _ = kt()
        d = bl.decompose(identity_sweep(m))
        bad_blocks = []
        mutated = False
        front = m.complex.brick("buf0").hi
        for b in d.blocks:
            if b.gap is not None and not mutated:
                bad_blocks.append(
                    replace(b, gap=(front - F(1, 64), front + F(1, 64)))
                )
                mutated = True
            else:
                bad_blocks.append(b)
        assert mutated
        bad = replace(d, blocks=tuple(bad_blocks))
        ok, report = bl.verify_decomposition(bad)
        assert not ok
        assert any("crosses the gap" in r for r in report)


class TestVerify:
    def test_clean_on_pipeline_output(self):
        for m, _ in (kt(), kt(sf.TORUS_1_2), bo(4), brock()):
            d = bl.decompose(identity_sweep(m))
            ok, report = bl.verify_decomposition(d)
            assert ok and not report

    def test_duplicated_tube_flagged(self):
        m, _ = kt()
        d = bl.decompose(identity_sweep(m))
        t = d.tubes[0]
        dup = replace(t, tid="dup")
        bad = replace(d, tubes=d.tubes + (dup,))
        ok, report = bl.verify_decomposition(bad)
        assert not ok
        assert any("one core" in r for r in report)

    def test_crossing_cores_with_overlapping_bands_flagged(self):
        m, _ = kt()
        d = bl.decompose(identity_sweep(m))
        full = sf.full_surface(sf.TORUS_1_1)
        t = d.tubes[0]
        cross = bl.Tube(
            "x", sf.slope_curve(full, 1, 0), t.band, (1, "b0"), full.token
        )
        bad = replace(d, tubes=d.tubes + (cross,))
        ok, report = bl.verify_decomposition(bad)
        assert not ok
        assert any("crossing cores" in r for r in report)

    def test_block_type_guard(self):
        with pytest.raises(ValueError):
            bl.Block("b0", "S12", "full:1,1", (F(0), F(1)))

    def test_tube_interface_guard(self):
        full = sf.full_surface(sf.TORUS_1_1)
        core = sf.slope_curve(full, 1, 0)
        with pytest.raises(ValueError, match="unknown tube interface sphere"):
            bl.Tube("v0", core, (F(0), F(1)), (1, "b0"), full.token, "sphere")


class TestHierarchyCrosscheck:
    pairs = [(0, 1, 1, 0), (0, 1, 5, 3), (1, 0, 3, 5), (1, 1, 8, 5), (0, 1, 2, 7)]

    def test_single_brick_models_match(self):
        for p1, q1, p2, q2 in self.pairs:
            m, b = single_brick_model(p1, q1, p2, q2)
            d = bl.decompose(identity_sweep(m))
            assert bl.hierarchy_crosscheck(b, d), (p1, q1, p2, q2)

    def test_complexity_five_fixture_matches(self):
        full = sf.full_surface(sf.TORUS_1_2)
        v0 = sf.line_class(full, 0, 1, 0)
        v1 = sf.line_class(full, 0, 1, 1)
        sigma = sf.slot_class(full, (0, 0), (1, 0))
        fixtures = [
            (sf.Marking(sf.Simplex.of(full, v0, v1)), sf.Marking(sf.Simplex.of(full, sigma))),
            (sf.Marking(sf.Simplex.of(full, v0)), sf.Marking(sf.Simplex.of(full, sigma))),
        ]
        for initial, terminal in fixtures:
            m, b = single_brick_model_12(initial, terminal)
            d = bl.decompose(identity_sweep(m))
            assert bl.hierarchy_crosscheck(b, d)

    def test_dropped_tube_mismatch(self):
        m, b = single_brick_model(0, 1, 5, 3)
        d = bl.decompose(identity_sweep(m))
        bad = replace(d, placed=d.placed[:-1])
        assert not bl.hierarchy_crosscheck(b, bad)

    def test_reordered_bands_mismatch(self):
        m, b = single_brick_model(0, 1, 5, 3)
        d = bl.decompose(identity_sweep(m))
        t0, t1 = d.placed[0], d.placed[1]
        swapped = (
            replace(t0, band=t1.band),
            replace(t1, band=t0.band),
        ) + d.placed[2:]
        bad = replace(d, placed=swapped)
        assert not bl.hierarchy_crosscheck(b, bad)

    def test_foreign_core_mismatch(self):
        m, b = single_brick_model(0, 1, 1, 0)
        d = bl.decompose(identity_sweep(m))
        full = sf.full_surface(sf.TORUS_1_1)
        alien = replace(d.placed[0], core=sf.slope_curve(full, 5, 7))
        bad = replace(d, placed=(alien,) + d.placed[1:])
        assert not bl.hierarchy_crosscheck(b, bad)


def test_repeated_decompose_runs_no_intersection_engine(cold_caches, count_calls):
    """A second, identical decompose takes every intersection number and
    every boundary walk from the class-keyed memos: it runs no engine, no
    overlay and no walk."""
    text = json.loads(BENCH_INPUTS.read_text())["sb12_v0v1_sigma"]
    engine = count_calls(fc, "_minimal_crossings")
    overlays = count_calls(fc, "overlay")
    walks = count_calls(fc, "_walk_classes")
    bl.decompose(bk.LevelSweep.of(*sz.parse_complex(sz.loads(text))))
    assert len(engine) > len(walks) > 0 and len(overlays) > len(walks)
    for calls in (engine, overlays, walks):
        calls.clear()
    bl.decompose(bk.LevelSweep.of(*sz.parse_complex(sz.loads(text))))
    assert engine == overlays == walks == []


def test_repeated_decompose_walks_each_class_pair_once(cold_caches, count_calls):
    """Two identical decomposes walk each unordered pair of classes at
    most once, and the second realizes no fan slope to classify: its
    projections read the kept classifications.  So it realizes only the
    slopes its geodesics need, fewer than a third decompose whose
    classifications are emptied, which realizes what the first did, at
    most one slope more per classification."""
    text = json.loads(BENCH_INPUTS.read_text())["sb12_v0v1_sigma"]
    walks = count_calls(fc, "_walk_classes")
    realized = [count_calls(kind, "realize") for kind in (charts.StripChart, charts.TorusSideChart)]

    def realizations():
        bl.decompose(bk.LevelSweep.of(*sz.parse_complex(sz.loads(text))))
        out = Counter((chart.cut_desc(), s) for calls in realized for chart, s in calls)
        for calls in realized:
            calls.clear()
        return out

    first = realizations()
    second = realizations()
    pairs = [frozenset((c1.canonical(), c2.canonical())) for c1, c2 in walks]
    assert walks and len(set(pairs)) == len(pairs)
    kept = len(charts._CLASSIFIED)
    charts._CLASSIFIED.clear()
    third = realizations()
    assert third == first and second < third
    assert 0 < (third - second).total() <= kept


def test_engine_reads_only_crossing_words_after_the_overlay(cold_caches, monkeypatch):
    """On a warm decompose, each engine run whose overlay has at least two
    crossings reads the two curves' crossing words once, and a boundary
    walk reads them again only when its overlay has a single crossing,
    which the engine read none for; winding numbers about the punctures
    are only counted to build a corridor curve, cold or warm."""
    text = json.loads(BENCH_INPUTS.read_text())["sb12_v0v1_sigma"]
    calls = {}

    def record(name, note=lambda result, callers: callers[0]):
        fn = getattr(fc, name)

        def recorded(*args):
            result = fn(*args)
            callers = (sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name)
            calls.setdefault(name, []).append(note(result, callers))
            return result

        monkeypatch.setattr(fc, name, recorded)

    record("_grid_crossings")
    record("_enclosed_punctures")
    # an overlay's crossing count, and who asked the engine for it
    record("overlay", lambda result, callers: (len(result), callers[1]))
    record("_walk_classes")
    bl.decompose(bk.LevelSweep.of(*sz.parse_complex(sz.loads(text))))
    assert set(calls.get("_enclosed_punctures", [])) <= {"slot_curve"}
    calls.clear()
    # walk again, with every curve's word known: the main geodesic is
    # searched again too, since its tightening makes the walks
    fc._WALKS.clear()
    hy._MAIN_GEODESICS.clear()
    bl.decompose(bk.LevelSweep.of(*sz.parse_complex(sz.loads(text))))
    assert set(calls.get("_enclosed_punctures", [])) <= {"slot_curve"}
    overlays = calls["overlay"]
    multi = sum(1 for n, _ in overlays if n >= 2)
    single_walks = sum(1 for n, via in overlays if n == 1 and via == "_walk_classes")
    walks = len(calls["_walk_classes"])
    assert walks > 0
    assert sum(1 for _, via in overlays if via == "_walk_classes") == walks
    assert len(calls["_grid_crossings"]) <= 2 * multi + 2 * single_walks


class TestEmbeddedLevels:
    """decompose works in the levels of the sweep it is given: re-leveling
    the embedding by an increasing affine map moves every band, interval,
    gap and adjustment front by the same map, and changes nothing else."""

    DOCS = json.loads(BENCH_INPUTS.read_text())

    @staticmethod
    def phi(x):
        return F(1, 4) + x / 2

    @staticmethod
    def summary(d, f=lambda x: x):
        def iv(pair):
            return None if pair is None else (f(pair[0]), f(pair[1]))

        return {
            "rounds": d.rounds_used,
            "tubes": [
                (t.tid, t.core, iv(t.band), t.interface, t.token)
                for t in d.tubes
            ],
            "placed": [(t.tid, iv(t.band)) for t in d.placed],
            "blocks": [
                (b.blid, b.btype, b.support.token, iv(b.interval), iv(b.gap), b.tube)
                for b in d.blocks
            ],
            "adjustments": [(f(front), f(to)) for front, to in d.adjustments],
        }

    @pytest.mark.parametrize(
        "name",
        sorted(n for n in DOCS if n.startswith("sb11_") or n in ("kt12", "brock")),
    )
    def test_decompose_follows_the_embedding(self, name):
        k, e = sz.parse_complex(sz.loads(self.DOCS[name]))
        moved = bk.LeafEmbedding(
            tuple((bid, (self.phi(a), self.phi(b))) for bid, (a, b) in e.levels)
        )
        d = bl.decompose(bk.LevelSweep.of(k, e))
        d_moved = bl.decompose(bk.LevelSweep.of(k, moved))
        assert self.summary(d_moved) == self.summary(d, self.phi)
        ok, report = bl.verify_decomposition(d_moved)
        assert ok, report
