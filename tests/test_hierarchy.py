from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brickforge import charts
from brickforge import flatcurves as fc
from brickforge import hierarchy as hy
from brickforge import surfaces as sf
from brickforge.config import get_budget
from brickforge.errors import BudgetExceeded, NoTightGeodesic
from brickforge.farey import Slope


def torus():
    return sf.full_surface(sf.TORUS_1_1)


def torus_marking(p, q):
    d = torus()
    return sf.Marking(sf.Simplex.of(d, sf.slope_curve(d, p, q)))


def flat_markings():
    d = sf.full_surface(sf.TORUS_1_2)
    v0 = sf.line_class(d, 0, 1, 0)
    v1 = sf.line_class(d, 0, 1, 1)
    hc = sf.line_class(d, 1, 0)
    s0 = sf.slot_class(d, (0, 0), (1, 0))
    s0b = sf.slot_class(d, (0, 0), (-1, 0))
    a0 = sf.slot_class(d, (1, 0), (2, 0))
    initial = sf.Marking(
        sf.Simplex.of(d, v0, v1), transversals=((v0, s0), (v1, a0))
    )
    terminal = sf.Marking(sf.Simplex.of(d, hc, s0b), transversals=((hc, v0),))
    return d, initial, terminal


def build_and_verify_v0_v1():
    d = sf.full_surface(sf.TORUS_1_2)
    v0 = sf.Marking(sf.Simplex.of(d, sf.line_class(d, 0, 1, 0)))
    v1 = sf.Marking(sf.Simplex.of(d, sf.line_class(d, 0, 1, 1)))
    h = hy.build_hierarchy(sf.TORUS_1_2, v0, v1)
    ok, violations = hy.verify_hierarchy(h)
    assert ok, violations


class TestFareyHierarchy:
    def test_single_edge(self):
        h = hy.build_hierarchy(sf.TORUS_1_1, torus_marking(0, 1), torus_marking(1, 0))
        assert len(h.main.vertices) == 2
        assert h.main_gid == "g0"
        ok, violations = hy.verify_hierarchy(h)
        assert ok and not violations

    def test_identical_markings(self):
        h = hy.build_hierarchy(sf.TORUS_1_1, torus_marking(2, 3), torus_marking(2, 3))
        assert len(h.main.vertices) == 1

    def test_interior_vertices_carry_annular_geodesics(self):
        h = hy.build_hierarchy(sf.TORUS_1_1, torus_marking(0, 1), torus_marking(3, 5))
        n = len(h.main.vertices)
        annulars = [g for g in h.geodesics if g.domain.kind == "annulus"]
        assert len(annulars) == n - 2
        for g in annulars:
            assert g.parent is not None and g.parent[0] == "g0"

    def test_lamination_endpoint_truncated(self, monkeypatch):
        monkeypatch.setenv("BRICKFORGE_BUDGET", "600")
        d = torus()
        lam = sf.LaminationDescriptor(d, sf.IrrationalSlope((1,) * 10))
        h = hy.build_hierarchy(sf.TORUS_1_1, torus_marking(0, 1), lam)
        assert isinstance(h.main.terminal, sf.LaminationDescriptor)
        assert len(h.main.vertices) > 2

    def test_mutated_hierarchy_rejected(self):
        from brickforge.records import replace

        h = hy.build_hierarchy(sf.TORUS_1_1, torus_marking(0, 1), torus_marking(3, 5))
        extra = replace(h.main, gid="g99")
        bad = replace(h, geodesics=h.geodesics + (extra,))
        ok, violations = hy.verify_hierarchy(bad)
        assert not ok
        assert any("main not unique" in v for v in violations)


class TestErrorsPropagate:
    def test_unexpected_error_in_ambient_curves_propagates(self, cold_caches, monkeypatch):
        def broken(desc):
            raise TypeError("injected")

        monkeypatch.setattr(charts.AMBIENT, "curve", broken)
        monkeypatch.setattr(charts.AMBIENT, "_enumerated", 0)
        with pytest.raises(TypeError):
            hy.ambient_universe(1)

    def test_unexpected_error_in_tightness_check_propagates(self, monkeypatch):
        h = hy.build_hierarchy(sf.TORUS_1_1, torus_marking(0, 1), torus_marking(3, 5))

        def broken(seq, certificate=None):
            raise TypeError("injected")

        monkeypatch.setattr(hy.sf, "is_tight_sequence", broken)
        with pytest.raises(TypeError):
            hy.verify_hierarchy(h)

    def test_main_geodesic_search_errors(self):
        d = torus()
        u, w = sf.slope_curve(d, 0, 1), sf.slope_curve(d, 2, 1)
        cert = sf.DistanceCertificate([u, w])
        with pytest.raises(BudgetExceeded):
            hy._bfs_path(cert, u, sf.slope_curve(d, 1, 0))
        with pytest.raises(NoTightGeodesic):
            hy._bfs_path(cert, u, w)


def proper_domains():
    """The complexity-4 component domains of T(1,2) that have charts: the
    strip cut by the vertical line v0 and the torus side of a slot curve."""
    d = sf.full_surface(sf.TORUS_1_2)
    v0 = sf.line_class(d, 0, 1, 0)
    sigma = sf.slot_class(d, (0, 0), (1, 0))
    return {
        kind: next(
            y
            for y in sf.component_domains(d, sf.Simplex.of(d, c))
            if y.kind == "proper" and y.complexity() == 4
        )
        for kind, c in (("strip", v0), ("torus side", sigma))
    }


PROPER = proper_domains()


def convergent(coeffs) -> Slope:
    """The slope [a1; a2, ..., ak] of a continued-fraction prefix."""
    x = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        x = a + 1 / x
    return Slope(x.numerator, x.denominator)


def fan_realizes(y, end: Slope) -> bool:
    path = hy._fan_geodesic(y, Slope(0, 1), end)
    return all(y.chart.realize(v.rep) is not None for v in path)


class TestTightGeodesicOnProperDomains:
    """A lamination end on a component domain is truncated at the deepest
    budget depth whose whole geodesic the domain's chart realizes."""

    @staticmethod
    def build(y, coeffs):
        start = sf.Marking(sf.Simplex.of(y, sf.slope_curve(y, 0, 1)))
        lam = sf.LaminationDescriptor(y, sf.IrrationalSlope(tuple(coeffs)))
        return hy.tight_geodesic(y, start, lam)

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(sorted(PROPER)),
        coeffs=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    )
    def test_deepest_realizable_truncation(self, kind, coeffs):
        y = PROPER[kind]
        # truncations deeper than the prefix repeat its last convergent
        top = min(hy.lamination_depth(get_budget()), len(coeffs))
        try:
            vertices, finite = self.build(y, coeffs)
        except BudgetExceeded:
            depth = 0
        else:
            slopes = [v.rep for v in vertices]
            assert all(y.chart.realize(s) is not None for s in slopes)
            assert slopes[-1] == hy._marking_slope(finite)
            depth = max(
                k for k in range(1, top + 1) if convergent(coeffs[:k]) == slopes[-1]
            )
        for k in range(depth + 1, top + 1):
            assert not fan_realizes(y, convergent(coeffs[:k])), (coeffs, k)

    def test_known_truncations(self):
        for y in PROPER.values():
            vertices, _ = self.build(y, (1, 1, 1, 1))
            assert [v.rep for v in vertices] == [
                Slope(0, 1), Slope(1, 0), Slope(2, 1)
            ]
        with pytest.raises(BudgetExceeded):
            self.build(PROPER["strip"], (5,))


def annulus_of(domain, v):
    return [
        y
        for y in sf.component_domains(domain, sf.Simplex.of(domain, v))
        if y.kind == "annulus"
    ][0]


class TestSubordinacy:
    def test_interior_annulus_is_doubly_subordinate(self):
        h = hy.build_hierarchy(sf.TORUS_1_1, torus_marking(0, 1), torus_marking(3, 5))
        ann = annulus_of(h.domain, h.main.vertices[1])
        walk = hy.subordinate_markings(
            h.domain, h.main.vertices, h.main.initial, h.main.terminal
        )
        [(back, fwd)] = [(b, f) for j, y, b, f in walk if j == 1 and y == ann]
        assert back is not None and fwd is not None
        assert any(g.domain == ann and g.parent == ("g0", 1) for g in h.geodesics)

    def test_first_vertex_has_no_backward_witness_without_crossing(self):
        # the initial marking contains the first vertex itself, so the
        # annulus around it only sees the next vertex's side
        d = torus()
        base = sf.slope_curve(d, 0, 1)
        initial = sf.Marking(sf.Simplex.of(d, base))
        h = hy.build_hierarchy(sf.TORUS_1_1, initial, torus_marking(3, 5))
        v0, v1 = h.main.vertices[:2]
        ann = annulus_of(h.domain, v0)
        assert sf.restrict_marking(initial, ann) is None
        assert sf.restrict_marking(sf.Marking(sf.Simplex.of(d, v1)), ann) is not None
        # an end vertex's annulus carries no subordinate geodesic
        walk = hy.subordinate_markings(d, h.main.vertices, initial, h.main.terminal)
        assert [(b, f) for j, y, b, f in walk if y == ann] == [(None, None)]

    def test_a_piece_without_a_chart_is_never_restricted(self):
        # v0 -> h on T(1,2): the strip of h has no chart, so the walk
        # gives it no markings and the builder refuses it
        d = sf.full_surface(sf.TORUS_1_2)
        mv0 = sf.Marking(sf.Simplex.of(d, sf.line_class(d, 0, 1, 0)))
        mh = sf.Marking(sf.Simplex.of(d, sf.line_class(d, 1, 0)))
        vertices, finite = hy.tight_geodesic(d, mv0, mh)
        assert len(vertices) == 3
        strip = [
            (j, y, back, fwd)
            for j, y, back, fwd in hy.subordinate_markings(d, vertices, mv0, finite)
            if y.token.startswith("strip:") and y.chart is None
        ]
        assert [(j, back, fwd) for j, _, back, fwd in strip] == [(2, None, None)]
        token = strip[0][1].token
        with pytest.raises(BudgetExceeded) as info:
            hy.build_hierarchy(sf.TORUS_1_2, mv0, mh)
        assert str(info.value) == f"no coordinate chart for component domain {token}"


class TestFlatHierarchy:
    def test_build_and_verify(self):
        _, initial, terminal = flat_markings()
        h = hy.build_hierarchy(sf.TORUS_1_2, initial, terminal)
        ok, violations = hy.verify_hierarchy(h)
        assert ok, violations
        assert len(h.main.vertices) == 2
        proper = [
            g
            for g in h.geodesics
            if g.gid != "g0" and g.domain.kind == "proper"
        ]
        # one strip domain at the nonseparating vertex, one torus side at
        # the separating vertex
        tokens = sorted(g.domain.token.split(":")[0] for g in proper)
        assert tokens == ["strip", "torus-side"]
        for g in proper:
            assert g.domain.complexity() == 4
            assert g.parent is not None
            assert isinstance(g.initial, sf.Marking)
            assert isinstance(g.terminal, sf.Marking)

    def test_a_missing_subordinate_geodesic_is_named(self):
        # g1 is the strip of v0 and g2 the torus side of the second vertex;
        # without either, the completeness check names its domain alone
        _, initial, terminal = flat_markings()
        h = hy.build_hierarchy(sf.TORUS_1_2, initial, terminal)
        assert [g.domain.token.split(":")[0] for g in h.geodesics[1:]] == [
            "strip", "torus-side"
        ]
        for g in h.geodesics[1:]:
            kept = tuple(other for other in h.geodesics if other is not g)
            pruned = hy.Hierarchy(domain=h.domain, geodesics=kept, main_gid="g0")
            assert hy.verify_hierarchy(pruned) == (
                False, [f"missing geodesic on component domain {g.domain.token}"]
            )

    def test_adjacency_work_is_bounded(self, cold_caches, count_calls):
        # the main-geodesic search, the tightness check and verification
        # share one table of adjacencies, filled only where a search goes
        calls = count_calls(sf, "are_adjacent")
        build_and_verify_v0_v1()
        assert len(calls) <= 20

    def test_ambient_universe_is_built_once(self, cold_caches, count_calls):
        built = count_calls(sf, "flat_curve")
        first = hy.ambient_universe(2)
        first.append(first[0])  # a caller may extend its own list
        for _ in range(2):
            again = hy.ambient_universe(2)
            assert again == first[:-1] and again is not first
        assert len(built) == len(charts.AMBIENT.descs(2))

    def test_main_geodesics_are_kept_per_markings_and_reps(
        self, cold_caches, count_calls
    ):
        # one class named by both of its corridor descriptions: each rep
        # is searched once, a repeat with equal markings searches nothing,
        # and every answer keeps the reps a fresh search gives
        d = sf.full_surface(sf.TORUS_1_2)
        u = sf.line_class(d, -2, -1, 0)
        descs = [
            charts.CurveDesc("slot", ((0, 0), (-3, -2))),
            charts.CurveDesc("slot", ((1, 0), (4, 2))),
        ]

        def geodesic(desc):
            ends = (u, sf.flat_curve(d, desc))
            return hy.certified_main_geodesic(
                *(sf.Marking(sf.Simplex.of(d, c)) for c in ends)
            )

        searches = count_calls(hy, "_bfs_path")
        kept = [geodesic(desc) for desc in descs]
        assert kept[0] == kept[1] and len(searches) == 2
        assert [g[-1].rep for g in kept] == descs
        assert [geodesic(desc) for desc in descs] == kept and len(searches) == 2
        cold_caches()
        for desc, vertices in zip(descs, kept):
            assert [c.rep for c in geodesic(desc)] == [c.rep for c in vertices]
        assert len(searches) == 4

    def test_a_main_geodesic_that_raises_is_not_kept(self, cold_caches, count_calls):
        d = sf.full_surface(sf.TORUS_1_2)
        ends = (sf.line_class(d, -2, -1, 0), sf.slot_class(d, (0, 0), (-1, -2)))
        initial, terminal = (sf.Marking(sf.Simplex.of(d, c)) for c in ends)
        searches = count_calls(hy, "_bfs_path")
        for _ in range(2):
            with pytest.raises(BudgetExceeded, match="outside the curve enumeration"):
                hy.certified_main_geodesic(initial, terminal)
        assert len(searches) == 2 and not hy._MAIN_GEODESICS

    def test_overlay_work_is_bounded(self, cold_caches, count_calls):
        # each curve pair is overlaid once per intersection or boundary walk
        calls = count_calls(fc, "overlay")
        build_and_verify_v0_v1()
        assert len(calls) <= 18

    def test_no_main_geodesic_contradicts_the_filling_test(self):
        # curves that meet without filling are at distance 2, so a main
        # geodesic of length 3 or more must rest on a confirmed filling
        # pair; a filling test that cannot answer confirms nothing
        d = sf.full_surface(sf.TORUS_1_2)
        universe = hy.ambient_universe(2)
        assert len(universe) == 21
        lengths, refused = [], 0
        for i, u in enumerate(universe):
            for w in universe[i + 1 :]:
                mu, mw = (sf.Marking(sf.Simplex.of(d, c)) for c in (u, w))
                try:
                    h = hy.build_hierarchy(sf.TORUS_1_2, mu, mw)
                except BudgetExceeded:
                    refused += 1
                    continue
                lengths.append(len(h.main))
                if len(h.main) >= 3:
                    try:
                        fills = not sf.subsurface_boundary(u, w)
                    except BudgetExceeded:
                        fills = False
                    assert fills, (u, w)
        # main geodesics of 1 and 2 edges; no curve pair raises GenericityError
        assert (lengths.count(1), lengths.count(2), refused) == (11, 30, 169)

    def test_long_path_between_non_filling_curves_is_refused(self, monkeypatch):
        # universe curves 11 and 16 are three apart in the enumeration; a
        # filling test that finds a boundary class refuses the pair
        d = sf.full_surface(sf.TORUS_1_2)
        universe = hy.ambient_universe(2)
        u, w = universe[11], universe[16]
        certificate = sf.DistanceCertificate(universe)
        assert len(certificate.path(u, w)) == 4
        monkeypatch.setattr(sf, "subsurface_boundary", lambda u, w: (universe[0],))
        mu, mw = (sf.Marking(sf.Simplex.of(d, c)) for c in (u, w))
        with pytest.raises(BudgetExceeded, match="do not fill, but the enumeration"):
            hy.build_hierarchy(sf.TORUS_1_2, mu, mw)

    def test_the_verifier_shares_no_enumeration_with_the_builder(self):
        # every pair that the enumeration puts 3 or more apart but that does
        # not fill, tightened past the builder's refusal: the verifier's
        # filling test reads no enumeration, so it catches all of them,
        # whether the boundary class is in the enumeration or not
        d = sf.full_surface(sf.TORUS_1_2)
        universe = hy.ambient_universe(2)
        certificate = sf.DistanceCertificate(universe)
        inside = outside = 0
        for i, u in enumerate(universe):
            for w in universe[i + 1 :]:
                path = certificate.path(u, w)
                if len(path) < 4:
                    continue
                try:
                    if not sf.subsurface_boundary(u, w):
                        continue
                    inside += 1
                except BudgetExceeded:
                    outside += 1
                main = hy.TightGeodesic(
                    gid="g0",
                    domain=d,
                    vertices=hy._tighten(path, certificate),
                    initial=sf.Marking(sf.Simplex.of(d, u)),
                    terminal=sf.Marking(sf.Simplex.of(d, w)),
                )
                h = hy.Hierarchy(domain=d, geodesics=(main,), main_gid="g0")
                ok, violations = hy.verify_hierarchy(h)
                assert not ok
                assert any(v.startswith("g0 fails the filling test") for v in violations)
        assert (inside, outside) == (4, 36)

    def test_hierarchy_curves_are_distinct(self):
        _, initial, terminal = flat_markings()
        h = hy.build_hierarchy(sf.TORUS_1_2, initial, terminal)
        curves = [
            c
            for g in h.geodesics
            if g.domain.kind != "annulus"
            for c in g.vertices
        ]
        by_eq = []
        for c in curves:
            if c not in by_eq:
                by_eq.append(c)
        # no other test checks that Curve.__eq__ and Curve.__hash__ agree
        hashes = set()
        by_hash = []
        for c in curves:
            if hash(c) not in hashes:
                hashes.add(hash(c))
                by_hash.append(c)
        assert by_eq == by_hash
