from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brickforge import charts
from brickforge import flatcurves as fc
from brickforge import hierarchy as hy
from brickforge import surfaces as sf
from brickforge.config import get_budget
from brickforge.errors import BudgetExceeded, NoTightGeodesic, NotComponentDomain
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
        assert len(h.main.simplices) == 2
        assert h.main_gid == "g0"
        ok, violations = hy.verify_hierarchy(h)
        assert ok and not violations

    def test_identical_markings(self):
        h = hy.build_hierarchy(sf.TORUS_1_1, torus_marking(2, 3), torus_marking(2, 3))
        assert len(h.main.simplices) == 1

    def test_interior_vertices_carry_annular_geodesics(self):
        h = hy.build_hierarchy(sf.TORUS_1_1, torus_marking(0, 1), torus_marking(3, 5))
        n = len(h.main.simplices)
        annulars = [g for g in h.geodesics if g.domain.kind == "annulus"]
        assert len(annulars) == n - 2
        for g in annulars:
            assert g.parent is not None and g.parent[0] == "g0"

    def test_lamination_endpoint_truncated(self, monkeypatch):
        monkeypatch.setenv("BRICKFORGE_BUDGET", "600")
        d = torus()
        lam = sf.LaminationDescriptor(d, sf.IrrationalSlope((1,) * 10))
        h = hy.build_hierarchy(sf.TORUS_1_1, torus_marking(0, 1), lam)
        assert isinstance(h.terminal, sf.LaminationDescriptor)
        assert len(h.main.simplices) > 2

    def test_mutated_hierarchy_rejected(self):
        from dataclasses import replace

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
    return all(
        y.chart.realize(v.sorted_curves()[0].rep.slope) is not None for v in path
    )


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
            certificate, simplices, finite = self.build(y, coeffs)
        except BudgetExceeded:
            depth = 0
        else:
            assert certificate is None
            slopes = [v.sorted_curves()[0].rep.slope for v in simplices]
            assert all(y.chart.realize(s) is not None for s in slopes)
            assert slopes[-1] == hy._marking_slope(finite)
            depth = max(
                k for k in range(1, top + 1) if convergent(coeffs[:k]) == slopes[-1]
            )
        for k in range(depth + 1, top + 1):
            assert not fan_realizes(y, convergent(coeffs[:k])), (coeffs, k)

    def test_known_truncations(self):
        for y in PROPER.values():
            _, simplices, _ = self.build(y, (1, 1, 1, 1))
            assert [v.sorted_curves()[0].rep.slope for v in simplices] == [
                Slope(0, 1), Slope(1, 0), Slope(2, 1)
            ]
        with pytest.raises(BudgetExceeded):
            self.build(PROPER["strip"], (5,))


class TestSubordinacy:
    def test_not_component_domain(self):
        h = hy.build_hierarchy(sf.TORUS_1_1, torus_marking(0, 1), torus_marking(3, 5))
        wrong = sf.full_surface(sf.TORUS_1_2)
        with pytest.raises(NotComponentDomain):
            hy.subordinacy(h.main, 1, wrong)

    def test_interior_annulus_is_doubly_subordinate(self):
        h = hy.build_hierarchy(sf.TORUS_1_1, torus_marking(0, 1), torus_marking(3, 5))
        v = h.main.simplex(1)
        ann = [
            y
            for y in sf.component_domains(h.domain, v)
            if y.kind == "annulus"
        ][0]
        kind, back, fwd = hy.subordinacy(h.main, 1, ann)
        assert kind == "both"
        assert back is not None and fwd is not None

    def test_first_vertex_has_no_backward_witness_without_crossing(self):
        # the initial marking contains the first vertex itself, so the
        # annulus around it only sees the transversal side
        d = torus()
        base = sf.slope_curve(d, 0, 1)
        initial = sf.Marking(sf.Simplex.of(d, base))
        h = hy.build_hierarchy(sf.TORUS_1_1, initial, torus_marking(3, 5))
        ann = [
            y
            for y in sf.component_domains(h.domain, h.main.simplex(0))
            if y.kind == "annulus"
        ][0]
        kind, back, fwd = hy.subordinacy(h.main, 0, ann)
        assert back is None
        assert fwd is not None


class TestFlatHierarchy:
    def test_build_and_verify(self):
        _, initial, terminal = flat_markings()
        h = hy.build_hierarchy(sf.TORUS_1_2, initial, terminal)
        ok, violations = hy.verify_hierarchy(h)
        assert ok, violations
        assert len(h.main.simplices) == 2
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

    def test_overlay_work_is_bounded(self, cold_caches, count_calls):
        # each curve pair is overlaid once per intersection or boundary walk
        calls = count_calls(fc, "overlay")
        build_and_verify_v0_v1()
        assert len(calls) <= 18

    def test_hierarchy_curves_are_distinct(self):
        _, initial, terminal = flat_markings()
        h = hy.build_hierarchy(sf.TORUS_1_2, initial, terminal)
        curves = [
            c
            for g in h.geodesics
            if g.domain.kind != "annulus"
            for simplex in g.simplices
            for c in simplex.curves
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
