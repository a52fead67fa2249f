from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brickforge import charts
from brickforge import cli
from brickforge import flatcurves as fc
from brickforge import hierarchy as hy
from brickforge import surfaces as sf
from brickforge.errors import CertificateError, DomainError
from brickforge.farey import (
    Slope,
    enumerate_slopes,
    farey_bfs_distance,
    slope_intersection,
)
from conftest import reference_descs


def engine(c1, c2):
    """The intersection number from the bigon-removal engine, past the memo."""
    return len(fc._minimal_crossings(c1, c2)[0])


def torus():
    return sf.full_surface(sf.TORUS_1_1)


def sphere():
    return sf.full_surface(sf.SPHERE_0_4)


def twice_punctured():
    return sf.full_surface(sf.TORUS_1_2)


def slope_certificate(domain, bound):
    return sf.DistanceCertificate(
        [sf.Curve(domain, s) for s in enumerate_slopes(bound)]
    )


def tightness_consequence_holds(seq, probe_curves) -> bool:
    """Any probe curve crossing an interior vertex must cross a neighbor."""
    for i in range(1, len(seq) - 1):
        for w in probe_curves:
            if sf.intersection_number(w, seq[i]) > 0:
                near = (seq[i - 1], seq[i + 1])
                if not any(sf.intersection_number(w, c) > 0 for c in near):
                    return False
    return True


class TestSurface:
    def test_complexity(self):
        assert sf.Surface(1, 1).complexity() == 4
        assert sf.Surface(0, 3).complexity() == 3
        assert sf.Surface(1, 2).complexity() == 5

    def test_invariants(self):
        with pytest.raises(ValueError):
            sf.Surface(0, 2)
        with pytest.raises(ValueError):
            sf.Surface(1, 0)


class TestIntersection:
    def test_torus_values(self):
        d = torus()
        assert sf.intersection_number(sf.slope_curve(d, 0, 1), sf.slope_curve(d, 1, 0)) == 1
        assert sf.intersection_number(sf.slope_curve(d, 2, 3), sf.slope_curve(d, 2, 3)) == 0

    def test_sphere_doubles(self):
        d = sphere()
        assert sf.intersection_number(sf.slope_curve(d, 0, 1), sf.slope_curve(d, 1, 0)) == 2

    def test_domain_mismatch(self):
        with pytest.raises(DomainError):
            sf.intersection_number(
                sf.slope_curve(torus(), 0, 1), sf.slope_curve(sphere(), 1, 0)
            )

    def test_flat_curves(self):
        d = twice_punctured()
        v0 = sf.line_class(d, 0, 1, 0)
        h = sf.line_class(d, 1, 0)
        assert sf.intersection_number(v0, h) == 1

    def test_hashing_a_curve_again_builds_no_flat_curve(self, count_calls):
        d = twice_punctured()
        c, same = sf.line_class(d, 1, 2), sf.line_class(d, 1, 2)
        assert hash(c) == hash(same) and c == same
        built = count_calls(charts.AMBIENT, "curve")
        assert hash(c) == hash(same) and c == same and len({c, same}) == 1
        assert built == []

    def test_each_curve_builds_its_key_once(self, count_calls, capsys):
        # a warm limit report compares and hashes its cores thousands of
        # times; each read of a key after the first finds it on its curve
        argv = ["limit", "--scenario", "bo:80", "--stages", "2"]
        assert cli.run(argv) == 0
        reads = count_calls(sf.Curve, "key")
        built = count_calls(sf.Curve, "_class_key")
        assert cli.run(argv) == 0
        capsys.readouterr()
        assert len({id(c) for (c,) in built}) == len(built)
        assert 0 < 50 * len(built) < len(reads)

    def test_each_curve_looks_its_polygon_up_once(self, count_calls):
        # every pair's intersection and adjacency reads both polygons
        universe = hy.ambient_universe(2)
        looked_up = count_calls(charts.AMBIENT, "curve")
        for i, a in enumerate(universe):
            for b in universe[i + 1 :]:
                sf.intersection_number(a, b)
                sf.are_adjacent(a, b)
        assert len(looked_up) <= len(universe)

    def test_annulus_arcs(self):
        d = twice_punctured()
        core = sf.line_class(d, 0, 1, 0)
        ann = [
            y for y in sf.component_domains(d, sf.Simplex.of(d, core)) if y.kind == "annulus"
        ][0]
        a3 = sf.arc_curve(ann, 3)
        a5 = sf.arc_curve(ann, 5)
        assert sf.intersection_number(a3, a5) == 1
        assert sf.are_adjacent(a3, sf.arc_curve(ann, 4))
        assert not sf.are_adjacent(a3, a5)
        with pytest.raises(ValueError):
            sf.are_adjacent(a3, sf.arc_curve(ann, 3))


class TestAdjacency:
    def test_torus(self):
        d = torus()
        assert sf.are_adjacent(sf.slope_curve(d, 0, 1), sf.slope_curve(d, 1, 1))
        assert sf.are_adjacent(sf.slope_curve(d, 0, 1), sf.slope_curve(d, 1, 2))

    def test_torus_non_adjacent(self):
        d = torus()
        assert not sf.are_adjacent(sf.slope_curve(d, 0, 1), sf.slope_curve(d, 2, 1))

    def test_flat_disjointness_rule(self):
        d = twice_punctured()
        v0 = sf.line_class(d, 0, 1, 0)
        v1 = sf.line_class(d, 0, 1, 1)
        h = sf.line_class(d, 1, 0)
        assert sf.are_adjacent(v0, v1)
        assert not sf.are_adjacent(v0, h)

    def test_sphere_adjacency_is_farey_adjacency(self):
        d = sphere()
        assert sf.are_adjacent(sf.slope_curve(d, 0, 1), sf.slope_curve(d, 1, 0))
        assert not sf.are_adjacent(sf.slope_curve(d, 0, 1), sf.slope_curve(d, 2, 1))


@cache
def universe_pairs():
    """(single curves and disjoint pairs, crossing pairs) of
    ambient_universe(1), a single curve as the pair (a, a)."""
    u = hy.ambient_universe(1)
    pairs = [(a, b) for i, a in enumerate(u) for b in u[i:]]
    crossing = [(a, b) for a, b in pairs if sf.intersection_number(a, b) > 0]
    return [p for p in pairs if p not in crossing], crossing


class TestSimplex:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_one_order_whatever_the_input_order(self, data):
        d = twice_punctured()
        disjoint, _ = universe_pairs()
        a, b = data.draw(st.sampled_from(disjoint))
        forms = [sf.Simplex.of(d, a, b), sf.Simplex.of(d, b, a), sf.Simplex(d, [a, b, a])]
        assert forms[0] == forms[1] == forms[2]
        assert len({hash(s) for s in forms}) == 1
        keys = [repr(c.key()) for c in forms[0].curves]
        assert len(keys) == len({a, b})
        assert all(x < y for x, y in zip(keys, keys[1:]))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_crossing_curves_are_refused(self, data):
        _, crossing = universe_pairs()
        a, b = data.draw(st.sampled_from(crossing))
        with pytest.raises(ValueError):
            sf.Simplex.of(twice_punctured(), a, b)


class TestFareyGeodesic:
    def test_edge(self):
        d = torus()
        path = sf.farey_geodesic(sf.slope_curve(d, 0, 1), sf.slope_curve(d, 1, 0))
        assert len(path) == 2

    def test_point(self):
        d = torus()
        path = sf.farey_geodesic(sf.slope_curve(d, 0, 1), sf.slope_curve(d, 0, 1))
        assert len(path) == 1

    def test_length_matches_oracle(self):
        d = torus()
        u, w = sf.slope_curve(d, 0, 1), sf.slope_curve(d, 3, 5)
        path = sf.farey_geodesic(u, w)
        assert len(path) - 1 == farey_bfs_distance(Slope(0, 1), Slope(3, 5), 10)

    def test_round_trip_tightness(self):
        d = torus()
        cert = slope_certificate(d, 8)
        path = sf.farey_geodesic(sf.slope_curve(d, -1, 3), sf.slope_curve(d, 5, 2))
        assert sf.is_tight_sequence(path, cert)


class TestTightSequences:
    def test_single_simplex(self):
        d = torus()
        assert sf.is_tight_sequence([sf.slope_curve(d, 0, 1)])

    def test_backtracking_rejected(self):
        d = torus()
        seq = [sf.slope_curve(d, 0, 1), sf.slope_curve(d, 1, 0), sf.slope_curve(d, 0, 1)]
        assert not sf.is_tight_sequence(seq, slope_certificate(d, 4))

    def test_certificate_coverage_enforced(self):
        d = torus()
        seq = [sf.slope_curve(d, 0, 1), sf.slope_curve(d, 99, 100)]
        with pytest.raises(CertificateError):
            sf.is_tight_sequence(seq, slope_certificate(d, 4))

    def test_flat_tight_triple(self):
        d = twice_punctured()
        # the outer pair fills a one-holed torus whose boundary is exactly
        # the middle vertex, so the triple is tight
        v0 = sf.line_class(d, 0, 1, 0)
        h = sf.line_class(d, 1, 0)
        mid = sf.slot_class(d, (0, 0), (-1, 0))
        cert = sf.DistanceCertificate([v0, h, mid, sf.line_class(d, 0, 1, 1)])
        seq = [v0, mid, h]
        assert sf.is_tight_sequence(seq, cert)

    def test_flat_tight_triple_through_strip_wall(self):
        d = twice_punctured()
        # v1 and the corridor curve both live in the strip bounded by v0
        # and fill it, so v0 is the tight middle vertex
        v0 = sf.line_class(d, 0, 1, 0)
        v1 = sf.line_class(d, 0, 1, 1)
        a1 = sf.slot_class(d, (1, 0), (2, 1))
        cert = sf.DistanceCertificate([v0, v1, a1, sf.line_class(d, 1, 0)])
        seq = [v1, v0, a1]
        assert sf.is_tight_sequence(seq, cert)

    def test_flat_non_tight_triple(self):
        d = twice_punctured()
        # v0 and h cross, so the middle-to-endpoint distance is wrong
        v0 = sf.line_class(d, 0, 1, 0)
        v1 = sf.line_class(d, 0, 1, 1)
        h = sf.line_class(d, 1, 0)
        mid = sf.slot_class(d, (0, 0), (-1, 0))
        cert = sf.DistanceCertificate([v0, v1, h, mid])
        seq = [v1, v0, h]
        assert not sf.is_tight_sequence(seq, cert)

    def test_consequence_property(self):
        d = torus()
        path = sf.farey_geodesic(sf.slope_curve(d, 0, 1), sf.slope_curve(d, 8, 5))
        probes = [sf.Curve(d, s) for s in enumerate_slopes(6)]
        assert tightness_consequence_holds(path, probes)


# one certificate for every example, so later searches reuse adjacencies
# that earlier ones computed
SLOPE_CERTIFICATE = slope_certificate(torus(), 8)
SMALL_SLOPES = list(enumerate_slopes(4))


class TestDistanceCertificate:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SMALL_SLOPES), st.sampled_from(SMALL_SLOPES))
    def test_paths_agree_with_farey_bfs_oracle(self, a, b):
        d = torus()
        u, w = sf.Curve(d, a), sf.Curve(d, b)
        dist = SLOPE_CERTIFICATE.distance(u, w)
        assert dist == farey_bfs_distance(a, b, 8)
        path = SLOPE_CERTIFICATE.path(u, w)
        assert path[0] == u and path[-1] == w
        assert len(path) == dist + 1
        assert all(sf.are_adjacent(x, y) for x, y in zip(path, path[1:]))

    def test_endpoint_outside_the_enumeration(self):
        d = torus()
        with pytest.raises(CertificateError):
            SLOPE_CERTIFICATE.distance(sf.slope_curve(d, 0, 1), sf.slope_curve(d, 9, 10))

    def test_a_second_certificate_reads_the_kept_adjacency(self, cold_caches, count_calls):
        """Certificates of one process share the adjacency of each pair of
        classes: a second certificate over the same curves, built anew and
        listed in another order, computes none."""
        curves = hy.ambient_universe(2)
        first = sf.DistanceCertificate(curves)
        distances = {(u, w): first.distance(u, w) for u in curves for w in curves}
        assert max(distances.values()) >= 2
        computed = count_calls(sf, "are_adjacent")
        again = [sf.flat_curve(c.domain, c.rep) for c in reversed(curves)]
        second = sf.DistanceCertificate(again)
        assert {(u, w): second.distance(u, w) for u in again for w in again} == distances
        assert computed == []

    def test_an_adjacency_that_raises_is_not_kept(self, cold_caches, monkeypatch):
        """A certificate whose adjacency raises leaves the shared table
        as it was, so a later certificate computes the pair again."""
        curves = hy.ambient_universe(2)

        def refuse(a, b):
            raise fc.GenericityError("refused")

        with monkeypatch.context() as patch:
            patch.setattr(sf, "are_adjacent", refuse)
            with pytest.raises(fc.GenericityError):
                sf.DistanceCertificate(curves).distance(curves[0], curves[1])
        assert sf._ADJACENT == {}
        assert sf.DistanceCertificate(curves).distance(curves[0], curves[1]) >= 1
        assert sf._ADJACENT

    def test_disconnected_endpoints(self):
        d = torus()
        u, w = sf.slope_curve(d, 0, 1), sf.slope_curve(d, 2, 1)
        cert = sf.DistanceCertificate([u, w])
        assert cert.path(u, u) == [u]
        with pytest.raises(CertificateError):
            cert.distance(u, w)


class TestSubsurfaceBoundary:
    def test_single_curve_dedups(self):
        d = twice_punctured()
        v0 = sf.line_class(d, 0, 1, 0)
        assert sf.subsurface_boundary(v0, v0) == (v0,)

    def test_disjoint_pair(self):
        d = twice_punctured()
        v0 = sf.line_class(d, 0, 1, 0)
        v1 = sf.line_class(d, 0, 1, 1)
        # the curves come in the sorted order of their classes
        assert sf.subsurface_boundary(v0, v1) == (v0, v1)
        assert sf.subsurface_boundary(v1, v0) == (v0, v1)

    def test_crossing_pair_gives_separating_curve(self):
        d = twice_punctured()
        v0 = sf.line_class(d, 0, 1, 0)
        h = sf.line_class(d, 1, 0)
        assert sf.subsurface_boundary(v0, h) == (sf.slot_class(d, (0, 0), (-1, 0)),)

    def test_filling_pair(self):
        d = twice_punctured()
        d1 = sf.line_class(d, 1, 1)
        d2 = sf.line_class(d, 1, -1)
        assert sf.subsurface_boundary(d1, d2) == ()


class TestComponentDomains:
    def test_empty_simplex(self):
        d = torus()
        assert sf.component_domains(d, sf.Simplex(d, frozenset())) == [d]

    def test_torus_cut(self):
        d = torus()
        doms = sf.component_domains(d, sf.Simplex.of(d, sf.slope_curve(d, 0, 1)))
        kinds = sorted(y.kind for y in doms)
        assert kinds == ["annulus", "proper"]
        assert [y.ttype for y in doms if y.kind == "proper"] == [(0, 3)]

    def test_nonseparating_cut(self):
        d = twice_punctured()
        v0 = sf.line_class(d, 0, 1, 0)
        doms = sf.component_domains(d, sf.Simplex.of(d, v0))
        proper = [y for y in doms if y.kind == "proper"]
        assert len(proper) == 1 and proper[0].ttype == (0, 4)
        assert isinstance(proper[0].chart, charts.StripChart)
        assert sum(1 for y in doms if y.kind == "annulus") == 1

    def test_separating_cut(self):
        d = twice_punctured()
        s0 = sf.slot_class(d, (0, 0), (1, 0))
        doms = sf.component_domains(d, sf.Simplex.of(d, s0))
        ttypes = sorted(y.ttype for y in doms if y.kind == "proper")
        assert ttypes == [(0, 3), (1, 1)]

    def test_pants_decomposition_cut(self):
        d = twice_punctured()
        v0 = sf.line_class(d, 0, 1, 0)
        v1 = sf.line_class(d, 0, 1, 1)
        doms = sf.component_domains(d, sf.Simplex.of(d, v0, v1))
        assert sorted(y.kind for y in doms) == ["annulus", "annulus", "proper", "proper"]
        for y in doms:
            if y.kind == "proper":
                assert y.ttype == (0, 3)

    def test_euler_characteristic_bookkeeping(self):
        d = twice_punctured()
        for simplex in (
            sf.Simplex.of(d, sf.line_class(d, 0, 1, 0)),
            sf.Simplex.of(d, sf.slot_class(d, (0, 0), (1, 0))),
        ):
            doms = sf.component_domains(d, simplex)
            chi = sum(
                2 - 2 * y.ttype[0] - y.ttype[1] for y in doms if y.kind == "proper"
            )
            assert chi == 2 - 2 * sf.TORUS_1_2.genus - sf.TORUS_1_2.punctures


class TestRestrictMarking:
    def test_disjoint_marking_restricts_to_empty(self):
        d = twice_punctured()
        v0 = sf.line_class(d, 0, 1, 0)
        v1 = sf.line_class(d, 0, 1, 1)
        doms = sf.component_domains(d, sf.Simplex.of(d, v0))
        ann = [y for y in doms if y.kind == "annulus"][0]
        m = sf.Marking(sf.Simplex.of(d, v1))
        assert sf.restrict_marking(m, ann) is None

    def test_annulus_restriction_uses_twist(self):
        d = twice_punctured()
        v0 = sf.line_class(d, 0, 1, 0)
        h = sf.line_class(d, 1, 0)
        doms = sf.component_domains(d, sf.Simplex.of(d, v0))
        ann = [y for y in doms if y.kind == "annulus"][0]
        m = sf.Marking(sf.Simplex.of(d, v0), transversals=((v0, h),), twists=((v0, 2),))
        r = sf.restrict_marking(m, ann)
        assert r is not None
        (arc,) = r.base.curves
        assert arc.rep == 2

    def test_strip_restriction_projects(self):
        d = twice_punctured()
        v0 = sf.line_class(d, 0, 1, 0)
        h = sf.line_class(d, 1, 0)
        doms = sf.component_domains(d, sf.Simplex.of(d, v0))
        strip = [y for y in doms if y.kind == "proper"][0]
        m = sf.Marking(sf.Simplex.of(d, v0), transversals=((v0, h),))
        r = sf.restrict_marking(m, strip)
        assert r is not None
        slopes = sorted(str(c.rep) for c in r.base.curves)
        assert slopes == ["0/1"]

    def test_torus_side_restriction(self):
        d = twice_punctured()
        s0 = sf.slot_class(d, (0, 0), (1, 0))
        v0 = sf.line_class(d, 0, 1, 0)
        doms = sf.component_domains(d, sf.Simplex.of(d, s0))
        side = [y for y in doms if y.ttype == (1, 1)][0]
        m = sf.Marking(sf.Simplex.of(d, s0), transversals=((s0, v0),))
        r = sf.restrict_marking(m, side)
        assert r is not None
        slopes = [str(c.rep) for c in r.base.curves]
        assert slopes == ["0/1"]

    def test_pants_never_carries_curves(self):
        d = twice_punctured()
        s0 = sf.slot_class(d, (0, 0), (1, 0))
        doms = sf.component_domains(d, sf.Simplex.of(d, s0))
        pants = [y for y in doms if y.ttype == (0, 3)][0]
        m = sf.Marking(sf.Simplex.of(d, s0))
        assert sf.restrict_marking(m, pants) is None


@cache
def domain_charts():
    """The charts component_domains builds: both strip bands, and the
    torus sides of four corridor curves."""
    d = twice_punctured()
    walls = [sf.line_class(d, 0, 1, band) for band in (0, 1)]
    corridors = [
        sf.slot_class(d, p, q)
        for p, q in (
            ((0, 0), (1, 0)),
            ((1, 0), (2, 0)),
            ((0, 0), (1, 1)),
            ((0, 0), (-1, 1)),
        )
    ]
    return tuple(
        y.chart
        for c in walls + corridors
        for y in sf.component_domains(d, sf.Simplex.of(d, c))
        if y.chart is not None
    )


def scan_fan(chart, canonical):
    """The first fan slope whose realized curve has the class, or None:
    the classification by a walk of the whole fan."""
    for s in chart.realizable_slopes():
        desc = chart.realize(s)
        if desc is not None and charts.AMBIENT.curve(desc).canonical() == canonical:
            return s
    return None


class TestChartConsistency:
    def test_domain_charts_cover_both_kinds(self):
        kinds = [type(chart) for chart in domain_charts()]
        assert kinds.count(charts.StripChart) == 2
        assert kinds.count(charts.TorusSideChart) == 4

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_realized_intersections_match_slopes(self, data):
        chart = data.draw(st.sampled_from(domain_charts()))
        # |n| <= 3 of the fan n/1 (2n/1 on a strip), with 1/0
        width = 6 if chart.doubled else 3
        fan = [s for s in chart.realizable_slopes() if abs(s.p) <= width or s.q == 0]
        a, b = data.draw(st.sampled_from(fan)), data.draw(st.sampled_from(fan))
        da, db = chart.realize(a), chart.realize(b)
        assume(da is not None and db is not None)
        ca, cb = charts.AMBIENT.curve(da), charts.AMBIENT.curve(db)
        assert engine(ca, cb) == slope_intersection(a, b, chart.doubled)

    def test_strip_slopes_match_ambient_intersections(self):
        strip = charts.StripChart(0)
        for s1 in (Slope(0, 1), Slope(2, 1), Slope(1, 0)):
            for s2 in (Slope(0, 1), Slope(-2, 1)):
                c1 = charts.AMBIENT.curve(strip.realize(s1))
                c2 = charts.AMBIENT.curve(strip.realize(s2))
                assert engine(c1, c2) == slope_intersection(s1, s2, doubled=True)

    def test_torus_side_fan_is_farey(self):
        side = charts.TorusSideChart(1, 0)
        slopes = [Slope(1, 0), Slope(0, 1), Slope(1, 1), Slope(-1, 1)]
        built = {s: charts.AMBIENT.curve(side.realize(s)) for s in slopes}
        sigma = charts.AMBIENT.curve(side.cut_desc())
        for s, c in built.items():
            assert engine(c, sigma) == 0
        for i, s1 in enumerate(slopes):
            for s2 in slopes[i + 1 :]:
                assert engine(built[s1], built[s2]) == slope_intersection(s1, s2)

    def test_lookup_does_not_depend_on_the_curves_built_before(self):
        # StripChart(1) realizes 2/1 by the second description of a class
        # that descs(1) first names by slot((0,0),(1,1))
        desc = charts.StripChart(1).realize(Slope(2, 1))
        built, fresh = charts.AmbientFlatChart(), charts.AmbientFlatChart()
        cls = built.curve(desc).canonical()
        first = charts.CurveDesc("slot", ((0, 0), (1, 1)))
        assert desc != first
        assert built.lookup(cls) == fresh.lookup(cls) == first
        charts.AMBIENT.curve(desc)
        assert charts.AMBIENT.lookup(cls) == first

    def test_each_description_of_a_corridor_class_cuts_the_same_torus_side(self):
        """A lookup names a corridor class by its first description, and
        a component domain takes its torus-side chart from that
        description: both descriptions realize one class at each slope."""
        descs = dict.fromkeys(d for r in (1, 2, 3) for d in reference_descs(r))
        by_class = {}
        for desc in descs:
            by_class.setdefault(charts.AMBIENT.curve(desc).canonical(), []).append(desc)
        corridors = [ds for ds in by_class.values() if ds[0].kind == "slot"]
        assert len(corridors) == 22 and all(len(ds) == 2 for ds in corridors)
        for ds in corridors:
            sides = [
                charts.TorusSideChart(q[0] - p[0], q[1] - p[1], base=p)
                for p, q in (desc.data for desc in ds)
            ]
            for s in sides[0].realizable_slopes():
                realized = [side.realize(s) for side in sides]
                classes = [
                    charts.AMBIENT.curve(r).canonical() if r is not None else None
                    for r in realized
                ]
                assert classes[0] == classes[1], (ds, s)

    def test_classifications_are_kept_per_cut_and_class(
        self, cold_caches, count_calls, monkeypatch
    ):
        """A fan chart is fixed by its cut curve's description, so a chart
        with the same cut reads a kept classification and realizes
        nothing; a classification that raises keeps nothing."""
        cls = charts.AMBIENT.curve(charts.StripChart(0).realize(Slope(2, 1))).canonical()
        assert charts.StripChart(0).classify(cls) == Slope(2, 1)
        assert list(charts._CLASSIFIED) == [(charts.StripChart(0).cut_desc(), cls)]
        realized = count_calls(charts.StripChart, "realize")
        assert charts.StripChart(0).classify(cls) == Slope(2, 1)
        assert realized == []
        other = charts.StripChart(1)
        assert other.classify(cls) is None and len(realized) == 1

        def refuse(chart, s):
            raise fc.GenericityError("refused")

        side = charts.TorusSideChart(1, 0)
        line = charts.AMBIENT.curve(side.realize(Slope(1, 0))).canonical()
        with monkeypatch.context() as patch:
            patch.setattr(charts.TorusSideChart, "realize", refuse)
            with pytest.raises(fc.GenericityError):
                side.classify(line)
        assert len(charts._CLASSIFIED) == 2
        assert side.classify(line) == Slope(1, 0) and len(charts._CLASSIFIED) == 3

    def test_classify_agrees_with_the_fan_scan(self, cold_caches, count_calls):
        """`classify` gives the slope that scanning the whole fan finds,
        None included, on every fan slope of both strips and of the torus
        side of each corridor description of `reference_descs(3)`, every
        class of `descs(3)`, every boundary-walk class that projecting
        the curves of `descs(3)` asks those charts about, and the curves
        of the slopes just past the fan; a classification realizes at
        most one fan slope."""
        fans = [charts.StripChart(0), charts.StripChart(1)] + [
            charts.TorusSideChart(q[0] - p[0], q[1] - p[1], base=p)
            for p, q in (desc.data for desc in reference_descs(3) if desc.kind == "slot")
        ]
        curves = [charts.AMBIENT.curve(desc) for desc in charts.AMBIENT.descs(3)]
        asked = {fan: {c.canonical() for c in curves} for fan in fans}
        fan_slopes = 0
        for fan in fans:
            for s in fan.realizable_slopes():
                desc = fan.realize(s)
                if desc is not None:
                    asked[fan].add(charts.AMBIENT.curve(desc).canonical())
                    fan_slopes += 1
            walked = count_calls(fan, "classify")
            for w in curves:
                charts.project_to_chart(fan, w)
            asked[fan].update(cls for (cls,) in walked)
        assert fan_slopes == 2 * 17 + 2 * 396 + 2
        # the curves of the slopes just past the fan, which no scan reaches
        side = charts.TorusSideChart(1, 0)
        fans.append(side)
        asked[side] = set()
        for fan, step in ((fans[0], 2), (fans[1], 2), (side, 1)):
            for k in (charts.FAN_BOUND + 1, -charts.FAN_BOUND - 1):
                past = fan.realize(Slope(step * k, 1))
                asked[fan].add(charts.AMBIENT.curve(past).canonical())
        cold_caches()
        realized = [count_calls(kind, "realize") for kind in (charts.StripChart, charts.TorusSideChart)]
        found = []
        for fan in fans:
            for cls in sorted(asked[fan]):
                for calls in realized:
                    calls.clear()
                s = fan.classify(cls)
                assert sum(map(len, realized)) <= 1
                assert s == scan_fan(fan, cls), (fan.cut_desc(), cls)
                found.append(s is not None)
        assert fan_slopes <= found.count(True) < len(found)

    def test_a_torus_side_needs_an_odd_arc_direction(self):
        """An arc between punctures of one class has no corridor, so no
        fan: the chart refuses it by a `DomainError` naming (u, v)."""
        with pytest.raises(DomainError, match=r"\(2, 1\)"):
            charts.TorusSideChart(2, 1)

    def test_a_torus_side_lets_a_genericity_error_through(self, monkeypatch):
        """`TorusSideChart.realize` skips no line it cannot build: an
        error from a `lin` description reaches its caller."""
        build = charts.AMBIENT.curve

        def curve(desc):
            if desc.kind == "lin":
                raise fc.GenericityError("refused")
            return build(desc)

        monkeypatch.setattr(charts.AMBIENT, "curve", curve)
        side = charts.TorusSideChart(1, 0)
        for s in (Slope(1, 0), Slope(0, 1)):
            with pytest.raises(fc.GenericityError, match="refused"):
                side.realize(s)

    def test_projection_of_transversals(self):
        strip = charts.StripChart(0)
        assert charts.project_to_chart(strip, fc.line_curve(1, 0)) == [Slope(0, 1)]
        assert charts.project_to_chart(strip, fc.line_curve(1, 1)) == [Slope(2, 1)]
        side = charts.TorusSideChart(1, 0)
        assert charts.project_to_chart(side, fc.line_curve(0, 1, 0)) == [Slope(0, 1)]

    def test_a_projection_is_at_most_one_slope(self):
        """A complexity-4 subsurface holds no two disjoint, distinct,
        essential, non-peripheral curves, so projecting a curve into a
        fan chart gives no slope or one: every curve of descs(2) into
        both strips and into the torus side of each corridor of descs(2)."""
        descs = charts.AMBIENT.descs(2)
        fans = [charts.StripChart(0), charts.StripChart(1)] + [
            charts.TorusSideChart(q[0] - p[0], q[1] - p[1], base=p)
            for p, q in (desc.data for desc in descs if desc.kind == "slot")
        ]
        sizes = [
            len(charts.project_to_chart(fan, charts.AMBIENT.curve(desc)))
            for fan in fans
            for desc in descs
        ]
        assert (sizes.count(0), sizes.count(1), len(sizes)) == (100, 152, 252)


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_descs_keep_the_first_description_of_each_class(radius):
    """`descs(r)` lists, in the reference order, the first description of
    each class: every other reference description builds the class of one
    listed before it, the listed classes are distinct, and
    `ambient_universe(r)` is the reference's curves deduplicated."""
    listed = charts.AMBIENT.descs(radius)
    reference = reference_descs(radius)
    assert [desc for desc in reference if desc in listed] == listed
    earlier = set()
    for desc in reference:
        cls = charts.AMBIENT.curve(desc).canonical()
        if desc in listed:
            earlier.add(cls)
        else:
            assert cls in earlier, desc
    classes = [charts.AMBIENT.curve(desc).canonical() for desc in listed]
    assert len(set(classes)) == len(classes) == len(reference) // 2
    d = sf.full_surface(sf.TORUS_1_2)
    deduplicated = list(dict.fromkeys(sf.flat_curve(d, desc) for desc in reference))
    universe = hy.ambient_universe(radius)
    assert universe == deduplicated
    assert [c.rep for c in universe] == [c.rep for c in deduplicated]
