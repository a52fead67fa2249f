import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brickforge import charts
from brickforge import flatcurves as fc
from brickforge import surfaces as sf


def curves():
    return {
        "v0": fc.line_curve(0, 1, 0),
        "v1": fc.line_curve(0, 1, 1),
        "h": fc.line_curve(1, 0),
        "d1": fc.line_curve(1, 1),
        "d2": fc.line_curve(1, -1),
        "s0": fc.slot_curve((0, 0), (1, 0)),
        "A0": fc.slot_curve((1, 0), (2, 0)),
        "A1": fc.slot_curve((1, 0), (2, 1)),
        "A2": fc.slot_curve((1, 0), (2, 2)),
    }


RADIUS_2 = charts.AMBIENT.descs(2)

# frozen intersection table for the fixture curves
EXPECTED = {
    ("v0", "v1"): 0,
    ("v0", "h"): 1,
    ("v0", "d1"): 1,
    ("v0", "d2"): 1,
    ("v0", "s0"): 2,
    ("v0", "A0"): 0,
    ("v1", "h"): 1,
    ("v1", "s0"): 0,
    ("v1", "A0"): 2,
    ("v1", "A1"): 2,
    ("v1", "A2"): 2,
    ("h", "d1"): 2,
    ("h", "d2"): 2,
    ("h", "s0"): 0,
    ("h", "A0"): 0,
    ("h", "A1"): 2,
    ("h", "A2"): 4,
    ("d1", "d2"): 4,
    ("d1", "A1"): 0,
    ("s0", "A0"): 4,
    ("A0", "A1"): 4,
    ("A0", "A2"): 8,
    ("A1", "A2"): 4,
}


class TestWords:
    def test_reduce_cancels_inverses(self):
        a = ("V", 0, 1)
        b = ("H", 1, 1)
        word = [a, b, fc._inv_letter(b), fc._inv_letter(a), a]
        assert fc.reduce_cyclic(word) == [a]

    def test_canonical_invariant_under_rotation_and_inversion(self):
        word = [("V", 0, 1), ("H", 1, 1), ("D", 0, -1)]
        rotated = word[1:] + word[:1]
        inverted = [fc._inv_letter(l) for l in reversed(word)]
        assert fc.canonical_class(word) == fc.canonical_class(rotated)
        assert fc.canonical_class(word) == fc.canonical_class(inverted)

    def test_normal_coords_frozen(self):
        cs = curves()
        assert cs["v0"].normal_coords() == (0, 0, 1, 0, 1, 0)
        assert cs["v1"].normal_coords() == (0, 0, 0, 1, 0, 1)
        assert cs["h"].normal_coords() == (1, 1, 0, 0, 1, 1)
        assert cs["d1"].normal_coords() == (1, 1, 1, 1, 0, 0)
        assert cs["s0"].normal_coords() == (2, 2, 0, 2, 2, 2)
        assert cs["A0"].normal_coords() == (2, 2, 2, 0, 2, 2)

    def test_peripheral_loops_detected(self):
        assert len(fc.PERIPHERAL_CLASSES) == 2

    def test_class_is_computed_once_per_curve(self, count_calls):
        calls = count_calls(fc, "canonical_class")
        c = fc.line_curve(1, 2)
        for _ in range(2):
            assert c.canonical()
            assert c.normal_coords() == fc.normal_coords_of(c.word())
            assert not charts.AMBIENT.is_separating(c)
        assert len(calls) == 1


class TestConstructors:
    def test_line_needs_primitive_direction(self):
        with pytest.raises(ValueError):
            fc.line_curve(2, 4)

    def test_slot_needs_opposite_parity(self):
        with pytest.raises(ValueError):
            fc.slot_curve((0, 0), (2, 1))

    def test_embedded(self):
        for c in curves().values():
            assert fc.validate_embedded(c)

    def test_displacements(self):
        cs = curves()
        assert cs["v0"].disp == (0, 1)
        assert cs["h"].disp == (2, 0)
        assert cs["d1"].disp == (2, 2)
        assert cs["s0"].disp == (0, 0)

    def test_anchor_independence(self):
        a = fc.line_curve(1, 2)
        b = fc.line_curve(1, 2, anchor=Fraction(2, 9))
        assert fc.same_class(a, b)
        assert fc.flat_intersection(a, b) == 0

    def test_lattice_translate_same_class(self):
        a = fc.slot_curve((0, 0), (-1, 0))
        b = fc.slot_curve((1, 0), (2, 0))  # differs by the lattice vector (2,0)
        assert fc.same_class(a, b)
        assert a.normal_coords() == b.normal_coords()
        assert fc.flat_intersection(a, b) == 0


class TestIntersection:
    def test_frozen_table(self):
        cs = curves()
        for (n1, n2), expected in EXPECTED.items():
            assert fc.flat_intersection(cs[n1], cs[n2]) == expected, (n1, n2)

    def test_symmetry(self):
        cs = curves()
        for n1, n2 in itertools.combinations(cs, 2):
            assert fc.flat_intersection(cs[n1], cs[n2]) == fc.flat_intersection(
                cs[n2], cs[n1]
            )

    def test_self_intersection_zero(self):
        cs = curves()
        for c in cs.values():
            assert fc.flat_intersection(c, c) == 0

    def test_one_overlay_per_pair(self, count_calls):
        calls = count_calls(fc, "overlay")
        assert fc.flat_intersection(fc.line_curve(0, 1, 0), fc.line_curve(1, 0, 0)) == 1
        assert len(calls) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(RADIUS_2),
        st.sampled_from(RADIUS_2),
        st.integers(-2, 2),
        st.integers(-2, 2),
    )
    def test_symmetric_and_translation_invariant(self, d1, d2, a, b):
        try:
            c1, c2 = d1.build(), d2.build()
        except fc.GenericityError:
            assume(False)
        n = fc.flat_intersection(c1, c2)
        assert fc.flat_intersection(c2, c1) == n
        assert fc.flat_intersection(c1, c2.translated((2 * a, b))) == n
        assert fc.flat_intersection(c1, c1) == 0


class TestGenericOverlay:
    def test_nudge_that_changes_the_class_is_skipped(self, monkeypatch):
        full = sf.full_surface(sf.TORUS_1_2)
        c1 = sf.line_class(full, 0, 1, 0).flat()
        c2 = sf.line_class(full, 1, 0).flat()
        other = sf.line_class(full, 0, 1, 1).flat()
        assert not fc.same_class(c2, other)
        overlay, translated = fc.overlay, fc.FlatCurve.translated
        overlays, translates = [], []

        def first_overlay_fails(a, b):
            overlays.append(b)
            if len(overlays) == 1:
                raise fc.GenericityError("injected")
            return overlay(a, b)

        def first_translate_jumps(self, lam):
            translates.append(lam)
            if len(translates) == 1:
                return other
            return translated(self, lam)

        monkeypatch.setattr(fc, "overlay", first_overlay_fails)
        monkeypatch.setattr(fc.FlatCurve, "translated", first_translate_jumps)
        _, cand = fc.generic_overlay_pair(c1, c2)
        assert fc.same_class(cand, c2)


class TestBoundaryWalks:
    def test_disjoint_pair_gives_both_classes(self):
        v0 = fc.line_curve(0, 1, 0)
        v1 = fc.line_curve(0, 1, 1)
        classes = fc.boundary_walk_classes(v0, v1)
        assert sorted(classes) == sorted([v0.canonical(), v1.canonical()])

    def test_one_crossing_fills_a_torus_side(self):
        v0 = fc.line_curve(0, 1, 0)
        h = fc.line_curve(1, 0)
        classes = [
            c
            for c in fc.boundary_walk_classes(v0, h)
            if c != () and c not in fc.PERIPHERAL_CLASSES
        ]
        expected = fc.slot_curve((0, 0), (-1, 0)).canonical()
        assert classes == [expected]

    def test_strip_pair_bounded_by_wall(self):
        v1 = fc.line_curve(0, 1, 1)
        a0 = fc.slot_curve((1, 0), (2, 0))
        classes = [
            c
            for c in fc.boundary_walk_classes(v1, a0)
            if c != () and c not in fc.PERIPHERAL_CLASSES
        ]
        wall = fc.line_curve(0, 1, 0).canonical()
        assert classes and all(c == wall for c in classes)

    def test_filling_pair_has_only_trivial_walks(self):
        d1 = fc.line_curve(1, 1)
        d2 = fc.line_curve(1, -1)
        classes = fc.boundary_walk_classes(d1, d2)
        assert classes
        for c in classes:
            assert c == () or c in fc.PERIPHERAL_CLASSES


def _walks_or_error(c1, c2):
    try:
        return fc.boundary_walk_classes(c1, c2)
    except fc.GenericityError as exc:  # the pair is not in minimal position
        return str(exc)


def engine_records():
    """Crossing-level data of the engine: the word of every curve of
    descs(3), and the generic overlay crossings and boundary walks of every
    ordered pair of fixture curves."""
    for desc in charts.AMBIENT.descs(3):
        c = desc.build()
        yield (desc, c.points, c.disp, c.word())
    for (n1, c1), (n2, c2) in itertools.product(curves().items(), repeat=2):
        crossings, _ = fc.generic_overlay_pair(c1, c2)
        crossings = [(x.key1, x.key2, x.point) for x in crossings]
        yield (n1, n2, crossings, _walks_or_error(c1, c2))


# recorded before the engine's loops were merged; no output may move
ENGINE_DIGEST = "969281df2fa504445f4b40bd9207b4e65ef1bb6dd7f54db2d9341ca4e7254b37"


def test_engine_output_is_pinned():
    h = hashlib.sha256()
    for record in engine_records():
        h.update(repr(record).encode())
    assert h.hexdigest() == ENGINE_DIGEST


FIXTURES = curves()


@st.composite
def arc_cases(draw):
    """A fixture curve and two keys (segment, parameter) on it."""
    c = FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))]
    key = st.tuples(
        st.integers(0, len(c.segments()) - 1),
        st.fractions(0, 1, max_denominator=50).filter(lambda t: 0 < t < 1),
    )
    return c, draw(key), draw(key)


@settings(max_examples=200, deadline=None)
@given(arc_cases(), st.integers(-2, 2), st.integers(-2, 2))
def test_backward_arc_reverses_forward_arc(case, a, b):
    c, k1, k2 = case
    start = fc._add(c.point_at(k1), (2 * a, b))
    fwd = fc.arc_points(c, k1, k2, start, 1)
    assert fc.arc_points(c, k2, k1, fwd[-1], -1) == fwd[::-1]
