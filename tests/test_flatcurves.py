import collections
import functools
import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brickforge import charts, cli
from brickforge import flatcurves as fc
from brickforge import hierarchy as hy
from brickforge import surfaces as sf
from brickforge.errors import BudgetExceeded
from conftest import reference_descs


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


RADIUS_2 = reference_descs(2)


def engine(c1, c2):
    """The intersection number from the bigon-removal engine, past the memo."""
    return len(fc._minimal_crossings(c1, c2)[0])


# ---------------------------------------------------------------------------
# the nudge engine that the symbolic move (eps, eps^2) replaced: a strict
# overlay that refuses every degenerate position, retried on tiny
# translates of the second curve in its class


def translated(c, lam):
    return fc.FlatCurve(tuple(fc._add(p, lam) for p in c.points), c.disp)


def on_grid(p):
    return p[0].denominator == 1 or p[1].denominator == 1 or (p[1] - p[0]).denominator == 1


def strict_seg_cross(a1, a2, b1, b2, scale):
    """Interior transverse crossing of segments a and b, given by int
    points: the rational points times the common denominator `scale`.

    Returns (t, u, point) with t, u strictly in (0,1) and the rational
    crossing point, or None.  Collinear overlaps and endpoint touches raise
    GenericityError so the caller knows the representatives need a nudge.
    Every decision is an integer sign test; Fractions are built for a hit.
    """
    d1 = fc._sub(a2, a1)
    d2 = fc._sub(b2, b1)
    den = fc._cross(d1, d2)
    diff = fc._sub(b1, a1)
    if den == 0:
        if fc._cross(d1, diff) == 0:
            # positions of b1, b2 along a, as multiples k/n of d1
            c = 0 if d1[0] != 0 else 1
            n, k1, k2 = d1[c], b1[c] - a1[c], b2[c] - a1[c]
            if n < 0:
                n, k1, k2 = -n, -k1, -k2
            if max(k1, k2) > 0 and min(k1, k2) < n:
                raise fc.GenericityError("collinear overlapping segments")
        return None
    tn = fc._cross(diff, d2)
    un = fc._cross(diff, d1)
    if den < 0:
        den, tn, un = -den, -tn, -un
    if 0 < tn < den and 0 < un < den:
        den_xy = den * scale
        point = (
            Fraction(a1[0] * den + tn * d1[0], den_xy),
            Fraction(a1[1] * den + tn * d1[1], den_xy),
        )
        return (Fraction(tn, den), Fraction(un, den), point)
    if 0 <= tn <= den and 0 <= un <= den:
        # endpoint contact between otherwise transverse segments: only a
        # genuine degeneracy when the touch is not a shared polyline vertex
        if not (tn in (0, den) and un in (0, den)):
            raise fc.GenericityError("segment touches the interior of another")
    return None


def strict_overlay(c1, c2):
    """All torus crossings between two embedded curves, keyed (i, t) and
    (j, u), in order of lattice translate and segment pair; a crossing on
    a grid line, a touch or an overlap raises GenericityError."""
    segs1, segs2 = c1.segments(), c2.segments()
    scale, isegs = fc._int_segments(*segs1, *segs2)
    isegs1, isegs2 = isegs[: len(segs1)], isegs[len(segs1) :]
    out = []
    for lam, i, j in fc._box_translates(isegs1, isegs2, scale):
        (a1, a2, _), (b1, b2, _) = isegs1[i], isegs2[j]
        lx, ly = lam[0] * scale, lam[1] * scale
        hit = strict_seg_cross(a1, a2, (b1[0] + lx, b1[1] + ly), (b2[0] + lx, b2[1] + ly), scale)
        if hit is None:
            continue
        t, u, point = hit
        if on_grid(point):
            raise fc.GenericityError("crossing point on a grid line")
        out.append(fc.Crossing((i, t), (j, u)))
    return out


def nudges(c2):
    """c2, then its tiny translates whose crossing word certifies that
    they are in the class of c2.  A translate whose word changes (it swept
    a puncture) or cannot be read is skipped."""
    yield c2
    target = c2.canonical()
    for k in range(23):
        tau = (Fraction(1, 911 + 37 * k) / 7, Fraction(1, 1013 + 41 * k) / 7)
        cand = translated(c2, tau)
        try:
            same = cand.canonical() == target
        except fc.GenericityError:
            continue
        if same:
            yield cand


def generic_overlay_pair(c1, c2):
    """Overlay c1 with c2, nudged by a tiny translation until generic.

    Returns (crossings, c2'): c2' is in the class of c2, and crossings is
    its generic overlay with c1.
    """
    for cand in nudges(c2):
        try:
            return strict_overlay(c1, cand), cand
        except fc.GenericityError:
            continue
    coords = f"{list(c1.normal_coords())} and {list(c2.normal_coords())}"
    raise BudgetExceeded(f"could not reach generic position by nudging the curves {coords}")


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


# integer matrices [[a, 2b], [c, d]] with determinant +-1: each maps 2Z x Z
# and Z^2 onto themselves and keeps the parity of x (a is odd), so it
# induces a homeomorphism of the surface that fixes both punctures
LATTICE_MATRICES = [
    ((1, 2), (0, 1)),
    ((1, -2), (0, 1)),
    ((1, 0), (1, 1)),
    ((1, 0), (-1, 1)),
    ((-1, 0), (0, 1)),
    ((1, 0), (0, -1)),
]


def image(c, m):
    """The image of c under the matrix m.  The images of the 42 curves of
    reference_descs(2) under LATTICE_MATRICES all have crossing words, so
    none needs a nudge to generic position."""
    (a, b), (cc, d) = m

    def apply(p):
        return (a * p[0] + b * p[1], cc * p[0] + d * p[1])

    return fc.FlatCurve(tuple(apply(p) for p in c.points), apply(c.disp))


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
        assert len(calls) == 1


def displacement(word):
    """The lattice translation (x, y) that a crossing word closes up by."""
    return (
        sum(letter[2] for letter in word if letter[0] == "V"),
        sum(letter[2] for letter in word if letter[0] == "H"),
    )


def test_separating_classes_are_the_corridor_curves():
    # a class separates exactly when its word closes up with no
    # translation; `surfaces.component_domains` reads that off the
    # description's kind
    descs = reference_descs(4)
    assert len(descs) == 126
    for desc in descs:
        closed = displacement(desc.build().canonical()) == (0, 0)
        assert closed == (desc.kind == "slot"), desc


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

    def test_every_buildable_curve_of_radius_4_is_embedded(self):
        built = 0
        for desc in reference_descs(4):
            try:
                c = desc.build()
            except fc.GenericityError:
                continue
            assert fc.validate_embedded(c), desc
            built += 1
        assert built == 126

    def test_self_crossing_bowtie_is_not_embedded(self):
        bowtie = [(Fraction(1, 5), Fraction(1, 5)), (Fraction(4, 5), Fraction(4, 5)),
                  (Fraction(4, 5), Fraction(1, 5)), (Fraction(1, 5), Fraction(4, 5))]
        with pytest.raises(fc.GenericityError, match="curve is not embedded"):
            fc.validate_embedded(fc.FlatCurve(tuple(bowtie), (0, 0)))

    def test_curve_meeting_its_lattice_translate_is_not_embedded(self):
        # a simple triangle taller than the lattice vector (0, 1): its
        # translate's bottom edge crosses both of its upper edges
        triangle = ((Fraction(1, 10), Fraction(1, 10)), (Fraction(3, 10), Fraction(8, 5)),
                    (Fraction(1, 2), Fraction(3, 20)))
        with pytest.raises(fc.GenericityError, match="curve is not embedded"):
            fc.validate_embedded(fc.FlatCurve(triangle, (0, 0)))

    def test_displacements(self):
        cs = curves()
        assert cs["v0"].disp == (0, 1)
        assert cs["h"].disp == (2, 0)
        assert cs["d1"].disp == (2, 2)
        assert cs["s0"].disp == (0, 0)

    def test_anchor_independence(self):
        a = fc.line_curve(1, 2)
        # the same line, its vertex moved along it by a generic amount
        t = Fraction(2, 9)
        (x0, y0), = a.points
        b = fc.FlatCurve(((x0 + t, y0 + 2 * t),), a.disp)
        assert b != a
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
        # the engine itself: the memo would answer the swapped pair
        cs = curves()
        for n1, n2 in itertools.combinations(cs, 2):
            assert engine(cs[n1], cs[n2]) == engine(cs[n2], cs[n1])

    def test_self_intersection_zero(self):
        cs = curves()
        for c in cs.values():
            assert fc.flat_intersection(c, c) == 0

    def test_one_overlay_per_pair(self, cold_caches, count_calls):
        calls = count_calls(fc, "overlay")
        assert fc.flat_intersection(fc.line_curve(0, 1, 0), fc.line_curve(1, 0, 0)) == 1
        assert len(calls) == 1

    def test_an_error_is_not_memoised(self, cold_caches, monkeypatch):
        def stuck(c1, c2):
            raise fc.GenericityError("refused")

        c1, c2 = fc.line_curve(0, 1, 0), fc.line_curve(1, 0, 0)
        monkeypatch.setattr(fc, "overlay", stuck)
        for _ in range(2):
            with pytest.raises(fc.GenericityError):
                fc.flat_intersection(c1, c2)
        monkeypatch.undo()
        assert fc.flat_intersection(c1, c2) == 1

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
        n = engine(c1, c2)
        assert engine(c2, c1) == n
        assert engine(c1, translated(c2, (2 * a, b))) == n
        assert fc.flat_intersection(c1, c1) == 0

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(RADIUS_2), st.sampled_from(RADIUS_2))
    def test_invariant_under_point_reflection(self, d1, d2):
        # x -> -x maps the grid lines, the punctures and both parity
        # classes to themselves
        def reflected(c):
            return fc.FlatCurve(tuple((-x, -y) for x, y in c.points), (-c.disp[0], -c.disp[1]))

        try:
            c1, c2 = d1.build(), d2.build()
        except fc.GenericityError:
            assume(False)
        # the engine itself: a reflected line is its own class, so the
        # memo would answer the reflected pair
        n = engine(c1, c2)
        assert engine(reflected(c1), reflected(c2)) == n

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(RADIUS_2),
        st.sampled_from(RADIUS_2),
        st.sampled_from(LATTICE_MATRICES),
    )
    def test_invariant_under_lattice_matrices(self, d1, d2, m):
        c1, c2 = d1.build(), d2.build()
        # the engine itself, as for the point reflection
        n = engine(c1, c2)
        assert engine(image(c1, m), image(c2, m)) == n


@functools.lru_cache(maxsize=None)
def representatives_by_class():
    """The curves of reference_descs(3), grouped by canonical class (two
    representatives for each of the 43 classes)."""
    by_class = {}
    for desc in reference_descs(3):
        c = charts.AMBIENT.curve(desc)
        by_class.setdefault(c.canonical(), []).append(c)
    return by_class


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_memo_answers_as_the_engine_does_for_every_representative(data):
    """The intersection number is a class invariant: the engine gives one
    answer over every pair of representatives of two classes, in both
    orders and under lattice translation, and the class-keyed memo of
    flat_intersection returns that answer."""
    by_class = representatives_by_class()
    classes = sorted(by_class)
    a, b = data.draw(st.sampled_from(classes)), data.draw(st.sampled_from(classes))
    lam = (2 * data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2)))
    answers = set()
    for r1 in by_class[a]:
        for r2 in by_class[b]:
            for x, y in ((r1, r2), (r2, r1), (r1, translated(r2, lam)), (translated(r1, lam), r2)):
                answers.add(engine(x, y))
    assert len(answers) == 1
    n = answers.pop()
    for r1 in by_class[a]:
        for r2 in by_class[b]:
            assert fc.flat_intersection(r1, r2) == fc.flat_intersection(r2, r1) == n


class TestGenericOverlay:
    def test_nudge_that_changes_the_class_is_skipped(self, monkeypatch):
        full = sf.full_surface(sf.TORUS_1_2)
        c1 = sf.line_class(full, 0, 1, 0).flat()
        c2 = sf.line_class(full, 1, 0).flat()
        other = sf.line_class(full, 0, 1, 1).flat()
        assert not fc.same_class(c2, other)
        overlay, translate = strict_overlay, translated
        overlays, translates = [], []

        def first_overlay_fails(a, b):
            overlays.append(b)
            if len(overlays) == 1:
                raise fc.GenericityError("injected")
            return overlay(a, b)

        def first_translate_jumps(c, lam):
            translates.append(lam)
            if len(translates) == 1:
                return other
            return translate(c, lam)

        monkeypatch.setitem(globals(), "strict_overlay", first_overlay_fails)
        monkeypatch.setitem(globals(), "translated", first_translate_jumps)
        _, cand = generic_overlay_pair(c1, c2)
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


def engine_records():
    """Crossing-level data of the engine: the word of every curve of
    descs(3), and the overlay crossings of every ordered pair of fixture
    curves, each by its eps^0 parts and its point."""
    for desc in reference_descs(3):
        c = desc.build()
        yield (desc, c.points, c.disp, c.word())
    for (n1, c1), (n2, c2) in itertools.product(curves().items(), repeat=2):
        segs = c1.segments()
        yield (n1, n2, [(x.key1[:2], x.key2[:2], _point_on(segs, x.key1[:2])) for x in fc.overlay(c1, c2)])


def walk_records():
    """The boundary walks of every ordered pair of fixture curves, in
    sorted order."""
    for (n1, c1), (n2, c2) in itertools.product(curves().items(), repeat=2):
        yield (n1, n2, fc.boundary_walk_classes(c1, c2))


def digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
    return h.hexdigest()


# re-pinned when the overlay began to move c2 by (eps, eps^2): only
# records of the 21 fixture pairs that the nudge engine nudged moved
ENGINE_DIGEST = "8413aded51344089c01ac0dea840ee42ebca609adad57554da5169678f500155"
# the walks of the fixture pairs, each pair in minimal position; the
# polygon walks gave this digest once each pair's list was sorted
WALKS_DIGEST = "b72e67df257c3bb94380c3c656edd8686051b249475a47833f12cd94095dcec4"


def test_engine_output_is_pinned():
    assert digest(engine_records()) == ENGINE_DIGEST


def test_boundary_walks_are_pinned():
    assert digest(walk_records()) == WALKS_DIGEST


def test_enumerated_walk_classes_are_disjoint_from_both_curves():
    """The boundary of a regular neighborhood of two curves in minimal
    position misses both curves, so every essential walk class that the
    enumeration knows meets neither curve, by the intersection engine."""
    fixtures = itertools.combinations(curves().values(), 2)
    universe = ((u.flat(), w.flat()) for u, w in itertools.combinations(hy.ambient_universe(2), 2))
    pairs = checked = 0
    for c1, c2 in itertools.chain(fixtures, universe):
        pairs += 1
        for cls in fc.boundary_walk_classes(c1, c2):
            if cls == () or cls in fc.PERIPHERAL_CLASSES:
                continue
            desc = charts.AMBIENT.lookup(cls)
            if desc is None:
                continue
            c = charts.AMBIENT.curve(desc)
            assert fc.flat_intersection(c, c1) == fc.flat_intersection(c, c2) == 0, (c1, c2, desc)
            checked += 1
    assert (pairs, checked) == (246, 232)


FIXTURES = curves()


@st.composite
def arc_cases(draw):
    """A fixture curve and two keys (segment, parameter) on it, off the grid."""
    c = FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))]
    segs = c.segments()
    key = st.tuples(
        st.integers(0, len(segs) - 1),
        st.fractions(0, 1, max_denominator=50).filter(lambda t: 0 < t < 1),
    ).filter(lambda k: not on_grid(_point_on(segs, k)))
    return c, draw(key), draw(key)


@settings(max_examples=200, deadline=None)
@given(arc_cases(), st.integers(-2, 2), st.integers(-2, 2))
def test_backward_arc_reverses_forward_arc(case, a, b):
    """An arc's letters are those of its polygon, which walking back
    reverses, in every lift, and on the curve moved by (eps, eps^2) too."""
    c, k1, k2 = case
    start = fc._add(_point_on(c.segments(), k1), (2 * a, b))
    fwd = arc_points(c, k1, k2, start, 1)
    assert arc_points(c, k2, k1, fwd[-1], -1) == fwd[::-1]
    key1, key2 = (*k1, 0, 0), (*k2, 0, 0)
    for letters in fc._letter_places(c, c):
        assert fc._arc_word(letters, key1, key2, 1) == fc.path_word(fwd)
        assert fc._arc_word(letters, key2, key1, -1) == fc.path_word(fwd[::-1])


# ---------------------------------------------------------------------------
# the crossing-word engine against the polygon engine it replaced


def _scale(v, s):
    return (v[0] * s, v[1] * s)


def _point_on(segs, key):
    """The point at parameter t of segment i, for key (i, t)."""
    i, t = key
    a, b = segs[i]
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def arc_points(curve, key_from, key_to, start_point, direction=1):
    """Polyline along the curve from key_from to key_to, lifted so the arc
    begins at start_point.  direction=+1 walks forward, -1 backward; equal
    keys walk the whole curve."""
    segs = curve.segments()
    n = len(segs)
    i, t = key_from
    j, u = key_to
    off = fc._sub(start_point, _point_on(segs, key_from))
    end = 1 if direction == 1 else 0  # the segment end a step passes
    wrap = _scale(curve.disp, direction)
    pts = [start_point]
    cur = i
    steps = 0
    while not (cur == j and (steps > 0 or (u - t) * direction > 0)):
        pts.append(fc._add(segs[cur][end], off))
        cur += direction
        if not 0 <= cur < n:
            cur %= n
            off = fc._add(off, wrap)
        steps += 1
        assert steps <= 2 * n + 2, "arc walk failed to terminate"
    pts.append(fc._add(_point_on(segs, key_to), off))
    return pts


def polygon_find_bigon(c1, c2, crossings, live):
    """The polygon bigon test: a loop of two arcs, lifted from one
    crossing, that closes in the plane and winds about no puncture."""
    if len(live) < 2:
        return None
    order1 = sorted(live, key=lambda k: crossings[k].key1)
    order2 = sorted(live, key=lambda k: crossings[k].key2)
    segs1 = c1.segments()
    for idx, ka in enumerate(order1):
        kb = order1[(idx + 1) % len(order1)]
        x, y = crossings[ka], crossings[kb]
        at2 = order2.index(ka)
        for direction in (1, -1):
            if order2[(at2 + direction) % len(order2)] != kb:
                continue
            start = _point_on(segs1, x.key1)
            arc1 = arc_points(c1, x.key1, y.key1, start, 1)
            arc2 = arc_points(c2, x.key2, y.key2, start, direction)
            if arc1[-1] != arc2[-1]:
                continue
            loop = arc1[:-1] + list(reversed(arc2))[:-1]
            if next(fc._enclosed_punctures(loop), None) is None:
                return (ka, kb)
    return None


def polygon_minimal_crossings(c1, c2):
    crossings, c2 = generic_overlay_pair(c1, c2)
    live = set(range(len(crossings)))
    while (pair := polygon_find_bigon(c1, c2, crossings, live)) is not None:
        live.difference_update(pair)
    return [crossings[k] for k in sorted(live)], c2


def _sort_by_angle(items):
    """Sort (direction, payload) pairs counterclockwise starting at +x."""
    def key(it):
        x, y = it[0]
        if y == 0:
            return (0 if x > 0 else 2, Fraction(0))
        return (1 if y > 0 else 3, Fraction(-x, y))

    return sorted(items, key=key)


def polygon_walk_classes(c1, c2):
    """The rotation-system walk: the faces of the union are traced by
    half-edges, turning at each crossing to the next tangent
    counterclockwise, and each face's polygon is read by `path_word`."""
    crossings, c2 = polygon_minimal_crossings(c1, c2)
    if not crossings:
        return [c1.canonical(), c2.canonical()]
    curves = (c1, c2)
    segs = (c1.segments(), c2.segments())
    arcs = []  # (curve index, from crossing, to crossing) along the curve
    for cidx in (0, 1):
        order = sorted(range(len(crossings)), key=lambda k: crossings[k].key(cidx))
        for pos, ka in enumerate(order):
            arcs.append((cidx, ka, order[(pos + 1) % len(order)]))
    # the outgoing half-edges (arc index, direction) at each crossing
    outgoing = {k: [] for k in range(len(crossings))}
    for aidx, (cidx, ka, kb) in enumerate(arcs):
        sa, _ = crossings[ka].key(cidx)
        sb, _ = crossings[kb].key(cidx)
        da = fc._sub(segs[cidx][sa][1], segs[cidx][sa][0])
        db = fc._sub(segs[cidx][sb][1], segs[cidx][sb][0])
        outgoing[ka].append((da, (aidx, 1)))
        outgoing[kb].append((_scale(db, -1), (aidx, -1)))
    rotation = {}
    for k, items in outgoing.items():
        ordered = _sort_by_angle(items)
        for i, (_, he) in enumerate(ordered):
            rotation[(k, he)] = ordered[(i + 1) % len(ordered)][1]

    def ends(he):
        _, ka, kb = arcs[he[0]]
        return (ka, kb) if he[1] == 1 else (kb, ka)

    visited = set()
    classes = []
    for k0, he0 in list(rotation):
        if ends(he0)[0] != k0 or (k0, he0) in visited:
            continue
        points = []
        cur = _point_on(segs[0], crossings[k0].key1)
        he, at = he0, k0
        while True:
            visited.add((at, he))
            cidx = arcs[he[0]][0]
            src, end = ends(he)
            pts = arc_points(curves[cidx], crossings[src].key(cidx), crossings[end].key(cidx), cur, he[1])
            points.extend(pts[:-1])
            cur = pts[-1]
            he, at = rotation[(end, (he[0], -he[1]))], end
            if at == k0 and he == he0:
                break
            assert len(visited) <= 4 * len(arcs), "face walk failed to close"
        dx, dy = fc._sub(cur, points[0])
        assert dx.denominator == dy.denominator == 1 and dx % 2 == 0
        classes.append(fc.canonical_class(fc.path_word(points, (int(dx), int(dy)))))
    return classes


def test_engine_agrees_with_the_polygon_oracles():
    """The same number of crossings left after bigon removal, and the same
    walk classes, as the polygon engine on the nudge engine's overlay, on
    every ordered pair of fixture curves and of the 21 curves of
    `ambient_universe(2)`; and the same crossings, by their eps^0 parts,
    wherever the nudge engine overlaid the curves themselves."""
    universe = [c.flat() for c in hy.ambient_universe(2)]
    fixtures = list(itertools.product(curves().values(), repeat=2))
    direct = []
    for pairs in (fixtures, list(itertools.permutations(universe, 2))):
        unnudged = 0
        for c1, c2 in pairs:
            got, _ = fc._minimal_crossings(c1, c2)
            want, moved = polygon_minimal_crossings(c1, c2)
            assert len(got) == len(want)
            if moved is c2:
                unnudged += 1
                assert [(x.key1[:2], x.key2[:2]) for x in got] == [(x.key1, x.key2) for x in want]
            assert fc.boundary_walk_classes(c1, c2) == sorted(polygon_walk_classes(c1, c2))
        direct.append((unnudged, len(pairs)))
    assert direct == [(60, 81), (338, 420)]


def test_overlay_is_total_and_agrees_with_the_nudge_engine():
    """The overlay refuses no ordered pair of radius-2 curves, a curve and
    itself included, where the strict overlay refuses 308 pairs of
    distinct curves and every curve with itself.  The engine leaves as
    many crossings as the polygon engine on the nudge engine's overlay,
    and the walks have the same classes."""
    built = [desc.build() for desc in RADIUS_2]
    refused = collections.Counter()
    for c1, c2 in itertools.product(built, repeat=2):
        if isinstance(_outcome(strict_overlay, c1, c2), str):
            refused[c1 is c2] += 1
        assert engine(c1, c2) == len(polygon_minimal_crossings(c1, c2)[0])
        assert fc._walk_classes(c1, c2) == sorted(polygon_walk_classes(c1, c2))
    assert refused == {False: 308, True: 42}


def test_one_overlay_per_engine_run(cold_caches, count_calls, capsys):
    """A cold `limit --scenario brock --stages 2` overlays each pair of
    curves once per engine run, with no retry."""
    runs = count_calls(fc, "_minimal_crossings")
    overlays = count_calls(fc, "overlay")
    assert cli.run(["limit", "--scenario", "brock", "--stages", "2"]) == 0
    capsys.readouterr()
    assert len(overlays) == len(runs) > 0


# ---------------------------------------------------------------------------
# the integer segment kernel against the Fraction reference


def fraction_seg_cross(a1, a2, b1, b2):
    """The reference kernel: the same predicate in Fraction arithmetic."""
    d1 = fc._sub(a2, a1)
    d2 = fc._sub(b2, b1)
    denom = fc._cross(d1, d2)
    diff = fc._sub(b1, a1)
    if denom == 0:
        if fc._cross(d1, diff) == 0:
            def param(p):
                if d1[0] != 0:
                    return (p[0] - a1[0]) / d1[0]
                return (p[1] - a1[1]) / d1[1]

            lo, hi = sorted([param(b1), param(b2)])
            if hi > 0 and lo < 1:
                raise fc.GenericityError("collinear overlapping segments")
        return None
    t = fc._cross(diff, d2) / denom
    u = fc._cross(diff, d1) / denom
    if 0 < t < 1 and 0 < u < 1:
        point = (a1[0] + t * d1[0], a1[1] + t * d1[1])
        return (t, u, point)
    if 0 <= t <= 1 and 0 <= u <= 1 and (t in (0, 1) or u in (0, 1)):
        if not (t in (0, 1) and u in (0, 1)):
            raise fc.GenericityError("segment touches the interior of another")
    return None


def _over(lo, hi):
    """Fractions k/n with 2 <= n <= 6 and lo < k/n < hi, for integers lo < hi."""
    return st.integers(2, 6).flatmap(
        lambda n: st.integers(lo * n + 1, hi * n - 1).map(lambda k: Fraction(k, n))
    )


RATIONALS = _over(-3, 3)
POINTS = st.tuples(RATIONALS, RATIONALS)


@st.composite
def segment_pairs(draw):
    """Two segments of nonzero length with small-denominator rational
    ends, in general or in a deliberately degenerate position."""
    a1, a2 = draw(POINTS), draw(POINTS)
    assume(a1 != a2)
    d = fc._sub(a2, a1)

    def along(s):  # the point a1 + s * (a2 - a1)
        return fc._add(a1, _scale(d, s))

    inside = _over(0, 1)
    beyond = st.one_of(st.just(Fraction(1)), _over(0, 3).map(lambda s: 1 + s))  # a2 or past it
    kind = draw(st.sampled_from(
        ["general", "crossing", "collinear overlap", "collinear disjoint", "endpoint on interior",
         "shared vertex", "parallel"]
    ))
    if kind == "general":
        b1, b2 = draw(POINTS), draw(POINTS)
    elif kind == "crossing":  # through an interior point of a
        p, v = along(draw(inside)), draw(POINTS)
        b1, b2 = fc._add(p, v), fc._sub(p, _scale(v, draw(inside)))
    elif kind == "collinear overlap":
        b1, b2 = along(draw(inside)), along(draw(RATIONALS))
    elif kind == "collinear disjoint":
        s1, s2 = draw(beyond), draw(beyond)
        if draw(st.booleans()):  # before a1 instead
            s1, s2 = 1 - s1, 1 - s2
        b1, b2 = along(s1), along(s2)
    elif kind == "endpoint on interior":
        b1, b2 = along(draw(inside)), draw(POINTS)
    elif kind == "shared vertex":
        b1, b2 = draw(st.sampled_from([a1, a2])), draw(POINTS)
    else:
        b1 = fc._add(a1, draw(POINTS))
        b2 = fc._add(b1, _scale(d, draw(RATIONALS)))
    assume(b1 != b2)
    a, b = (a1, a2), (b1, b2)
    if draw(st.booleans()):
        b = b[::-1]
    if draw(st.booleans()):
        a, b = b, a
    return a, b


def _outcome(f, *args):
    try:
        return f(*args)
    except fc.GenericityError as exc:
        return str(exc)


def _boxes_meet(a, b):
    return all(
        min(a[0][k], a[1][k]) <= max(b[0][k], b[1][k])
        and min(b[0][k], b[1][k]) <= max(a[0][k], a[1][k])
        for k in (0, 1)
    )


@settings(max_examples=300, deadline=None)
@given(segment_pairs(), st.integers(-1, 1), st.integers(-1, 1))
def test_integer_kernel_agrees_with_fraction_reference(pair, i, j):
    a, b = pair
    lam = (2 * i, j)
    # b is reached as the translate by lam of b - lam, in the int frame
    # of a and b - lam, as the segment scan reaches it
    moved_back = tuple(fc._sub(p, lam) for p in b)
    scale, (ia, ib) = fc._int_frame(a, moved_back)
    ib = [(x + lam[0] * scale, y + lam[1] * scale) for x, y in ib]
    kernel = _outcome(fc.seg_cross, *ia, *ib)
    reference = _outcome(fraction_seg_cross, *a, *b)
    assert kernel == (reference if isinstance(reference, str) else reference is not None)
    # the scan tries the pair at lam exactly when the two boxes meet there
    scale, isegs = fc._int_segments(a, moved_back)
    solved = fc._box_translates(isegs[:1], isegs[1:], scale)
    assert ((lam, 0, 0) in solved) == _boxes_meet(a, b)
    if not _boxes_meet(a, b):
        assert kernel is False


EPS = Fraction(1, 10**6)


@settings(max_examples=300, deadline=None)
@given(segment_pairs())
def test_shifted_kernel_agrees_with_a_concrete_move(pair):
    """`_shifted_cross` decides a pair as the Fraction reference does with
    b moved by (eps, eps^2) for eps = 1/10^6, wherever that move is
    generic, and its parameters at that eps are the reference's."""
    a, b = pair
    reference = _outcome(fraction_seg_cross, *a, *(fc._add(p, (EPS, EPS**2)) for p in b))
    assume(not isinstance(reference, str))
    scale, (ia, ib) = fc._int_frame(a, b)
    hit = fc._shifted_cross(*ia, *ib, scale)
    assert (hit is None) == (reference is None)
    if hit is not None:
        for (p0, p1, p2), want in zip(hit, reference):
            assert p0 + p1 * EPS + p2 * EPS**2 == want


def test_moved_letter_places_are_those_of_a_concrete_move():
    """Each curve of descs(3), moved by (eps, eps^2) for eps = 1/10^6, has
    the same word, and each letter lies at its moved place at that eps."""
    for desc in reference_descs(3):
        c = desc.build()
        moved = fc._grid_crossings(translated(c, (EPS, EPS**2)).points, c.disp)
        places, word = fc._letter_places(c, c)[1]
        assert word == [letter for _, letter in moved]
        assert [(i, t0 + t1 * EPS + t2 * EPS**2) for i, t0, t1, t2 in places] == [
            (i, Fraction(num, a)) for (i, num, a), _ in moved
        ]


# ---------------------------------------------------------------------------
# the per-pair translate solve against the lattice scan it replaced


def scan_lattice_range(c1, c2):
    """Lattice vectors lam with the bounding box of c1 possibly meeting
    that of c2 + lam, with a margin of one step on each side."""

    def bbox(c):
        xs = [p[0] for p in c.points] + [c.points[0][0] + c.disp[0]]
        ys = [p[1] for p in c.points] + [c.points[0][1] + c.disp[1]]
        return (min(xs), min(ys), max(xs), max(ys))

    (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = bbox(c1), bbox(c2)
    return [
        (2 * i, j)
        for i in range(math.floor(Fraction(ax0 - bx1, 2)) - 1, math.ceil(Fraction(ax1 - bx0, 2)) + 2)
        for j in range(math.floor(ay0 - by1) - 1, math.ceil(ay1 - by0) + 2)
    ]


def scan_pairs(isegs1, isegs2, lams, scale):
    """The reference scan: every translate lam, then every segment pair
    whose closed boxes meet, as (lam, i, j, a1, a2, b1, b2) with b moved
    by lam."""
    for lam in lams:
        lx, ly = lam[0] * scale, lam[1] * scale
        for i, (a1, a2, (ax0, ax1, ay0, ay1)) in enumerate(isegs1):
            ax0, ax1, ay0, ay1 = ax0 - lx, ax1 - lx, ay0 - ly, ay1 - ly
            for j, (b1, b2, (bx0, bx1, by0, by1)) in enumerate(isegs2):
                if bx0 > ax1 or ax0 > bx1 or by0 > ay1 or ay0 > by1:
                    continue
                yield lam, i, j, a1, a2, (b1[0] + lx, b1[1] + ly), (b2[0] + lx, b2[1] + ly)


def scan_overlay(c1, c2):
    segs1, segs2 = c1.segments(), c2.segments()
    scale, isegs = fc._int_segments(*segs1, *segs2)
    pairs = scan_pairs(isegs[: len(segs1)], isegs[len(segs1) :], scan_lattice_range(c1, c2), scale)
    out = []
    for _, i, j, *seg in pairs:
        hit = fc._shifted_cross(*seg, scale)
        if hit is not None:
            out.append(fc.Crossing((i, *hit[0]), (j, *hit[1])))
    return out


def scan_validate_embedded(c):
    scale, isegs = fc._int_segments(*c.segments())
    zero = (0, 0)
    lams = [lam for lam in scan_lattice_range(c, c) if lam != zero]
    pairs = itertools.chain(
        scan_pairs(isegs, isegs, lams, scale),
        *(scan_pairs([s], isegs[i + 1 :], [zero], scale) for i, s in enumerate(isegs)),
    )
    if any(fc.seg_cross(*seg) for _, _, _, *seg in pairs):
        raise fc.GenericityError("curve is not embedded")
    return True


def test_overlay_matches_the_lattice_scan_on_every_ordered_pair():
    """The same crossing list, order included, on every ordered pair of
    radius-2 curves, and no error on any."""
    built = [desc.build() for desc in RADIUS_2]
    tried = errors = 0
    for c1, c2 in itertools.product(built, repeat=2):
        got = _outcome(fc.overlay, c1, c2)
        assert got == _outcome(scan_overlay, c1, c2)
        tried += 1
        errors += isinstance(got, str)
    assert (tried, errors) == (1764, 0)


def test_embedding_check_matches_the_lattice_scan():
    """The same outcome and first error on every buildable radius-3 curve
    and each of its nudges."""
    checked = 0
    for desc in reference_descs(3):
        try:
            c = desc.build()
        except fc.GenericityError:
            continue
        for cand in nudges(c):
            assert _outcome(fc.validate_embedded, cand) == _outcome(scan_validate_embedded, cand)
            checked += 1
    assert checked == 2064


def test_embedding_check_work_is_bounded(count_calls):
    """The embedding check of the 42 radius-2 curves makes exactly the
    segment tests of the lattice scan, in the same order."""
    built = [desc.build() for desc in RADIUS_2]
    calls = count_calls(fc, "seg_cross")
    for c in built:
        scan_validate_embedded(c)
    scanned = list(calls)
    calls.clear()
    for c in built:
        fc.validate_embedded(c)
    assert len(calls) == 716
    assert calls == scanned


# vertices on the half-integer grid, so that touches, shared vertices and
# collinear overlaps are common
HALVES = st.tuples(*2 * [st.integers(-4, 4).map(lambda k: Fraction(k, 2))])
VERTICES = st.one_of(HALVES, POINTS)
DISPLACEMENTS = st.tuples(st.integers(-1, 1).map(lambda i: 2 * i), st.integers(-2, 2)).filter(
    lambda d: d != (0, 0)
)


@st.composite
def curve_pairs(draw):
    """Two small rational polygons with nonzero lattice displacements.
    The second is drawn on its own, as a lattice translate of the first
    (its segments overlap the first's), or with a vertex at a rational
    point of an edge of the first or of that edge's lattice translate."""
    c1 = fc.FlatCurve(tuple(draw(st.lists(VERTICES, min_size=1, max_size=4))), draw(DISPLACEMENTS))
    lam = (2 * draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))
    kind = draw(st.sampled_from(["own", "translate", "vertex on an edge"]))
    if kind == "translate":
        return c1, translated(c1, lam)
    pts = draw(st.lists(VERTICES, min_size=1, max_size=4))
    if kind == "vertex on an edge":
        a, b = draw(st.sampled_from(c1.segments()))
        on_edge = fc._add(a, _scale(fc._sub(b, a), draw(_over(0, 1))))
        pts.insert(draw(st.integers(0, len(pts))), fc._add(on_edge, lam))
    return c1, fc.FlatCurve(tuple(pts), draw(DISPLACEMENTS))


@settings(max_examples=300, deadline=None)
@given(curve_pairs())
def test_solved_translates_agree_with_the_lattice_scan(pair):
    c1, c2 = pair
    for x, y in ((c1, c2), (c2, c1)):
        assert _outcome(fc.overlay, x, y) == _outcome(scan_overlay, x, y)
        assert _outcome(fc.validate_embedded, x) == _outcome(scan_validate_embedded, x)


def fraction_slot_curve(p, q):
    """`slot_curve` with each corridor corner summed in Fraction
    arithmetic: an end point, moved by -+ e1 (u, v) along the arc and by
    +- e2 (-v, u) across it."""
    u, v = q[0] - p[0], q[1] - p[1]
    s = abs(u) + abs(v)
    d = (Fraction(u), Fraction(v))
    n = (Fraction(-v), Fraction(u))
    pf = (Fraction(p[0]), Fraction(p[1]))
    qf = (Fraction(q[0]), Fraction(q[1]))
    e1 = Fraction(1, 4 * s)
    e2 = Fraction(1, 5 * s * s + 1)
    corners = (
        fc._add(fc._add(pf, _scale(d, -e1)), _scale(n, e2)),
        fc._add(fc._add(pf, _scale(d, -e1)), _scale(n, -e2)),
        fc._add(fc._add(qf, _scale(d, e1)), _scale(n, -e2)),
        fc._add(fc._add(qf, _scale(d, e1)), _scale(n, e2)),
    )
    curve = fc.FlatCurve(corners, (0, 0))
    curve.canonical()
    if set(fc._enclosed_punctures(corners)) != {tuple(p), tuple(q)}:
        raise fc.GenericityError("corridor swallowed an extra puncture")
    return curve


def test_corridor_corners_match_the_fraction_formula(monkeypatch):
    slots = [desc.data for desc in reference_descs(5) if desc.kind == "slot"]
    assert len(slots) == 108
    assert [fc.slot_curve(p, q) for p, q in slots] == [fraction_slot_curve(p, q) for p, q in slots]
    # a corridor is built once: with its corners refused, both try the
    # same corners one time and raise the refusal
    tried = []

    def refuse(c):
        tried.append(c.points)
        raise fc.GenericityError("refused")

    monkeypatch.setattr(fc.FlatCurve, "canonical", refuse)
    for p, q in slots:
        got = _outcome(fc.slot_curve, p, q)
        assert got == _outcome(fraction_slot_curve, p, q) == "refused"
        assert len(tried) == 2 and tried[0] == tried[1]
        tried.clear()


# ---------------------------------------------------------------------------
# the integer word and winding kernels against the Fraction reference


# each family of grid lines is a linear functional's level sets at the integers
FAMILY_FUNCTIONALS = (
    ("V", lambda pt: pt[0]),
    ("H", lambda pt: pt[1]),
    ("D", lambda pt: pt[1] - pt[0]),
)


def fraction_segment_crossings(p, q):
    """Grid-crossing (t, letter) pairs along the open segment p -> q, in
    order of t, in Fraction arithmetic."""
    d = fc._sub(q, p)
    events = []
    for fam, f in FAMILY_FUNCTIONALS:
        fp, fq = Fraction(f(p)), f(q)
        df = fq - fp
        if df == 0:
            continue
        sign = 1 if df > 0 else -1
        for k in range(math.floor(min(fp, fq)) + 1, math.ceil(max(fp, fq))):
            t = (k - fp) / df
            x = p[0] + t * d[0]
            if x.denominator == 1 and (p[1] + t * d[1]).denominator == 1:
                raise fc.GenericityError("segment passes through a puncture")
            events.append((t, (fam, math.floor(x) % 2, sign)))
    events.sort(key=lambda e: e[0])
    for (t1, _), (t2, _) in zip(events, events[1:]):
        if t1 == t2:
            raise fc.GenericityError("segment crosses two grid lines at one point")
    return events


def fraction_grid_crossings(points, closed_disp=None):
    """The reference `_grid_crossings` in Fraction arithmetic: each letter
    with the segment i and the parameter t at which it meets the grid
    line, as ((i, t), letter)."""
    for p in points:
        if any(Fraction(f(p)).denominator == 1 for _, f in FAMILY_FUNCTIONALS):
            raise fc.GenericityError("vertex lies on a grid line")
    pts = list(points)
    if closed_disp is not None:
        pts = pts + [fc._add(points[0], closed_disp)]
    return [
        ((i, t), letter)
        for i, (p, q) in enumerate(zip(pts, pts[1:]))
        for t, letter in fraction_segment_crossings(p, q)
    ]


def fraction_path_word(points, closed_disp=None):
    """The reference `path_word`: the same word in Fraction arithmetic."""
    return [letter for _, letter in fraction_grid_crossings(points, closed_disp)]


def winding(poly_points, pt):
    """Winding number of the closed polygon around pt, in Fraction arithmetic."""
    wn = 0
    m = len(poly_points)
    for i in range(m):
        a = poly_points[i]
        b = poly_points[(i + 1) % m]
        if a[1] <= pt[1]:
            if b[1] > pt[1] and fc._cross(fc._sub(b, a), fc._sub(pt, a)) > 0:
                wn += 1
        else:
            if b[1] <= pt[1] and fc._cross(fc._sub(b, a), fc._sub(pt, a)) < 0:
                wn -= 1
    return wn


def fraction_enclosed_punctures(poly_points):
    """The reference `_enclosed_punctures`: `winding` at every lattice point
    of the bounding box, in the same order."""
    xs = [p[0] for p in poly_points]
    ys = [p[1] for p in poly_points]
    return [
        (ix, iy)
        for ix in range(math.floor(min(xs)), math.ceil(max(xs)) + 1)
        for iy in range(math.floor(min(ys)), math.ceil(max(ys)) + 1)
        if winding(poly_points, (Fraction(ix), Fraction(iy))) != 0
    ]


def _word_or_error(word, points, disp):
    try:
        return word(points, disp)
    except fc.GenericityError as exc:
        return str(exc)


OFF_GRID = POINTS.filter(lambda p: all(Fraction(f(p)).denominator > 1 for _, f in FAMILY_FUNCTIONALS))


@st.composite
def polygons(draw):
    """A polygon with small-denominator rational vertices and a closing
    displacement (or none), mostly off the grid, with one deliberate
    degeneracy: a vertex on a grid line, or an edge through a puncture,
    where lines of all three families meet."""
    pts = draw(st.lists(OFF_GRID, min_size=1, max_size=5))
    kind = draw(st.sampled_from(["random", "vertex on a grid line", "edge through a puncture"]))
    at = draw(st.integers(0, len(pts)))
    if kind == "vertex on a grid line":
        k = Fraction(draw(st.integers(-3, 3)))
        x, y = draw(POINTS)
        pts.insert(at, draw(st.sampled_from([(k, y), (x, k), (x, x + k)])))
    elif kind == "edge through a puncture":
        c = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
        v = draw(OFF_GRID)
        pts[at:at] = [fc._add(c, v), fc._sub(c, _scale(v, draw(_over(0, 2))))]
    disp = draw(st.one_of(st.none(), st.tuples(st.integers(-2, 2), st.integers(-2, 2))))
    return pts, disp


@settings(max_examples=300, deadline=None)
@given(polygons())
def test_integer_word_agrees_with_fraction_reference(case):
    pts, disp = case
    assert _word_or_error(fc.path_word, pts, disp) == _word_or_error(fraction_path_word, pts, disp)
    # each letter's key (i, num, a) gives the Fraction parameter num / a
    # where segment i meets the grid line, where arcs between crossings
    # are cut
    try:
        keyed = [((i, Fraction(num, a)), letter) for (i, num, a), letter in fc._grid_crossings(pts, disp)]
    except fc.GenericityError as exc:
        keyed = str(exc)
    assert keyed == _word_or_error(fraction_grid_crossings, pts, disp)


@settings(max_examples=150, deadline=None)
@given(st.lists(POINTS, min_size=1, max_size=6), st.integers(-2, 2), st.integers(-2, 2))
def test_integer_winding_agrees_with_fraction_reference(loop, a, b):
    loop = [fc._add(p, (a, b)) for p in loop]
    assert list(fc._enclosed_punctures(loop)) == fraction_enclosed_punctures(loop)


def test_words_and_windings_build_no_fraction(monkeypatch):
    built = [desc.build() for desc in RADIUS_2]
    assert len(built) == 42
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    words = [fc.path_word(c.points, c.disp) for c in built]
    punctures = [list(fc._enclosed_punctures(c.points)) for c in built]
    monkeypatch.undo()
    assert made == []
    for desc, c, word, enclosed in zip(RADIUS_2, built, words, punctures):
        assert word == fraction_path_word(c.points, c.disp)
        assert enclosed == fraction_enclosed_punctures(c.points)
        if desc.kind == "slot":
            assert sorted(enclosed) == sorted(desc.data)


def reference_class(c):
    return fc.canonical_class(fraction_path_word(c.points, c.disp))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RADIUS_2), _over(-1, 1), _over(-1, 1))
def test_kept_nudges_keep_the_class(desc, tx, ty):
    c2 = translated(desc.build(), (tx, ty))
    try:
        target = reference_class(c2)
    except fc.GenericityError:
        assume(False)
    kept = list(nudges(c2))
    assert kept[0] is c2
    for cand in kept[1:]:
        assert reference_class(cand) == target


def test_boundary_classes_invariant_under_swap_and_nudge(monkeypatch):
    # the walks, and every word, read the Fraction reference's crossings
    # in the keyed shape ((i, num, a), letter) of `_grid_crossings`, over
    # the int frame's a = |df| d that the moved curve's places are read by
    read, crossed = [], []
    functionals = dict(FAMILY_FUNCTIONALS)

    def reference_crossings(points, closed_disp=None):
        read.append(points)
        d = fc._int_frame(points)[0]
        ends = list(points) + ([fc._add(points[0], closed_disp)] if closed_disp is not None else [])
        keyed = []
        for (i, t), letter in fraction_grid_crossings(points, closed_disp):
            f = functionals[letter[0]]
            a = abs(f(ends[i + 1]) - f(ends[i])) * d
            keyed.append(((i, int(t * a), int(a)), letter))
        return keyed

    monkeypatch.setattr(fc, "_grid_crossings", reference_crossings)

    def walks(c1, c2):
        # the walk itself, past the class-keyed memo
        before = len(read)
        classes = sorted(fc._walk_classes(c1, c2))
        walked = len(read) > before
        # a walk over crossings cuts its arcs from the reference letters
        if fc.flat_intersection(c1, c2):
            assert walked
            crossed.append((c1, c2))
        return classes

    # the generic overlays of (s0, A1), (s0, A2), (A0, A1), (A0, A2) and
    # (A1, A2) have bigons, which the walks remove first
    pairs = list(itertools.combinations(curves().values(), 2))
    for c1, c2 in pairs:
        nudged = next(itertools.islice(nudges(c2), 1, None))
        here = walks(c1, c2)
        assert walks(c2, c1) == here
        assert walks(c1, nudged) == here
    assert len(pairs) == 36
    assert crossed


def test_walk_memo_returns_a_new_list_and_keeps_no_error(cold_caches, monkeypatch):
    c = curves()
    first = fc.boundary_walk_classes(c["v0"], c["h"])
    first.append(("edited",))
    again = fc.boundary_walk_classes(c["h"], c["v0"])
    assert again is not first and again == first[:-1]
    assert len(fc._WALKS) == 1

    def refuse(c1, c2):
        raise fc.GenericityError("refused")

    with monkeypatch.context() as patch:
        patch.setattr(fc, "_minimal_crossings", refuse)
        with pytest.raises(fc.GenericityError):
            fc.boundary_walk_classes(c["v0"], c["s0"])
    assert len(fc._WALKS) == 1
    assert fc.boundary_walk_classes(c["v0"], c["s0"]) == fc._walk_classes(c["v0"], c["s0"])
    assert len(fc._WALKS) == 2
