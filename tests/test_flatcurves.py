import functools
import hashlib
import itertools
import math
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

    def test_every_buildable_curve_of_radius_4_is_embedded(self):
        built = 0
        for desc in charts.AMBIENT.descs(4):
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
        # the engine itself: the memo would answer the swapped pair
        cs = curves()
        for n1, n2 in itertools.combinations(cs, 2):
            assert fc._minimal_crossing_count(cs[n1], cs[n2]) == fc._minimal_crossing_count(
                cs[n2], cs[n1]
            )

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
            raise fc.GenericityError("could not reach generic position by nudging")

        c1, c2 = fc.line_curve(0, 1, 0), fc.line_curve(1, 0, 0)
        monkeypatch.setattr(fc, "generic_overlay_pair", stuck)
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
        n = fc._minimal_crossing_count(c1, c2)
        assert fc._minimal_crossing_count(c2, c1) == n
        assert fc._minimal_crossing_count(c1, c2.translated((2 * a, b))) == n
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
        n = fc._minimal_crossing_count(c1, c2)
        assert fc._minimal_crossing_count(reflected(c1), reflected(c2)) == n


@functools.lru_cache(maxsize=None)
def representatives_by_class():
    """The curves of AMBIENT.descs(3), grouped by canonical class (two
    representatives for each of the 43 classes)."""
    charts.AMBIENT.ensure_enumerated(3)
    by_class = {}
    for desc in charts.AMBIENT.descs(3):
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
            for x, y in ((r1, r2), (r2, r1), (r1, r2.translated(lam)), (r1.translated(lam), r2)):
                answers.add(fc._minimal_crossing_count(x, y))
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
    start = fc._add(fc._point_on(c.segments(), k1), (2 * a, b))
    fwd = fc.arc_points(c, k1, k2, start, 1)
    assert fc.arc_points(c, k2, k1, fwd[-1], -1) == fwd[::-1]


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
        return fc._add(a1, fc._scale(d, s))

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
        b1, b2 = fc._add(p, v), fc._sub(p, fc._scale(v, draw(inside)))
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
        b2 = fc._add(b1, fc._scale(d, draw(RATIONALS)))
    assume(b1 != b2)
    a, b = (a1, a2), (b1, b2)
    if draw(st.booleans()):
        b = b[::-1]
    if draw(st.booleans()):
        a, b = b, a
    return a, b


def _hits_or_error(hits):
    try:
        return list(hits())
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
    # b is reached as the translate by lam of b - lam
    moved_back = [tuple(fc._sub(p, lam) for p in b)]
    kernel = _hits_or_error(
        lambda: (hit for _, _, _, hit in fc._segment_hits([a], moved_back, [lam]))
    )
    reference = _hits_or_error(lambda: filter(None, [fraction_seg_cross(*a, *b)]))
    assert kernel == reference
    if not _boxes_meet(a, b):
        assert kernel == []


# ---------------------------------------------------------------------------
# the integer word and winding kernels against the Fraction reference


# each family of grid lines is a linear functional's level sets at the integers
FAMILY_FUNCTIONALS = (
    ("V", lambda pt: pt[0]),
    ("H", lambda pt: pt[1]),
    ("D", lambda pt: pt[1] - pt[0]),
)


def fraction_segment_word(p, q):
    """Grid-crossing letters along the open segment p -> q, in order, in
    Fraction arithmetic."""
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
    return [letter for _, letter in events]


def fraction_path_word(points, closed_disp=None):
    """The reference `path_word`: the same word in Fraction arithmetic."""
    for p in points:
        if any(Fraction(f(p)).denominator == 1 for _, f in FAMILY_FUNCTIONALS):
            raise fc.GenericityError("vertex lies on a grid line")
    pts = list(points)
    if closed_disp is not None:
        pts = pts + [fc._add(points[0], closed_disp)]
    word = []
    for p, q in zip(pts, pts[1:]):
        word.extend(fraction_segment_word(p, q))
    return word


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
        pts[at:at] = [fc._add(c, v), fc._sub(c, fc._scale(v, draw(_over(0, 2))))]
    disp = draw(st.one_of(st.none(), st.tuples(st.integers(-2, 2), st.integers(-2, 2))))
    return pts, disp


@settings(max_examples=300, deadline=None)
@given(polygons())
def test_integer_word_agrees_with_fraction_reference(case):
    pts, disp = case
    assert _word_or_error(fc.path_word, pts, disp) == _word_or_error(fraction_path_word, pts, disp)


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
    c2 = desc.build().translated((tx, ty))
    try:
        target = reference_class(c2)
    except fc.GenericityError:
        assume(False)
    kept = list(fc._nudges(c2))
    assert kept[0] is c2
    for cand in kept[1:]:
        assert reference_class(cand) == target


def test_boundary_classes_invariant_under_swap_and_nudge(monkeypatch):
    monkeypatch.setattr(fc, "path_word", fraction_path_word)

    def walks(c1, c2):
        got = _walks_or_error(c1, c2)
        return got if isinstance(got, str) else sorted(got)

    built = 0
    for c1, c2 in itertools.combinations(curves().values(), 2):
        nudged = next(itertools.islice(fc._nudges(c2), 1, None))
        here = walks(c1, c2)
        assert walks(c2, c1) == here
        assert walks(c1, nudged) == here
        built += not isinstance(here, str)
    assert built == 31
