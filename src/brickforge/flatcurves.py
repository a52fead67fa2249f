"""Exact polygonal curves on the flat twice-punctured torus.

The model surface is R^2 / L minus the images of Z^2, where L is the
lattice spanned by (2,0) and (0,1).  The integer points all become
punctures (two puncture classes, even and odd x), and the quotient is a
twice-punctured torus.

A curve is a polygonal path with exact rational vertices, closing up
after one period with a lattice displacement.  Three tools drive all the
topology here:

* crossing words with the grid lines x in Z, y in Z, y - x in Z.  These
  lines cut the surface into four ideal triangles, the dual graph is a
  spine, and the reduced cyclic crossing word is a complete
  free-homotopy invariant.  Each letter is kept with its key, the
  segment and parameter where the curve meets the line, so the word of
  an arc between two points of the curve is a slice of the curve's word.
* overlay of two curves, the second moved by the infinitesimal vector
  (eps, eps^2), which puts any two embedded curves in general position
  and keeps each class; a crossing's key (i, t0, t1, t2) is segment i at
  parameter t0 + t1 eps + t2 eps^2.  Bigon removal follows: two
  crossings that are neighbours along both curves bound a bigon exactly
  when the loop through them, an arc of each curve, has a word that
  reduces to nothing.  The crossings left give intersection numbers.
* boundary walks of a regular neighborhood of a union of two curves in
  minimal position, which yield the subsurface boundary that tightness
  checks need.  A walk follows one curve to the next crossing and turns
  onto the other, the way the sign of the two curves' cross product
  there says; its word is the concatenation of its arcs' words.

Points are exact rationals, and the topology is decided in integers.  A
polyline is scaled once by the common denominator of its coordinates
(`_int_frame`); crossing words and winding numbers about the punctures
are then read with integer divisions and cross products.  The segment
scan of an overlay or an embedding check solves each segment pair's
lattice translates from the pair's two bounding boxes, tests only the
translates at which the boxes meet, and builds rational crossing data
only for a hit.  No floats anywhere.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from math import gcd

from .errors import BrickforgeError
from .records import record

Point = tuple[Fraction, Fraction]


class GenericityError(BrickforgeError):
    """A polygonal representative is in degenerate position."""


def _pt(x, y) -> Point:
    return (Fraction(x), Fraction(y))


def _add(a, b) -> Point:
    return (a[0] + b[0], a[1] + b[1])


def _sub(a, b) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _int_frame(*polylines):
    """(scale, int polylines): the lcm of every coordinate denominator of
    the polylines, and each polyline's points times it as int points."""
    scale = math.lcm(*(x.denominator for pts in polylines for p in pts for x in p))
    return scale, [
        [(x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator)) for x, y in pts]
        for pts in polylines
    ]


def seg_cross(a1, a2, b1, b2) -> bool:
    """Whether segments a and b, given by int points, cross at a point
    interior to both.  Collinear overlaps and endpoint touches raise
    GenericityError: the embedding check cannot tell them from a crossing.
    Every decision is an integer sign test.
    """
    d1 = _sub(a2, a1)
    d2 = _sub(b2, b1)
    den = _cross(d1, d2)
    diff = _sub(b1, a1)
    if den == 0:
        if _cross(d1, diff) == 0:
            # positions of b1, b2 along a, as multiples k/n of d1
            c = 0 if d1[0] != 0 else 1
            n, k1, k2 = d1[c], b1[c] - a1[c], b2[c] - a1[c]
            if n < 0:
                n, k1, k2 = -n, -k1, -k2
            if max(k1, k2) > 0 and min(k1, k2) < n:
                raise GenericityError("collinear overlapping segments")
        return False
    tn = _cross(diff, d2)
    un = _cross(diff, d1)
    if den < 0:
        den, tn, un = -den, -tn, -un
    if 0 < tn < den and 0 < un < den:
        return True
    if 0 <= tn <= den and 0 <= un <= den:
        # endpoint contact between otherwise transverse segments: only a
        # genuine degeneracy when the touch is not a shared polyline vertex
        if not (tn in (0, den) and un in (0, den)):
            raise GenericityError("segment touches the interior of another")
    return False


def _shifted_cross(a1, a2, b1, b2, scale: int):
    """The crossing ((t0, t1, t2), (u0, u1, u2)) of segments a and b,
    given by int points (the rational points times `scale`), with b moved
    by (eps, eps^2), or None: parameter t0 + t1 eps + t2 eps^2 on a, and
    likewise on b.  The move adds (scale eps, scale eps^2) to b1 - a1, so
    t and u are integer polynomials in eps over den, compared coefficient
    by coefficient.  Moved b never lies along a, and no end of either lies
    on the other, so no two segments overlap or touch.  Fractions are
    built for a hit only."""
    d1 = _sub(a2, a1)
    d2 = _sub(b2, b1)
    den = _cross(d1, d2)
    if den == 0:
        return None
    diff = _sub(b1, a1)
    s = 1 if den > 0 else -1
    den *= s
    tn = (s * _cross(diff, d2), s * scale * d2[1], -s * scale * d2[0])
    un = (s * _cross(diff, d1), s * scale * d1[1], -s * scale * d1[0])
    if (0, 0, 0) < tn < (den, 0, 0) and (0, 0, 0) < un < (den, 0, 0):
        return tuple(Fraction(x, den) for x in tn), tuple(Fraction(x, den) for x in un)
    return None


# ---------------------------------------------------------------------------
# crossing words


def _inv_letter(letter):
    fam, cls, sign = letter
    return (fam, cls, -sign)


# each family of grid lines is the level sets at the integers of the
# functional cx * x + cy * y
_FAMILIES = (("V", 1, 0), ("H", 0, 1), ("D", -1, 1))
_FORMS = {fam: (cx, cy) for fam, cx, cy in _FAMILIES}


def _grid_crossings(points, closed_disp=None):
    """Crossing letters of a polygonal path, each with its key (i, num, a):
    the letter sits on segment i of the path, at parameter num / a.

    If closed_disp is given, the path closes up from the last vertex to
    points[0] + closed_disp.  In the int frame of scale d, a segment
    crosses a family's lines at the multiples of d strictly between the
    family's values f at its ends, at t = num / |df|.  A crossing's class
    is the parity of floor(x); it lies on a puncture exactly when both of
    its coordinates are integers.  A segment's crossings are ordered by t
    as integers over the lcm of its |df|.
    """
    d, (pts,) = _int_frame(points)
    for x, y in pts:
        if x % d == 0 or y % d == 0 or (y - x) % d == 0:
            raise GenericityError("vertex lies on a grid line")
    if closed_disp is not None:
        pts.append((pts[0][0] + closed_disp[0] * d, pts[0][1] + closed_disp[1] * d))
    letters = []
    for i, ((x, y), (qx, qy)) in enumerate(zip(pts, pts[1:])):
        dx, dy = qx - x, qy - y
        dfs = [cx * dx + cy * dy for _, cx, cy in _FAMILIES]
        lcm = math.lcm(*(abs(df) for df in dfs if df))
        events = []
        for (fam, cx, cy), df in zip(_FAMILIES, dfs):
            if df == 0:
                continue
            fp = cx * x + cy * y
            sign, a = (1, df) if df > 0 else (-1, -df)
            den = d * a
            for k in range(min(fp, fp + df) // d + 1, -(-max(fp, fp + df) // d)):
                num = (k * d - fp) * sign
                xn = x * a + num * dx
                if xn % den == 0 and (y * a + num * dy) % den == 0:
                    raise GenericityError("segment passes through a puncture")
                events.append((num * (lcm // a), num, a, (fam, xn // den % 2, sign)))
        events.sort(key=lambda e: e[0])
        letters.extend(((i, num, a), letter) for _, num, a, letter in events)
    return letters


def path_word(points, closed_disp=None):
    """Crossing word of a polygonal path: the letters of `_grid_crossings`."""
    return [letter for _, letter in _grid_crossings(points, closed_disp)]


def _letter_places(c1, c2):
    """The letters of c1 and of c2 moved by (eps, eps^2), each curve's as
    (places, word): its `_grid_crossings` word, and each letter's place as
    a crossing key.  A letter at (i, num, a) has the place (i, num / a, 0,
    0) on c1.  The move adds cx eps + cy eps^2 to the functional of the
    letter's family, so on c2, in its int frame of scale d, the letter
    moves to parameter (num - sign (cx eps + cy eps^2) d) / a; it keeps
    its order, as lines of two families meet only at punctures."""
    out = []
    for c, d in ((c1, 0), (c2, _int_frame(c2.points)[0])):
        entries = _grid_crossings(c.points, c.disp)
        places = []
        for (i, num, a), (fam, _, sign) in entries:
            # a zero rate stays an int, so no Fraction is built for it
            rates = (Fraction(-sign * f * d, a) if f * d else 0 for f in _FORMS[fam])
            places.append((i, Fraction(num, a), *rates))
        out.append((places, [letter for _, letter in entries]))
    return tuple(out)


def _arc_word(letters, key_from, key_to, direction):
    """The letters of a closed curve, given as (places, word) by
    `_letter_places`, strictly between two crossings of it, given by their
    keys, walking forward (direction +1) or backward (-1, the letters
    inverted and in reverse order).  Equal keys give the whole curve."""
    if direction == -1:
        return [_inv_letter(l) for l in reversed(_arc_word(letters, key_to, key_from, 1))]
    places, word = letters
    i = bisect.bisect(places, key_from)
    j = bisect.bisect(places, key_to)
    return word[i:j] if key_from < key_to else word[i:] + word[:j]


def reduce_cyclic(word):
    out = []
    for letter in word:
        if out and out[-1] == _inv_letter(letter):
            out.pop()
        else:
            out.append(letter)
    while len(out) >= 2 and out[0] == _inv_letter(out[-1]):
        out = out[1:-1]
    return out


def canonical_class(word):
    """Canonical form of a cyclic word up to rotation and inversion."""
    w = reduce_cyclic(word)
    if not w:
        return ()
    candidates = []
    rev = [_inv_letter(l) for l in reversed(w)]
    for base in (w, rev):
        for i in range(len(base)):
            candidates.append(tuple(base[i:] + base[:i]))
    return min(candidates)


_COORD_KEYS = (("V", 0), ("V", 1), ("H", 0), ("H", 1), ("D", 0), ("D", 1))


def normal_coords_of(word):
    """Minimal crossing counts with the six triangulation edge classes."""
    w = reduce_cyclic(word)
    counts = {k: 0 for k in _COORD_KEYS}
    for fam, cls, _ in w:
        counts[(fam, cls)] += 1
    return tuple(counts[k] for k in _COORD_KEYS)


def _puncture_loop_word(center):
    cx, cy = center
    r = Fraction(1, 5)
    s = Fraction(1, 9)
    pts = [
        (cx + r, cy + s),
        (cx + s, cy + r),
        (cx - s, cy + r),
        (cx - r, cy + s),
        (cx - r, cy - s),
        (cx - s, cy - r),
        (cx + s, cy - r),
        (cx + r, cy - s),
    ]
    return canonical_class(path_word([_pt(*p) for p in pts], (0, 0)))


PERIPHERAL_CLASSES = {_puncture_loop_word((0, 0)), _puncture_loop_word((1, 0))}


# ---------------------------------------------------------------------------
# curves


@record
class FlatCurve:
    """A polygonal closed curve: one period of vertices plus the lattice
    displacement picked up when the period closes."""

    points: tuple
    disp: tuple

    def __post_init__(self):
        if self.disp[0] % 2 != 0:
            raise ValueError("displacement must lie in the lattice")

    def segments(self):
        pts = list(self.points) + [_add(self.points[0], self.disp)]
        return list(zip(pts, pts[1:]))

    def word(self):
        return path_word(self.points, self.disp)

    def canonical(self):
        # kept outside the fields: equality, hash and repr see points and disp
        if "_canonical" not in self.__dict__:
            object.__setattr__(self, "_canonical", canonical_class(self.word()))
        return self._canonical

    def normal_coords(self):
        if "_coords" not in self.__dict__:
            object.__setattr__(self, "_coords", normal_coords_of(self.canonical()))
        return self._coords


def same_class(c1: FlatCurve, c2: FlatCurve) -> bool:
    return c1.canonical() == c2.canonical()


def _int_segments(*segs):
    """(scale, int segments): the `_int_frame` of the segments, each as
    (p, q, box) with the closed box (x_lo, x_hi, y_lo, y_hi) around it."""
    scale, isegs = _int_frame(*segs)
    return scale, [
        (p, q, (min(p[0], q[0]), max(p[0], q[0]), min(p[1], q[1]), max(p[1], q[1])))
        for p, q in isegs
    ]


def _box_translates(isegs1, isegs2, scale: int):
    """Every (lam, i, j) such that the closed box of segment i of isegs1
    meets that of segment j of isegs2 moved by the lattice vector lam, in
    order of lam, i, j.

    A crossing, a touch and a collinear overlap each need a common point,
    and so does a crossing of the two segments moved apart by an
    infinitesimal, so neither `seg_cross` nor `_shifted_cross` finds
    anything at any other triple.  The translates of a pair are solved from
    its boxes: lam = (2m, n) with 2m * scale in [ax0 - bx1, ax1 - bx0] and
    n * scale in [ay0 - by1, ay1 - by0].
    """
    step = 2 * scale
    out = [
        ((2 * m, n), i, j)
        for i, (_, _, (ax0, ax1, ay0, ay1)) in enumerate(isegs1)
        for j, (_, _, (bx0, bx1, by0, by1)) in enumerate(isegs2)
        for m in range(-((bx1 - ax0) // step), (ax1 - bx0) // step + 1)
        for n in range(-((by1 - ay0) // scale), (ay1 - by0) // scale + 1)
    ]
    out.sort()
    return out


def validate_embedded(c: FlatCurve):
    """Check that the curve is embedded on the torus."""
    scale, isegs = _int_segments(*c.segments())
    zero = (0, 0)
    # the untranslated pairs last, each pair of distinct segments once
    triples = sorted(
        (t for t in _box_translates(isegs, isegs, scale) if t[0] != zero or t[1] < t[2]),
        key=lambda t: t[0] == zero,
    )
    for lam, i, j in triples:
        a1, a2, _ = isegs[i]
        b1, b2, _ = isegs[j]
        lx, ly = lam[0] * scale, lam[1] * scale
        if seg_cross(a1, a2, (b1[0] + lx, b1[1] + ly), (b2[0] + lx, b2[1] + ly)):
            raise GenericityError("curve is not embedded")
    return True


# ---------------------------------------------------------------------------
# constructors


def line_curve(a: int, b: int, band: int = 0) -> FlatCurve:
    """Straight closed geodesic in direction (a, b).

    Parallel geodesics fall into puncture-free bands; `band` selects one.
    Directions with even a admit two bands, odd a only one.
    """
    if gcd(abs(a), abs(b)) != 1:
        raise ValueError("direction must be primitive")
    k = 1 if a % 2 == 0 else 2
    disp = (k * a, k * b)
    # one anchor per direction and band, with the transversal constant
    # inside the band; the salt only fixes which polygon represents the
    # class, since overlays are generic by symbolic perturbation and no
    # alignment between curves needs avoiding
    salt = (3 * a + 5 * b + 7 * band) % 11
    anchor = Fraction(3, 7) + Fraction(salt, 113) + Fraction(3, 97)
    c = Fraction(band) + Fraction(1, 2) + Fraction(3, 101)
    if a != 0:
        x0 = anchor
        y0 = (b * x0 - c) / a
    else:
        x0 = c / b if b > 0 else -c / b
        y0 = anchor
    curve = FlatCurve(((x0, y0),), disp)
    curve.canonical()  # raises GenericityError on a non-generic anchor
    return curve


def slot_curve(p, q) -> FlatCurve:
    """Boundary of a corridor around the straight arc between punctures p
    and q (integer points of opposite x-parity, primitive difference)."""
    u, v = q[0] - p[0], q[1] - p[1]
    if u % 2 == 0:
        raise ValueError("endpoints must lie in different puncture classes")
    if gcd(abs(u), abs(v)) != 1:
        raise ValueError("arc direction must be primitive")
    s = abs(u) + abs(v)
    # the corners p - d/a + n/b, p - d/a - n/b, q + d/a - n/b and q + d/a +
    # n/b for d = (u, v) along the arc and n = (-v, u) across it, each over
    # the one denominator a * b; n is not unit length, so the half-width
    # 1/b must shrink like 1/s^2 to keep neighboring lattice points outside
    a = 4 * s
    b = 5 * s * s + 1
    ab = a * b
    corners = tuple(
        (Fraction(x * ab + sd * u * b - sn * v * a, ab), Fraction(y * ab + sd * v * b + sn * u * a, ab))
        for (x, y), sd, sn in ((p, -1, 1), (p, -1, -1), (q, 1, -1), (q, 1, 1))
    )
    curve = FlatCurve(corners, (0, 0))
    curve.canonical()  # raises GenericityError on a non-generic corridor
    if set(_enclosed_punctures(corners)) != {tuple(p), tuple(q)}:
        raise GenericityError("corridor swallowed an extra puncture")
    return curve


def _enclosed_punctures(poly_points):
    """Lattice points (punctures) about which the closed polygon winds,
    scanned over its bounding box.  Each winding number is counted in the
    polygon's int frame, by the signs of integer cross products."""
    d, (pts,) = _int_frame(poly_points)
    edges = list(zip(pts, pts[1:] + pts[:1]))
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    for ix in range(min(xs) // d, -(-max(xs) // d) + 1):
        px = ix * d
        for iy in range(min(ys) // d, -(-max(ys) // d) + 1):
            py = iy * d
            wn = 0
            for (ax, ay), (bx, by) in edges:
                if ay <= py:
                    if by > py and (bx - ax) * (py - ay) > (by - ay) * (px - ax):
                        wn += 1
                elif by <= py and (bx - ax) * (py - ay) < (by - ay) * (px - ax):
                    wn -= 1
            if wn:
                yield (ix, iy)


# ---------------------------------------------------------------------------
# overlay and bigon removal


@record
class Crossing:
    key1: tuple  # (segment, t0, t1, t2) on curve 1
    key2: tuple  # (segment, t0, t1, t2) on curve 2, moved by (eps, eps^2)

    def key(self, side: int):
        """The crossing's key on curve 1 (side 0) or curve 2 (side 1)."""
        return self.key2 if side else self.key1


def overlay(c1: FlatCurve, c2: FlatCurve):
    """All torus crossings of c1 with c2 moved by (eps, eps^2), in order of
    lattice translate and segment pair, keyed by `_shifted_cross`.  None
    lies on a grid line: on one of c1 it would need a segment of c2 of
    length zero, and on one of moved c2 a segment of c1 along that line,
    whose vertices are off the grid.  So every arc between two crossings
    has well-defined crossing letters."""
    segs1, segs2 = c1.segments(), c2.segments()
    scale, isegs = _int_segments(*segs1, *segs2)
    isegs1, isegs2 = isegs[: len(segs1)], isegs[len(segs1) :]
    out = []
    for lam, i, j in _box_translates(isegs1, isegs2, scale):
        a1, a2, _ = isegs1[i]
        b1, b2, _ = isegs2[j]
        lx, ly = lam[0] * scale, lam[1] * scale
        hit = _shifted_cross(a1, a2, (b1[0] + lx, b1[1] + ly), (b2[0] + lx, b2[1] + ly), scale)
        if hit is not None:
            out.append(Crossing((i, *hit[0]), (j, *hit[1])))
    return out


def _find_bigon(crossings, live, letters):
    """Two live crossings that bound a bigon, or None: neighbours along
    both curves whose loop, the arc of curve 1 from one to the other and
    the arc of curve 2 back, has a crossing word that reduces to nothing.
    `letters` holds the two curves' `_letter_places`."""
    if len(live) < 2:
        return None
    order1 = sorted(live, key=lambda k: crossings[k].key1)
    order2 = sorted(live, key=lambda k: crossings[k].key2)
    for idx, ka in enumerate(order1):
        kb = order1[(idx + 1) % len(order1)]
        x = crossings[ka]
        y = crossings[kb]
        at2 = order2.index(ka)
        # adjacency along curve 2, in either direction
        for direction in (1, -1):
            if order2[(at2 + direction) % len(order2)] != kb:
                continue
            loop = _arc_word(letters[0], x.key1, y.key1, 1) + _arc_word(
                letters[1], y.key2, x.key2, -direction
            )
            if not reduce_cyclic(loop):
                return (ka, kb)
    return None


def _minimal_crossings(c1: FlatCurve, c2: FlatCurve):
    """(crossings, letters): the crossings of `overlay(c1, c2)` that are
    left, in overlay order, once every bigon is removed.  The arcs between
    them are homotopic, rel endpoints, to those of minimal position.
    `letters` holds the two curves' `_letter_places` that the bigon search
    read, or None when the overlay had fewer than two crossings and the
    search read none."""
    crossings = overlay(c1, c2)
    live = set(range(len(crossings)))
    letters = None
    if len(crossings) >= 2:
        letters = _letter_places(c1, c2)
        while (pair := _find_bigon(crossings, live, letters)) is not None:
            live.difference_update(pair)
    out = [crossings[k] for k in sorted(live)]
    return out, letters


# (class, class) in sorted order -> intersection number; errors are not kept
_INTERSECTIONS: dict = {}


def flat_intersection(c1: FlatCurve, c2: FlatCurve):
    """Geometric intersection number of two embedded curves.  It is a class
    invariant, so the engine runs once per unordered pair of classes."""
    a, b = c1.canonical(), c2.canonical()
    if a == b:
        return 0
    key = (a, b) if a <= b else (b, a)
    if key not in _INTERSECTIONS:
        _INTERSECTIONS[key] = len(_minimal_crossings(c1, c2)[0])
    return _INTERSECTIONS[key]


# ---------------------------------------------------------------------------
# neighborhood boundary walks


# (class, class) in sorted order -> sorted walk classes; errors are not kept
_WALKS: dict = {}


def boundary_walk_classes(c1: FlatCurve, c2: FlatCurve):
    """Canonical classes of the boundary walks of a regular neighborhood
    of c1 union c2, the curves taken in minimal position, in sorted order.
    They are a class invariant, so the walks run once per unordered pair
    of classes; each call returns a new list.
    """
    a, b = c1.canonical(), c2.canonical()
    key = (a, b) if a <= b else (b, a)
    if key not in _WALKS:
        _WALKS[key] = tuple(_walk_classes(c1, c2))
    return list(_WALKS[key])


def _walk_classes(c1: FlatCurve, c2: FlatCurve):
    """The walks behind `boundary_walk_classes`, past its memo.

    There is one class per complementary face walk of the union.  The
    faces are walked over the crossings that `_minimal_crossings` leaves,
    along the arcs of c1 and of c2 moved by (eps, eps^2) between them.  A
    walk's state is (crossing, curve, direction): it follows that curve to
    the next crossing, where it turns onto the other curve, the way the
    neighborhood's boundary does.  Its word is the concatenation of the arcs' letters, cut from
    the curves' crossing letters that the bigon search read.  When the
    curves are disjoint the neighborhood is just two annuli and the
    classes are those of the curves themselves.
    """
    crossings, letters = _minimal_crossings(c1, c2)
    if not crossings:
        return sorted([c1.canonical(), c2.canonical()])
    n = len(crossings)
    if letters is None:
        letters = _letter_places(c1, c2)
    orders = [sorted(range(n), key=lambda k: crossings[k].key(side)) for side in (0, 1)]
    places = [{k: pos for pos, k in enumerate(order)} for order in orders]
    segs = [c1.segments(), c2.segments()]

    def tangent(side, k):
        a, b = segs[side][crossings[k].key(side)[0]]
        return _sub(b, a)

    # a walk leaves crossing k by the next of its four directions
    # counterclockwise after the way back: one that reaches k
    # along curve 1 in direction d leaves along curve 2 in direction
    # -d * turn[k], and one that reaches it along curve 2 leaves along
    # curve 1 in direction d * turn[k]
    turn = [1 if _cross(tangent(0, k), tangent(1, k)) > 0 else -1 for k in range(n)]
    seen = set()
    classes = []
    for state in ((k, side, d) for k in range(n) for side in (0, 1) for d in (1, -1)):
        if state in seen:
            continue
        # each state has one successor and one predecessor, so the walk
        # from an unseen state closes at that state
        word = []
        while state not in seen:
            seen.add(state)
            k, side, d = state
            nxt = orders[side][(places[side][k] + d) % n]
            word += _arc_word(letters[side], crossings[k].key(side), crossings[nxt].key(side), d)
            state = (nxt, 1 - side, d * turn[nxt] * (1 if side else -1))
        classes.append(canonical_class(word))
    return sorted(classes)
