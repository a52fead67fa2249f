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
  free-homotopy invariant.
* overlay of two curves with exact crossing points, followed by
  combinatorial bigon removal, which yields geometric intersection
  numbers.
* boundary walks of a regular neighborhood of a union of two curves,
  which yield the subsurface boundary that tightness checks need.

Points are exact rationals, and the topology is decided in integers.  A
polyline is scaled once by the common denominator of its coordinates
(`_int_frame`); crossing words and winding numbers about the punctures
are then read with integer divisions and cross products, and the segment
scan of an overlay skips the segment pairs whose bounding boxes do not
meet and builds rational crossing data only for a hit.  No floats
anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import BrickforgeError

Point = tuple[Fraction, Fraction]


class GenericityError(BrickforgeError):
    """A polygonal representative is in degenerate position."""


def _pt(x, y) -> Point:
    return (Fraction(x), Fraction(y))


def _add(a, b) -> Point:
    return (a[0] + b[0], a[1] + b[1])


def _sub(a, b) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def _scale(v, s):
    return (v[0] * s, v[1] * s)


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _on_grid(p: Point) -> bool:
    return p[0].denominator == 1 or p[1].denominator == 1 or (p[1] - p[0]).denominator == 1


def _int_frame(*polylines):
    """(scale, int polylines): the lcm of every coordinate denominator of
    the polylines, and each polyline's points times it as int points."""
    scale = math.lcm(*(x.denominator for pts in polylines for p in pts for x in p))
    return scale, [
        [(x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator)) for x, y in pts]
        for pts in polylines
    ]


def seg_cross(a1, a2, b1, b2, scale: int):
    """Interior transverse crossing of segments a and b, given by int
    points: the rational points times the common denominator `scale`.

    Returns (t, u, point) with t, u strictly in (0,1) and the rational
    crossing point, or None.  Collinear overlaps and endpoint touches raise
    GenericityError so the caller knows the representatives need a nudge.
    Every decision is an integer sign test; Fractions are built for a hit.
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
        return None
    tn = _cross(diff, d2)
    un = _cross(diff, d1)
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
            raise GenericityError("segment touches the interior of another")
    return None


# ---------------------------------------------------------------------------
# crossing words


def _inv_letter(letter):
    fam, cls, sign = letter
    return (fam, cls, -sign)


# each family of grid lines is the level sets at the integers of the
# functional cx * x + cy * y
_FAMILIES = (("V", 1, 0), ("H", 0, 1), ("D", -1, 1))


def path_word(points, closed_disp=None):
    """Crossing word of a polygonal path.

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
    word = []
    for (x, y), (qx, qy) in zip(pts, pts[1:]):
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
                events.append((num * (lcm // a), (fam, xn // den % 2, sign)))
        events.sort(key=lambda e: e[0])
        for (t1, _), (t2, _) in zip(events, events[1:]):
            if t1 == t2:
                raise GenericityError("segment crosses two grid lines at one point")
        word.extend(letter for _, letter in events)
    return word


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


def word_displacement(word):
    dx = sum(l[2] for l in word if l[0] == "V")
    dy = sum(l[2] for l in word if l[0] == "H")
    return (dx, dy)


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


@dataclass(frozen=True)
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

    def bbox(self):
        xs = [p[0] for p in self.points] + [self.points[0][0] + self.disp[0]]
        ys = [p[1] for p in self.points] + [self.points[0][1] + self.disp[1]]
        return (min(xs), min(ys), max(xs), max(ys))

    def word(self):
        return path_word(self.points, self.disp)

    def canonical(self):
        # kept outside the fields: equality, hash and repr see points and disp
        if "_canonical" not in self.__dict__:
            object.__setattr__(self, "_canonical", canonical_class(self.word()))
        return self._canonical

    def normal_coords(self):
        return normal_coords_of(self.canonical())

    def translated(self, lam):
        return FlatCurve(tuple(_add(p, lam) for p in self.points), self.disp)


def _point_on(segs, key):
    """The point at parameter t of segment i, for key (i, t)."""
    i, t = key
    a, b = segs[i]
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def same_class(c1: FlatCurve, c2: FlatCurve) -> bool:
    return c1.canonical() == c2.canonical()


def _lattice_range(bb1, bb2):
    """Lattice vectors lam with bbox1 possibly meeting bbox2 + lam."""
    ax0, ay0, ax1, ay1 = bb1
    bx0, by0, bx1, by1 = bb2
    out = []
    imin = math.floor(Fraction(ax0 - bx1, 2)) - 1
    imax = math.ceil(Fraction(ax1 - bx0, 2)) + 1
    jmin = math.floor(ay0 - by1) - 1
    jmax = math.ceil(ay1 - by0) + 1
    for i in range(imin, imax + 1):
        for j in range(jmin, jmax + 1):
            out.append((2 * i, j))
    return out


def _int_segments(*segs):
    """(scale, int segments): the `_int_frame` of the segments, each as
    (p, q, box) with the closed box (x_lo, x_hi, y_lo, y_hi) around it."""
    scale, isegs = _int_frame(*segs)
    return scale, [
        (p, q, (min(p[0], q[0]), max(p[0], q[0]), min(p[1], q[1]), max(p[1], q[1])))
        for p, q in isegs
    ]


def _int_hits(isegs1, isegs2, lams, scale: int):
    """`_segment_hits` on segments already scaled by `_int_segments`.

    A pair whose closed boxes do not meet is skipped: a crossing, a touch
    and a collinear overlap each need a common point.
    """
    for lam in lams:
        lx, ly = lam[0] * scale, lam[1] * scale
        for i, (a1, a2, (ax0, ax1, ay0, ay1)) in enumerate(isegs1):
            # a's box moved by -lam, against the unmoved boxes of segs2
            ax0, ax1, ay0, ay1 = ax0 - lx, ax1 - lx, ay0 - ly, ay1 - ly
            for j, (b1, b2, (bx0, bx1, by0, by1)) in enumerate(isegs2):
                if bx0 > ax1 or ax0 > bx1 or by0 > ay1 or ay0 > by1:
                    continue
                hit = seg_cross(a1, a2, (b1[0] + lx, b1[1] + ly), (b2[0] + lx, b2[1] + ly), scale)
                if hit is not None:
                    yield lam, i, j, hit


def _segment_hits(segs1, segs2, lams):
    """Transverse crossings of the segments segs1 with the translates
    segs2 + lam, as (lam, i, j, (t, u, point)) in order of lam, i, j."""
    scale, isegs = _int_segments(*segs1, *segs2)
    yield from _int_hits(isegs[: len(segs1)], isegs[len(segs1) :], lams, scale)


def validate_embedded(c: FlatCurve):
    """Check that the curve is embedded on the torus."""
    segs = c.segments()
    scale, isegs = _int_segments(*segs)
    zero = (0, 0)
    lams = [lam for lam in _lattice_range(c.bbox(), c.bbox()) if lam != zero]
    hits = itertools.chain(
        _int_hits(isegs, isegs, lams, scale),
        # untranslated, each pair of distinct segments once
        *(_int_hits([s], isegs[i + 1 :], [zero], scale) for i, s in enumerate(isegs)),
    )
    if next(hits, None) is not None:
        raise GenericityError("curve is not embedded")
    return True


# ---------------------------------------------------------------------------
# constructors


def line_curve(a: int, b: int, band: int = 0, anchor=Fraction(3, 7)) -> FlatCurve:
    """Straight closed geodesic in direction (a, b).

    Parallel geodesics fall into puncture-free bands; `band` selects one.
    Directions with even a admit two bands, odd a only one.
    """
    if gcd(abs(a), abs(b)) != 1:
        raise ValueError("direction must be primitive")
    k = 1 if a % 2 == 0 else 2
    disp = (k * a, k * b)
    # deterministic per-direction jitter so distinct fixture curves do not
    # share rational alignments
    salt = (3 * a + 5 * b + 7 * band) % 11
    anchor = anchor + Fraction(salt, 113)
    for num in (3, 4, 5, 9, 11, 13, 17, 19, 23):
        # keep the transversal constant inside the band but off every
        # rational alignment that the other fixture curves use
        c = Fraction(band) + Fraction(1, 2) + Fraction(num, 101)
        if a != 0:
            x0 = anchor + Fraction(num, 97)
            y0 = (b * x0 - c) / a
        else:
            x0 = c / b if b > 0 else -c / b
            y0 = anchor + Fraction(num, 97)
        curve = FlatCurve(((x0, y0),), disp)
        try:
            curve.canonical()
        except GenericityError:
            continue
        return curve
    raise GenericityError("could not find a generic anchor")


def slot_curve(p, q) -> FlatCurve:
    """Boundary of a corridor around the straight arc between punctures p
    and q (integer points of opposite x-parity, primitive difference)."""
    u, v = q[0] - p[0], q[1] - p[1]
    if u % 2 == 0:
        raise ValueError("endpoints must lie in different puncture classes")
    if gcd(abs(u), abs(v)) != 1:
        raise ValueError("arc direction must be primitive")
    s = abs(u) + abs(v)
    d = (Fraction(u), Fraction(v))
    n = (Fraction(-v), Fraction(u))
    pf = (Fraction(p[0]), Fraction(p[1]))
    qf = (Fraction(q[0]), Fraction(q[1]))
    for e1_den, e2_den in ((4, 5), (4, 7), (5, 9), (7, 11), (8, 13)):
        e1 = Fraction(1, e1_den * s)
        # the normal direction is not unit length, so the half-width must
        # shrink like 1/s^2 to keep neighboring lattice points outside
        e2 = Fraction(1, e2_den * s * s + 1)
        corners = (
            _add(_add(pf, _scale(d, -e1)), _scale(n, e2)),
            _add(_add(pf, _scale(d, -e1)), _scale(n, -e2)),
            _add(_add(qf, _scale(d, e1)), _scale(n, -e2)),
            _add(_add(qf, _scale(d, e1)), _scale(n, e2)),
        )
        curve = FlatCurve(corners, (0, 0))
        try:
            curve.canonical()
        except GenericityError:
            continue
        if set(_enclosed_punctures(corners)) != {tuple(p), tuple(q)}:
            raise GenericityError("corridor swallowed an extra puncture")
        return curve
    raise GenericityError("could not build a generic corridor")


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
# overlay, arcs, bigon removal


@dataclass(frozen=True)
class Crossing:
    key1: tuple  # (segment index, parameter) on curve 1
    key2: tuple  # (segment index, parameter) on curve 2
    point: Point  # location in curve 1's frame

    def key(self, side: int):
        """The crossing's key on curve 1 (side 0) or curve 2 (side 1)."""
        return self.key2 if side else self.key1


def overlay(c1: FlatCurve, c2: FlatCurve):
    """All torus crossings between two embedded curves, with exact data."""
    lams = _lattice_range(c1.bbox(), c2.bbox())
    out = []
    for _, i, j, (t, u, point) in _segment_hits(c1.segments(), c2.segments(), lams):
        if _on_grid(point):
            raise GenericityError("crossing point on a grid line")
        out.append(Crossing((i, t), (j, u), point))
    return out


def arc_points(curve: FlatCurve, key_from, key_to, start_point, direction=1):
    """Polyline along the curve from key_from to key_to, lifted so the arc
    begins at start_point.  direction=+1 walks forward, -1 backward."""
    segs = curve.segments()
    n = len(segs)
    i, t = key_from
    j, u = key_to
    off = _sub(start_point, _point_on(segs, key_from))
    end = 1 if direction == 1 else 0  # the segment end a step passes
    wrap = _scale(curve.disp, direction)
    pts = [start_point]
    cur = i
    steps = 0
    while not (cur == j and (steps > 0 or (u - t) * direction > 0)):
        pts.append(_add(segs[cur][end], off))
        cur += direction
        if not 0 <= cur < n:
            cur %= n
            off = _add(off, wrap)
        steps += 1
        if steps > 2 * n + 2:
            raise RuntimeError("arc walk failed to terminate")
    pts.append(_add(_point_on(segs, key_to), off))
    return pts


def _loop_is_trivial(loop_pts):
    """True when the closed polygonal loop is null-homotopic on the
    punctured torus: zero displacement (checked by the caller) and zero
    winding about every puncture."""
    return next(_enclosed_punctures(loop_pts), None) is None


def _find_bigon(c1, c2, crossings, live):
    """Search for a removable bigon pair among live crossings."""
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
            arc1 = arc_points(c1, x.key1, y.key1, x.point, 1)
            start2 = x.point  # lift of x on the translated copy of c2
            arc2 = arc_points(c2, x.key2, y.key2, start2, direction)
            end1 = arc1[-1]
            end2 = arc2[-1]
            mu = _sub(end2, end1)
            if mu != (0, 0):
                continue
            loop = arc1[:-1] + list(reversed(arc2))[:-1]
            if _loop_is_trivial(loop):
                return (ka, kb)
    return None


def _nudges(c2: FlatCurve):
    """c2, then its tiny translates whose crossing word certifies that
    they are in the class of c2.  A translate whose word changes (it swept
    a puncture) or cannot be read is skipped."""
    yield c2
    target = c2.canonical()
    for k in range(23):
        tau = (Fraction(1, 911 + 37 * k) / 7, Fraction(1, 1013 + 41 * k) / 7)
        cand = c2.translated(tau)
        try:
            same = cand.canonical() == target
        except GenericityError:
            continue
        if same:
            yield cand


def generic_overlay_pair(c1: FlatCurve, c2: FlatCurve):
    """Overlay c1 with c2, nudged by a tiny translation until generic.

    Returns (crossings, c2'): c2' is in the class of c2, and crossings is
    its generic overlay with c1.
    """
    for cand in _nudges(c2):
        try:
            return overlay(c1, cand), cand
        except GenericityError:
            continue
    raise GenericityError("could not reach generic position by nudging")


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
        _INTERSECTIONS[key] = _minimal_crossing_count(c1, c2)
    return _INTERSECTIONS[key]


def _minimal_crossing_count(c1: FlatCurve, c2: FlatCurve):
    """Crossings of a generic overlay left after every bigon is removed."""
    crossings, c2 = generic_overlay_pair(c1, c2)
    live = set(range(len(crossings)))
    while True:
        pair = _find_bigon(c1, c2, crossings, live)
        if pair is None:
            break
        live.discard(pair[0])
        live.discard(pair[1])
    return len(live)


# ---------------------------------------------------------------------------
# neighborhood boundary walks


def _sort_by_angle(items):
    """Sort (direction, payload) pairs counterclockwise starting at +x."""
    def key(it):
        x, y = it[0]
        if y == 0:
            base = 0 if x > 0 else 2
            return (base, Fraction(0))
        if y > 0:
            return (1, Fraction(-x, y))
        return (3, Fraction(-x, y))

    return sorted(items, key=key)


def boundary_walk_classes(c1: FlatCurve, c2: FlatCurve):
    """Canonical classes of the boundary walks of a regular neighborhood
    of c1 union c2 (curves in tight position).

    Returns a list of canonical word classes, one per complementary face
    walk of the union.  When the curves are disjoint the neighborhood is
    just two annuli and the classes are those of the curves themselves.
    """
    crossings, c2 = generic_overlay_pair(c1, c2)
    if _find_bigon(c1, c2, crossings, set(range(len(crossings)))) is not None:
        raise GenericityError("representatives form a bigon; not in minimal position")
    if not crossings:
        return [c1.canonical(), c2.canonical()]
    # arcs: (curve index, from crossing, to crossing) following the curve
    arcs = []
    for cidx in (0, 1):
        order = sorted(range(len(crossings)), key=lambda k: crossings[k].key(cidx))
        for pos, ka in enumerate(order):
            arcs.append((cidx, ka, order[(pos + 1) % len(order)]))

    # half-edges: (arc index, direction); direction +1 from ka to kb
    # at each crossing, the four outgoing half-edges with their tangents
    outgoing = {k: [] for k in range(len(crossings))}
    segs = (c1.segments(), c2.segments())
    curves = (c1, c2)
    for aidx, (cidx, ka, kb) in enumerate(arcs):
        sa, _ = crossings[ka].key(cidx)
        sb, _ = crossings[kb].key(cidx)
        da = _sub(segs[cidx][sa][1], segs[cidx][sa][0])
        db = _sub(segs[cidx][sb][1], segs[cidx][sb][0])
        outgoing[ka].append((da, (aidx, 1)))
        outgoing[kb].append((_scale(db, -1), (aidx, -1)))

    rotation = {}
    for k, items in outgoing.items():
        ordered = _sort_by_angle(items)
        for i, (_, he) in enumerate(ordered):
            nxt = ordered[(i + 1) % len(ordered)][1]
            rotation[(k, he)] = nxt

    def he_endpoints(he):
        aidx, d = he
        cidx, ka, kb = arcs[aidx]
        return (ka, kb) if d == 1 else (kb, ka)

    # face traversal: next half-edge = rotate(reverse(he)) at the endpoint
    visited = set()
    classes = []
    for start in list(rotation.keys()):
        k0, he0 = start
        src, dst = he_endpoints(he0)
        if src != k0 or (k0, he0) in visited:
            continue
        walk_points = []
        cur_pt = crossings[k0].point
        he = he0
        at = k0
        guard = 0
        while True:
            visited.add((at, he))
            cidx = arcs[he[0]][0]
            src, end = he_endpoints(he)
            key_from, key_to = crossings[src].key(cidx), crossings[end].key(cidx)
            pts = arc_points(curves[cidx], key_from, key_to, cur_pt, he[1])
            walk_points.extend(pts[:-1])
            cur_pt = pts[-1]
            rev = (he[0], -he[1])
            he = rotation[(end, rev)]
            at = end
            guard += 1
            if at == k0 and he == he0:
                break
            if guard > 4 * len(arcs) + 4:
                raise RuntimeError("face walk failed to close")
        disp = _sub(cur_pt, walk_points[0])
        ddx, ddy = disp
        if ddx.denominator != 1 or ddy.denominator != 1 or int(ddx) % 2 != 0:
            raise RuntimeError("face walk closed with a non-lattice offset")
        word = path_word(walk_points, (int(ddx), int(ddy)))
        classes.append(canonical_class(word))
    return classes
