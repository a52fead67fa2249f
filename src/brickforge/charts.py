"""Coordinate charts for curves on the supported model surfaces.

Ambient surfaces are the one-holed torus (complexity 4, pure slope
arithmetic) and the twice-punctured torus (complexity 5, backed by the
polygonal engine in flatcurves).  Proper essential subdomains of the
twice-punctured torus get charts too:

* cutting along a vertical nonseparating curve leaves a four-holed
  sphere "strip" whose realizable slopes are the even integers (corridor
  curves between the puncture columns) together with infinity (the other
  vertical line),
* cutting along a separating corridor curve leaves a one-holed torus
  side whose realizable slopes are an integer fan of straight lines,
  plus a three-holed sphere side that carries no curves,
* each simplex curve also spawns an annulus domain whose "curves" are
  arc classes recorded by an integer twist.

Realization is bounded by fixed radii, not by the budget: a subdomain
chart realizes its fan of slopes (`FAN_BOUND`), and an ambient class is
named by its description in `descs(1)` to `descs(3)`, or refused.
"""

from __future__ import annotations

from math import gcd

from . import flatcurves as fc
from .errors import DomainError
from .farey import Slope, _bezout
from .records import Memo, record


# ---------------------------------------------------------------------------
# the ambient twice-punctured torus


@record
class CurveDesc:
    """Constructive description of an ambient curve."""

    kind: str  # "lin" or "slot"
    data: tuple

    def build(self) -> fc.FlatCurve:
        if self.kind == "lin":
            a, b, band = self.data
            return fc.line_curve(a, b, band)
        p, q = self.data
        return fc.slot_curve(p, q)


class AmbientFlatChart:
    """Curve bookkeeping on the twice-punctured torus: the built curve of
    each constructive description, and an index from each canonical class
    and each normal-coordinate vector to its description in
    `descs(1)`, `descs(2)`, `descs(3)`.  Only a walk of that enumeration,
    as far as a lookup needs, fills the index, so no answer depends on the
    curves built before it."""

    def __init__(self):
        self._by_class: dict = {}
        self._by_coords: dict = {}
        self._curve_cache: dict = {}
        self._enumerated = 0
        self._walk = self._index_walk()

    def curve(self, desc: CurveDesc) -> fc.FlatCurve:
        if desc not in self._curve_cache:
            c = desc.build()
            fc.validate_embedded(c)
            self._curve_cache[desc] = c
        return self._curve_cache[desc]

    def descs(self, radius: int):
        """Deterministic enumeration of curve descriptions up to a size,
        one for each class: a line (a, b) is listed with (a, b) below
        (0, 0), as its reverse (-a, -b) builds the same class, and a
        corridor is listed based at (0, 0), as its lattice translate
        based at (1, 0) builds the same class."""
        out = []
        for a in range(-radius, 1):
            for b in range(-radius, radius + 1):
                if (a, b) >= (0, 0) or gcd(abs(a), abs(b)) != 1:
                    continue
                bands = (0, 1) if a % 2 == 0 else (0,)
                for band in bands:
                    out.append(CurveDesc("lin", (a, b, band)))
        for u in range(-radius, radius + 1):
            for v in range(-radius, radius + 1):
                if u % 2 == 0 or gcd(abs(u), abs(v)) != 1:
                    continue
                out.append(CurveDesc("slot", ((0, 0), (u, v))))
        return out

    def ensure_enumerated(self, radius: int):
        if self._enumerated >= radius:
            return
        for desc in self.descs(radius):
            self.curve(desc)
        self._enumerated = radius

    def _index_walk(self):
        """Index, and yield, each description in enumeration order; each
        radius holds the one before it, whose descriptions are skipped."""
        walked = set()
        for radius in (1, 2, 3):
            for desc in self.descs(radius):
                if desc not in walked:
                    walked.add(desc)
                    c = self.curve(desc)
                    self._by_class.setdefault(c.canonical(), desc)
                    self._by_coords.setdefault(c.normal_coords(), desc)
                    yield desc

    def _first(self, index: dict, key):
        """index[key], walking on until the index holds it, or None."""
        while key not in index and next(self._walk, None) is not None:
            pass
        return index.get(key)

    def lookup(self, canonical):
        """The first enumerated description of a canonical class, or None."""
        return self._first(self._by_class, canonical)

    def with_coords(self, coords):
        """The first enumerated description of the class with these normal
        coordinates, or None."""
        return self._first(self._by_coords, coords)


AMBIENT = AmbientFlatChart()


# ---------------------------------------------------------------------------
# subdomain charts


# the fan a chart classifies against: 1/0 and the slopes of the integers
# n (2n on a strip) with |n| <= FAN_BOUND
FAN_BOUND = 8


# (cut description, class) -> the class's slope in that chart, or None;
# an answer realizes at most one fan slope
_CLASSIFIED = Memo()


def _homology(canonical):
    """The signed (V, H) crossing counts of a cyclic crossing word: the
    displacement of the curve over one period, up to its sign."""
    v = h = 0
    for fam, _, sign in canonical:
        if fam == "V":
            v += sign
        elif fam == "H":
            h += sign
    return v, h


class _SlopeFanChart:
    """A subdomain chart realizing a fan of slopes as ambient curves.  The
    description of the curve it is cut along fixes the chart."""

    def classify(self, canonical) -> Slope | None:
        """Slope of an ambient class lying in the subdomain, if realizable:
        the one fan slope the class's crossing counts point to, when the
        realized curve of that slope has this class."""

        def build():
            s = self._candidate(canonical)
            desc = self.realize(s) if s in self.realizable_slopes() else None
            found = desc is not None and AMBIENT.curve(desc).canonical() == canonical
            return s if found else None

        return _CLASSIFIED.keep((self.cut_desc(), canonical), build)


class StripChart(_SlopeFanChart):
    """Four-holed sphere obtained by cutting along a vertical line.

    wall_band 0 leaves the puncture columns x = 1, 2 inside the strip,
    wall_band 1 the columns x = 2, 3.  Realizable slopes: 2n for the
    corridor between the columns with n vertical twists, infinity for
    the vertical line inside the strip.
    """

    doubled = True

    def __init__(self, wall_band: int):
        self.wall_band = wall_band
        self.c1 = 1 + wall_band
        self.c2 = 2 + wall_band

    def cut_desc(self):
        """The vertical line the strip is cut along."""
        return CurveDesc("lin", (0, 1, self.wall_band))

    def realize(self, s: Slope) -> CurveDesc | None:
        if s.q == 0:
            return CurveDesc("lin", (0, 1, 1 - self.wall_band))
        if s.q == 1 and s.p % 2 == 0:
            n = s.p // 2
            return CurveDesc("slot", ((self.c1, 0), (self.c2, n)))
        return None

    def realizable_slopes(self):
        out = [Slope(1, 0)]
        for n in range(-FAN_BOUND, FAN_BOUND + 1):
            out.append(Slope(2 * n, 1))
        return out

    def _candidate(self, canonical) -> Slope | None:
        """The one slope whose curve can have this class.  A line inside
        the strip is vertical; a corridor of slope 2n crosses the H and D
        lines between the puncture columns, of class c1 mod 2, |2n| and
        |2n - 2| times."""
        v, h = _homology(canonical)
        if (v, abs(h)) == (0, 1):
            return Slope(1, 0)
        if (v, h) != (0, 0):
            return None
        inner = self.c1 % 2
        n_h = sum(1 for fam, cls, _ in canonical if fam == "H" and cls == inner)
        n_d = sum(1 for fam, cls, _ in canonical if fam == "D" and cls == inner)
        return Slope(n_h if n_d == abs(n_h - 2) else -n_h, 1)


class TorusSideChart(_SlopeFanChart):
    """One-holed torus side of a separating corridor curve.

    For the corridor around the straight arc from (0,0) to (u,v), the
    realizable curves are the straight lines in direction (u,v) (slope
    infinity) and the family f + 2k(u,v) with det = 1 (slope k).
    """

    doubled = False

    def __init__(self, u: int, v: int, base=(0, 0)):
        self.u, self.v = u, v
        self.base = base
        s, t = _bezout(u, v)
        # s*u + t*v = 1; we need u*fy - v*fx = 1
        fx, fy = -t, s
        if fx % 2 != 0:
            fx, fy = fx + u, fy + v
        if fx % 2 != 0 or u * fy - v * fx != 1:
            raise DomainError(f"no corridor fan for the arc direction ({u}, {v})")
        self.f = (fx, fy)

    def cut_desc(self):
        """The separating corridor curve sigma that bounds the side."""
        return CurveDesc("slot", (self.base, (self.base[0] + self.u, self.base[1] + self.v)))

    def realize(self, s: Slope) -> CurveDesc | None:
        sigma = AMBIENT.curve(self.cut_desc())
        if s.q == 0:
            cands = [CurveDesc("lin", (self.u, self.v, 0))]
        elif s.q == 1:
            k = s.p
            ex = self.f[0] + 2 * k * self.u
            ey = self.f[1] + 2 * k * self.v
            g = gcd(abs(ex), abs(ey))
            if g != 1:
                return None
            cands = [CurveDesc("lin", (ex, ey, band)) for band in (0, 1)]
        else:
            return None
        for desc in cands:
            if fc.flat_intersection(AMBIENT.curve(desc), sigma) == 0:
                return desc
        return None

    def realizable_slopes(self):
        out = [Slope(1, 0)]
        for n in range(-FAN_BOUND, FAN_BOUND + 1):
            out.append(Slope(n, 1))
        return out

    def _candidate(self, canonical) -> Slope | None:
        """The one slope whose line can have this class: a line's signed
        crossing counts are proportional to its direction, (u, v) for
        slope infinity and f + 2k(u, v) for slope k, the directions e with
        det((u, v), e) = 1 up to sign."""
        a, b = _homology(canonical)
        g = gcd(a, b)
        if g == 0:
            return None
        a, b = a // g, b // g
        turn = self.u * b - self.v * a
        if turn == 0:
            return Slope(1, 0)
        if abs(turn) != 1:
            return None
        # (a, b) - f = t(u, v), the fan's line for slope t/2
        t = (turn * a - self.f[0]) // self.u
        return Slope(t // 2, 1) if t % 2 == 0 else None


def project_to_chart(chart, w: fc.FlatCurve):
    """Subsurface projection of an ambient curve into a chart.

    Computed as the essential boundary-walk classes of a regular
    neighborhood of the curve together with the cutting curve, filtered
    down to classes the chart can realize.  Curves already inside the
    chart classify directly.  A complexity-4 subsurface holds no two
    disjoint, distinct, essential, non-peripheral curves, so the list holds
    at most one slope.
    """
    cut = AMBIENT.curve(chart.cut_desc())
    if fc.same_class(cut, w):
        return []
    if fc.flat_intersection(cut, w) == 0:
        s = chart.classify(w.canonical())
        return [s] if s is not None else []
    walks = fc.boundary_walk_classes(cut, w)
    out = []
    for cls in walks:
        if cls == () or cls in fc.PERIPHERAL_CLASSES or cls == cut.canonical():
            continue
        s = chart.classify(cls)
        if s is not None and s not in out:
            out.append(s)
    return out
