"""Surfaces, curves, simplices, markings, and tight sequences.

Curves are exact: Farey slopes on complexity-4 domains, polygonal normal
representatives on the twice-punctured torus, integer twists on annuli.
Distance claims beyond the Farey graph are certified only relative to a
caller-supplied finite enumeration of curves.
"""

from __future__ import annotations

from collections import deque

from . import charts
from . import flatcurves as fc
from .errors import (
    BudgetExceeded,
    CertificateError,
    DomainError,
)
from .farey import (
    Slope,
    farey_geodesic_slopes,
    slope_intersection,
    slopes_adjacent,
)
from .records import HIDDEN, Memo, record


@record
class Surface:
    genus: int
    punctures: int

    def __post_init__(self):
        if self.complexity() < 3:
            raise ValueError("surface complexity must be at least 3")
        if 2 - 2 * self.genus - self.punctures >= 0:
            raise ValueError("surface must have negative euler characteristic")

    def complexity(self) -> int:
        return 3 * self.genus + self.punctures


TORUS_1_1 = Surface(1, 1)
SPHERE_0_4 = Surface(0, 4)
TORUS_1_2 = Surface(1, 2)


class SlopeChart:
    """Plain Farey arithmetic for an abstract complexity-4 surface."""

    def __init__(self, doubled: bool):
        self.doubled = doubled


@record
class EssentialSubsurface:
    ambient: Surface
    token: str
    kind: str  # "full", "proper", or "annulus"
    ttype: tuple  # (genus, boundary + puncture count)
    boundary: tuple = ()
    chart: object = HIDDEN

    def complexity(self) -> int:
        if self.kind == "annulus":
            return 2
        return 3 * self.ttype[0] + self.ttype[1]


def full_surface(s: Surface) -> EssentialSubsurface:
    """The whole surface as an essential subsurface, with its chart."""
    if s == TORUS_1_1:
        chart = SlopeChart(doubled=False)
    elif s == SPHERE_0_4:
        chart = SlopeChart(doubled=True)
    elif s == TORUS_1_2:
        chart = charts.AMBIENT
    else:
        chart = None
    return EssentialSubsurface(
        ambient=s,
        token=f"full:{s.genus},{s.punctures}",
        kind="full",
        ttype=(s.genus, s.punctures),
        chart=chart,
    )


# ---------------------------------------------------------------------------
# curves


@record
class Curve:
    domain: EssentialSubsurface
    # a Slope on a slope-chart domain, an int twist on an annulus, or the
    # CurveDesc of a polygonal curve on the twice-punctured torus
    rep: Slope | int | charts.CurveDesc

    # kept outside the fields, like FlatCurve.canonical: a curve builds its
    # key, hashes it and looks its polygon up once
    _key = None
    _hash = None
    _flat = None

    def key(self):
        if self._key is None:
            object.__setattr__(self, "_key", self._class_key())
        return self._key

    def _class_key(self):
        if isinstance(self.rep, Slope):
            return ("F", self.rep)
        if isinstance(self.rep, int):
            return ("A", self.rep)
        return ("N", self.flat().canonical())

    def flat(self) -> fc.FlatCurve:
        if self._flat is None:
            if not isinstance(self.rep, charts.CurveDesc):
                raise DomainError("curve has no polygonal representative")
            object.__setattr__(self, "_flat", charts.AMBIENT.curve(self.rep))
        return self._flat

    def __eq__(self, other):
        if not isinstance(other, Curve):
            return NotImplemented
        return self.domain.token == other.domain.token and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.domain.token, self.key())))
        return self._hash

    def __repr__(self):
        kind, val = self.key()
        return f"Curve({self.domain.token}, {kind}:{val})"


def slope_curve(domain: EssentialSubsurface, p: int, q: int) -> Curve:
    if not isinstance(domain.chart, (SlopeChart, charts.StripChart, charts.TorusSideChart)):
        raise DomainError("domain does not carry slope coordinates")
    return Curve(domain, Slope(p, q))


def flat_curve(domain: EssentialSubsurface, desc: charts.CurveDesc) -> Curve:
    if domain.chart is not charts.AMBIENT:
        raise DomainError("polygonal curves live on the twice-punctured torus")
    return Curve(domain, desc)


def line_class(domain: EssentialSubsurface, a: int, b: int, band: int = 0) -> Curve:
    return flat_curve(domain, charts.CurveDesc("lin", (a, b, band)))


def slot_class(domain: EssentialSubsurface, p, q) -> Curve:
    return flat_curve(domain, charts.CurveDesc("slot", (tuple(p), tuple(q))))


def arc_curve(domain: EssentialSubsurface, twist: int) -> Curve:
    if domain.kind != "annulus":
        raise DomainError("arc classes live on annulus domains")
    return Curve(domain, twist)


# ---------------------------------------------------------------------------
# intersection and adjacency


def _check_same_domain(a: Curve, b: Curve):
    if a.domain.token != b.domain.token:
        raise DomainError(
            f"curves on different domains: {a.domain.token} vs {b.domain.token}"
        )


def intersection_number(a: Curve, b: Curve) -> int:
    _check_same_domain(a, b)
    if a == b:
        return 0
    ra, rb = a.rep, b.rep
    if isinstance(ra, Slope) and isinstance(rb, Slope):
        chart = a.domain.chart
        doubled = bool(chart.doubled) if chart is not None else False
        return slope_intersection(ra, rb, doubled)
    if isinstance(ra, int) and isinstance(rb, int):
        return max(abs(ra - rb) - 1, 0)
    if isinstance(ra, charts.CurveDesc) and isinstance(rb, charts.CurveDesc):
        return fc.flat_intersection(a.flat(), b.flat())
    raise DomainError("mixed curve representations on one domain")


def are_adjacent(a: Curve, b: Curve) -> bool:
    _check_same_domain(a, b)
    if a == b:
        raise ValueError("adjacency needs two distinct curves")
    if isinstance(a.rep, int):
        return abs(a.rep - b.rep) <= 1
    if a.domain.complexity() == 4:
        return slopes_adjacent(a.rep, b.rep)
    return intersection_number(a, b) == 0


# ---------------------------------------------------------------------------
# simplices and markings


@record
class Simplex:
    """Pairwise disjoint curves of one domain.  Built from any iterable of
    curves; `curves` is then the tuple of the distinct ones in increasing
    `repr(c.key())`, so equal simplices iterate their curves alike."""

    domain: EssentialSubsurface
    curves: tuple

    def __post_init__(self):
        cs = tuple(sorted(set(self.curves), key=lambda c: repr(c.key())))
        for c in cs:
            if c.domain.token != self.domain.token:
                raise DomainError("simplex curve on a different domain")
        for i, c in enumerate(cs):
            for d in cs[i + 1 :]:
                if intersection_number(c, d) != 0:
                    raise ValueError("simplex curves must be disjoint")
        object.__setattr__(self, "curves", cs)

    @staticmethod
    def of(domain, *curves):
        return Simplex(domain, curves)


@record
class Marking:
    base: Simplex
    transversals: tuple = ()  # pairs (base curve, transversal curve)
    twists: tuple = ()  # pairs (base curve, integer annulus twist)

    def __post_init__(self):
        for c, t in self.transversals:
            if c not in self.base.curves:
                raise ValueError("transversal attached to a non-base curve")
            if intersection_number(c, t) == 0:
                raise ValueError("transversal must cross its base curve")
            for other in self.base.curves:
                if other != c and intersection_number(other, t) != 0:
                    raise ValueError("transversal crosses a different base curve")

    def transversal_of(self, c: Curve):
        for b, t in self.transversals:
            if b == c:
                return t
        return None

    def twist_of(self, c: Curve) -> int:
        for b, t in self.twists:
            if b == c:
                return t
        return 0


@record
class IrrationalSlope:
    coefficients: tuple  # finite continued-fraction prefix


@record
class SymbolicFilling:
    label: str  # names the end; it carries no finite prefix


@record
class LaminationDescriptor:
    domain: EssentialSubsurface
    rep: object  # IrrationalSlope or SymbolicFilling


# ---------------------------------------------------------------------------
# geodesics and tightness


def farey_geodesic(u: Curve, w: Curve):
    """Tight vertex path between two slope curves, as a list of curves."""
    _check_same_domain(u, w)
    if not isinstance(u.rep, Slope):
        raise DomainError("farey_geodesic needs slope curves")
    d = u.domain
    return [Curve(d, s) for s in farey_geodesic_slopes(u.rep, w.rep)]


def subsurface_boundary(u: Curve, w: Curve) -> tuple:
    """Essential boundary curves of a regular neighborhood of u union w,
    the curves taken in minimal position, in the sorted order of their
    classes: () exactly when the two curves fill the domain, and (u,)
    when w is u.  Supported on the twice-punctured torus.
    """
    _check_same_domain(u, w)
    d = u.domain
    if d.complexity() <= 4:
        raise DomainError("subsurface boundary needs complexity above 4")
    if u == w:
        return (u,)
    out = []
    for cls in fc.boundary_walk_classes(u.flat(), w.flat()):
        if cls == () or cls in fc.PERIPHERAL_CLASSES:
            continue
        desc = charts.AMBIENT.lookup(cls)
        if desc is None:
            raise BudgetExceeded(
                f"boundary class outside the curve enumeration: {curve_tag(u)} and "
                f"{curve_tag(w)} bound the class with normal coordinates "
                f"{list(fc.normal_coords_of(cls))}"
            )
        curve = flat_curve(d, desc)
        if curve not in out:
            out.append(curve)
    return tuple(out)


# a curve, equal by (domain token, class) -> its number, in order of first
# enumeration; a number is never reused, so it outlives every table below
_CLASS_NUMBERS: dict = {}
# (number, number), the smaller first -> whether the two curves are
# adjacent, for every certificate of the process
_ADJACENT = Memo()


class DistanceCertificate:
    """Curve-graph distances certified inside a finite enumeration.

    Distances are exact for the induced subgraph on the enumerated
    curves; they upper-bound the true curve-graph distance and equal it
    whenever the enumeration contains a true geodesic.  The adjacency of
    a pair of classes is computed the first time a search of any
    certificate reaches it and kept for every later search.
    """

    def __init__(self, curves):
        self.curves = list(dict.fromkeys(curves))
        if not self.curves:
            raise CertificateError("empty enumeration")
        self._index = {c: i for i, c in enumerate(self.curves)}
        self._numbers = [_CLASS_NUMBERS.setdefault(c, len(_CLASS_NUMBERS)) for c in self.curves]

    def contains(self, c: Curve) -> bool:
        return c in self._index

    def _is_adjacent(self, i: int, j: int) -> bool:
        a, b = self._numbers[i], self._numbers[j]
        key = (a, b) if a < b else (b, a)
        return _ADJACENT.keep(key, lambda: are_adjacent(self.curves[i], self.curves[j]))

    def path(self, u: Curve, w: Curve) -> list:
        """Vertices of a shortest path from u to w: BFS that scans
        neighbours in enumeration order, so the path is deterministic."""
        if u not in self._index or w not in self._index:
            raise CertificateError("endpoint outside the certified enumeration")
        src, dst = self._index[u], self._index[w]
        parent = {src: None}
        queue = deque([src])
        while dst not in parent and queue:
            x = queue.popleft()
            for y in range(len(self.curves)):
                if y not in parent and self._is_adjacent(x, y):
                    parent[y] = x
                    if y == dst:
                        break
                    queue.append(y)
        if dst not in parent:
            raise CertificateError("endpoints not connected inside the enumeration")
        path = []
        y = dst
        while y is not None:
            path.append(self.curves[y])
            y = parent[y]
        return path[::-1]

    def distance(self, u: Curve, w: Curve) -> int:
        return len(self.path(u, w)) - 1


def is_tight_sequence(seq, certificate: DistanceCertificate | None = None) -> bool:
    """Check the tight-sequence conditions for a list of curves.

    Consecutive vertices are distinct and adjacent.  With a certificate,
    the end vertices are also len(seq) - 1 apart, which by the triangle
    inequality makes every certified distance equal its index gap.  Above
    complexity 4, each interior vertex v_i is also the one essential
    boundary curve of a neighborhood of v_{i-1} union v_{i+1}.
    """
    if not seq:
        raise ValueError("empty sequence")
    d = seq[0].domain
    for c in seq:
        if c.domain.token != d.token:
            raise DomainError("sequence curves on different domains")
    if len(seq) == 1:
        return True
    if certificate is not None and not all(certificate.contains(c) for c in seq):
        raise CertificateError("sequence vertex outside the enumeration")
    for a, b in zip(seq, seq[1:]):
        if a == b or not are_adjacent(a, b):
            return False
    if certificate is not None and certificate.distance(seq[0], seq[-1]) != len(seq) - 1:
        return False
    if d.complexity() > 4:
        for i in range(1, len(seq) - 1):
            if subsurface_boundary(seq[i - 1], seq[i + 1]) != (seq[i],):
                return False
    return True


# ---------------------------------------------------------------------------
# component domains


# canonical class of a polygonal curve -> its tag
_TAGS = Memo()


def curve_tag(c: Curve) -> str:
    """Short deterministic token piece identifying a curve class."""
    kind, val = c.key()
    if kind == "F":
        return f"F{val}"
    if kind == "A":
        return f"A{val}"

    def build():
        from hashlib import sha1  # loaded by the first N key only

        return "N" + sha1(repr(val).encode()).hexdigest()[:10]

    return _TAGS.keep(val, build)


def _annulus_domain(d: EssentialSubsurface, c: Curve) -> EssentialSubsurface:
    return EssentialSubsurface(
        ambient=d.ambient,
        token=f"annulus:{curve_tag(c)}",
        kind="annulus",
        ttype=(0, 2),
        boundary=(c,),
        chart=None,
    )


def _pants_domain(d: EssentialSubsurface, tag: str, boundary) -> EssentialSubsurface:
    return EssentialSubsurface(
        ambient=d.ambient,
        token=f"pants:{tag}",
        kind="proper",
        ttype=(0, 3),
        boundary=tuple(boundary),
        chart=None,
    )


def component_domains(d: EssentialSubsurface, v: Simplex):
    """Complementary components of a simplex plus one annulus per curve."""
    if v.domain.token != d.token:
        raise DomainError("simplex lives on a different domain")
    if not v.curves:
        return [d]
    curves = v.curves
    out = []
    if d.ambient in (TORUS_1_1, SPHERE_0_4) and d.kind == "full":
        c = curves[0]
        if len(curves) > 1:
            raise BudgetExceeded("complexity-4 simplices have one vertex")
        npants = 1 if d.ambient == TORUS_1_1 else 2
        for k in range(npants):
            out.append(_pants_domain(d, f"{curve_tag(c)}:{k}", (c,)))
        out.append(_annulus_domain(d, c))
        return out
    if d.ambient == TORUS_1_2 and d.kind == "full":
        if len(curves) == 1:
            c = curves[0]
            flat = c.flat()
            # a line never separates; a corridor curve cuts off both punctures
            if c.rep.kind == "slot":
                p, q = c.rep.data
                side = charts.TorusSideChart(q[0] - p[0], q[1] - p[1], base=p)
                out.append(
                    EssentialSubsurface(
                        ambient=d.ambient,
                        token=f"torus-side:{curve_tag(c)}",
                        kind="proper",
                        ttype=(1, 1),
                        boundary=(c,),
                        chart=side,
                    )
                )
                out.append(_pants_domain(d, f"punctures:{curve_tag(c)}", (c,)))
            else:
                chart = None
                for band in (0, 1):
                    wall = charts.AMBIENT.curve(charts.CurveDesc("lin", (0, 1, band)))
                    if flat.canonical() == wall.canonical():
                        chart = charts.StripChart(band)
                        break
                out.append(
                    EssentialSubsurface(
                        ambient=d.ambient,
                        token=f"strip:{curve_tag(c)}",
                        kind="proper",
                        ttype=(0, 4),
                        boundary=(c,),
                        chart=chart,
                    )
                )
            out.append(_annulus_domain(d, c))
            return out
        if len(curves) == 2:
            for k in range(2):
                out.append(_pants_domain(d, f"{curve_tag(curves[0])}:{curve_tag(curves[1])}:{k}", curves))
            for c in curves:
                out.append(_annulus_domain(d, c))
            return out
        raise BudgetExceeded("simplex too large for the twice-punctured torus")
    raise BudgetExceeded("component domains unsupported on this domain")


def proper_pieces(d: EssentialSubsurface, c: Curve):
    """The non-annulus complementary components of one curve, in
    `component_domains` order."""
    return [y for y in component_domains(d, Simplex.of(d, c)) if y.kind == "proper"]


# ---------------------------------------------------------------------------
# marking restriction


def _project_curve(y: EssentialSubsurface, c: Curve):
    """Project an ambient curve into a charted subdomain, as subdomain curves."""
    if not isinstance(c.rep, charts.CurveDesc):
        raise DomainError("projection needs an ambient polygonal curve")
    if y.chart is None:
        raise BudgetExceeded(f"no chart on domain {y.token}")
    slopes = charts.project_to_chart(y.chart, c.flat())
    return [Curve(y, s) for s in slopes]


def restrict_marking(m: Marking, y: EssentialSubsurface):
    """Restriction of a marking to a subdomain; None when inessential."""
    if y.kind == "annulus":
        core = y.boundary[0]
        for c in m.base.curves:
            if c == core:
                t = m.transversal_of(c)
                if t is None:
                    return None
                return Marking(Simplex.of(y, arc_curve(y, m.twist_of(c))))
        hits = [c for c in m.base.curves if intersection_number(c, core) > 0]
        if hits:
            # a crossing base curve determines an arc; fixtures record the
            # twist coordinate on the marking
            return Marking(Simplex.of(y, arc_curve(y, m.twist_of(core))))
        return None
    if y.complexity() == 3:
        return None
    projected = []
    for c in m.base.curves:
        if any(c == b for b in y.boundary):
            continue
        for pc in _project_curve(y, c):
            if pc not in projected:
                projected.append(pc)
    kept = []
    for pc in projected:
        if all(intersection_number(pc, other) == 0 for other in kept):
            kept.append(pc)
    if not kept:
        # fall back to transversal curves when the base misses the domain
        for _, t in m.transversals:
            for pc in _project_curve(y, t):
                if all(intersection_number(pc, other) == 0 for other in kept):
                    kept.append(pc)
    if not kept:
        return None
    return Marking(Simplex(y, kept))
