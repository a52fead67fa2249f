"""Surfaces, curves, simplices, markings, and tight sequences.

Curves are exact: Farey slopes on complexity-4 domains, polygonal normal
representatives on the twice-punctured torus, integer twists on annuli.
Distance claims beyond the Farey graph are certified only relative to a
caller-supplied finite enumeration of curves.
"""

from __future__ import annotations

from collections import deque
from hashlib import sha1
from dataclasses import dataclass, field

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
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class EssentialSubsurface:
    ambient: Surface
    token: str
    kind: str  # "full", "proper", or "annulus"
    ttype: tuple  # (genus, boundary + puncture count)
    boundary: tuple = ()
    chart: object = field(default=None, compare=False, hash=False, repr=False)

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


@dataclass(frozen=True)
class FareySlope:
    slope: Slope


@dataclass(frozen=True)
class NormalRep:
    desc: charts.CurveDesc


@dataclass(frozen=True)
class AnnulusArc:
    twist: int


@dataclass(frozen=True)
class Curve:
    domain: EssentialSubsurface
    rep: object

    def key(self):
        if isinstance(self.rep, FareySlope):
            return ("F", self.rep.slope)
        if isinstance(self.rep, AnnulusArc):
            return ("A", self.rep.twist)
        # kept outside the fields, like FlatCurve.canonical: a desc always
        # builds the same class, so hashing builds no flat curve twice
        if "_key" not in self.__dict__:
            object.__setattr__(self, "_key", ("N", self.flat().canonical()))
        return self._key

    def flat(self) -> fc.FlatCurve:
        if not isinstance(self.rep, NormalRep):
            raise DomainError("curve has no polygonal representative")
        return charts.AMBIENT.curve(self.rep.desc)

    def normal_coords(self):
        return self.flat().normal_coords()

    def __eq__(self, other):
        if not isinstance(other, Curve):
            return NotImplemented
        return self.domain.token == other.domain.token and self.key() == other.key()

    def __hash__(self):
        return hash((self.domain.token, self.key()))

    def __repr__(self):
        kind, val = self.key()
        return f"Curve({self.domain.token}, {kind}:{val})"


def slope_curve(domain: EssentialSubsurface, p: int, q: int) -> Curve:
    if not isinstance(domain.chart, (SlopeChart, charts.StripChart, charts.TorusSideChart)):
        raise DomainError("domain does not carry slope coordinates")
    return Curve(domain, FareySlope(Slope(p, q)))


def flat_curve(domain: EssentialSubsurface, desc: charts.CurveDesc) -> Curve:
    if domain.chart is not charts.AMBIENT:
        raise DomainError("polygonal curves live on the twice-punctured torus")
    return Curve(domain, NormalRep(desc))


def line_class(domain: EssentialSubsurface, a: int, b: int, band: int = 0) -> Curve:
    return flat_curve(domain, charts.CurveDesc("lin", (a, b, band)))


def slot_class(domain: EssentialSubsurface, p, q) -> Curve:
    return flat_curve(domain, charts.CurveDesc("slot", (tuple(p), tuple(q))))


def arc_curve(domain: EssentialSubsurface, twist: int) -> Curve:
    if domain.kind != "annulus":
        raise DomainError("arc classes live on annulus domains")
    return Curve(domain, AnnulusArc(twist))


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
    if isinstance(ra, FareySlope) and isinstance(rb, FareySlope):
        chart = a.domain.chart
        doubled = bool(chart.doubled) if chart is not None else False
        return slope_intersection(ra.slope, rb.slope, doubled)
    if isinstance(ra, AnnulusArc) and isinstance(rb, AnnulusArc):
        return max(abs(ra.twist - rb.twist) - 1, 0)
    if isinstance(ra, NormalRep) and isinstance(rb, NormalRep):
        return fc.flat_intersection(a.flat(), b.flat())
    raise DomainError("mixed curve representations on one domain")


def are_adjacent(a: Curve, b: Curve) -> bool:
    _check_same_domain(a, b)
    if a == b:
        raise ValueError("adjacency needs two distinct curves")
    if isinstance(a.rep, AnnulusArc):
        return abs(a.rep.twist - b.rep.twist) <= 1
    xi = a.domain.complexity()
    i = intersection_number(a, b)
    if xi == 4:
        chart = a.domain.chart
        doubled = bool(chart.doubled) if chart is not None else False
        return i == (2 if doubled else 1)
    return i == 0


# ---------------------------------------------------------------------------
# simplices and markings


@dataclass(frozen=True)
class Simplex:
    domain: EssentialSubsurface
    curves: frozenset
    filling: bool = False

    def __post_init__(self):
        for c in self.curves:
            if c.domain.token != self.domain.token:
                raise DomainError("simplex curve on a different domain")
        cs = sorted(self.curves, key=lambda c: repr(c.key()))
        for i, c in enumerate(cs):
            for d in cs[i + 1 :]:
                if intersection_number(c, d) != 0:
                    raise ValueError("simplex curves must be disjoint")

    @staticmethod
    def of(domain, *curves, filling=False):
        return Simplex(domain, frozenset(curves), filling)

    def sorted_curves(self):
        return sorted(self.curves, key=lambda c: repr(c.key()))

    def is_empty(self):
        return not self.curves


@dataclass(frozen=True)
class Marking:
    base: Simplex
    transversals: tuple = ()  # pairs (base curve, transversal curve)
    twists: tuple = ()  # pairs (base curve, integer annulus twist)

    def __post_init__(self):
        base_curves = set(self.base.curves)
        for c, t in self.transversals:
            if c not in base_curves:
                raise ValueError("transversal attached to a non-base curve")
            if intersection_number(c, t) == 0:
                raise ValueError("transversal must cross its base curve")
            for other in base_curves:
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


@dataclass(frozen=True)
class IrrationalSlope:
    coefficients: tuple  # finite continued-fraction prefix


@dataclass(frozen=True)
class SymbolicFilling:
    label: str
    prefix: tuple = ()  # finite tight-ray prefix of Curves
    assumed_filling: bool = True


@dataclass(frozen=True)
class LaminationDescriptor:
    domain: EssentialSubsurface
    rep: object  # IrrationalSlope or SymbolicFilling


# ---------------------------------------------------------------------------
# geodesics and tightness


def farey_geodesic(u: Curve, w: Curve):
    """Tight vertex path between two slope curves, as single-curve simplices."""
    _check_same_domain(u, w)
    if not isinstance(u.rep, FareySlope):
        raise DomainError("farey_geodesic needs slope curves")
    d = u.domain
    slopes = farey_geodesic_slopes(u.rep.slope, w.rep.slope)
    return [Simplex.of(d, Curve(d, FareySlope(s))) for s in slopes]


def subsurface_boundary(v1: Simplex, v2: Simplex) -> Simplex:
    """Essential boundary of a minimal subsurface containing both simplices.

    Empty with the filling flag set when the union fills the domain.
    Supported on the twice-punctured torus for unions of at most two
    curve classes.
    """
    if v1.domain.token != v2.domain.token:
        raise DomainError("simplices on different domains")
    d = v1.domain
    if d.complexity() <= 4:
        raise DomainError("subsurface boundary needs complexity above 4")
    union = list(dict.fromkeys(v1.sorted_curves() + v2.sorted_curves()))
    if not union:
        raise ValueError("both simplices are empty")
    if len(union) == 1:
        return Simplex.of(d, union[0])
    if len(union) > 2:
        raise BudgetExceeded("subsurface boundary supports at most two classes")
    c1, c2 = union[0].flat(), union[1].flat()
    walks = fc.boundary_walk_classes(c1, c2)
    out = []
    for cls in walks:
        if cls == () or cls in fc.PERIPHERAL_CLASSES:
            continue
        desc = charts.AMBIENT.lookup(cls)
        if desc is None:
            raise BudgetExceeded("boundary class outside the curve enumeration")
        curve = flat_curve(d, desc)
        if curve not in out:
            out.append(curve)
    if not out:
        return Simplex(d, frozenset(), filling=True)
    return Simplex(d, frozenset(out))


class DistanceCertificate:
    """Curve-graph distances certified inside a finite enumeration.

    Distances are exact for the induced subgraph on the enumerated
    curves; they upper-bound the true curve-graph distance and equal it
    whenever the enumeration contains a true geodesic.  The adjacency of
    a pair of curves is computed the first time a search reaches it and
    kept for every later search.
    """

    def __init__(self, curves):
        self.curves = list(dict.fromkeys(curves))
        if not self.curves:
            raise CertificateError("empty enumeration")
        self._index = {c: i for i, c in enumerate(self.curves)}
        self._adjacent = {}  # (i, j) with i < j -> bool

    def contains(self, c: Curve) -> bool:
        return c in self._index

    def _is_adjacent(self, i: int, j: int) -> bool:
        key = (i, j) if i < j else (j, i)
        if key not in self._adjacent:
            self._adjacent[key] = are_adjacent(self.curves[key[0]], self.curves[key[1]])
        return self._adjacent[key]

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
    """Check the tight-sequence conditions for a list of simplices.

    Complexity 4: pairwise certified distances equal index gaps.  Above
    4: the same distance condition on single vertices, plus each interior
    simplex equals the essential subsurface boundary of its neighbors.
    """
    if not seq:
        raise ValueError("empty sequence")
    d = seq[0].domain
    for s in seq:
        if s.domain.token != d.token:
            raise DomainError("sequence simplices on different domains")
    if len(seq) == 1:
        return True
    xi = d.complexity()
    if certificate is not None:
        for s in seq:
            for c in s.curves:
                if not certificate.contains(c):
                    raise CertificateError("sequence vertex outside the enumeration")
        n = len(seq)
        for i in range(n):
            for j in range(i + 1, n):
                for ci in seq[i].curves:
                    for cj in seq[j].curves:
                        if certificate.distance(ci, cj) != j - i:
                            return False
    else:
        # without a certificate only consecutive adjacency is checkable
        for a, b in zip(seq, seq[1:]):
            for ca in a.curves:
                for cb in b.curves:
                    if ca == cb or not are_adjacent(ca, cb):
                        return False
    if xi > 4:
        for i in range(1, len(seq) - 1):
            sb = subsurface_boundary(seq[i - 1], seq[i + 1])
            if sb.filling or set(sb.curves) != set(seq[i].curves):
                return False
    return True


# ---------------------------------------------------------------------------
# component domains


def curve_tag(c: Curve) -> str:
    """Short deterministic token piece identifying a curve class."""
    kind, val = c.key()
    if kind == "F":
        return f"F{val}"
    if kind == "A":
        return f"A{val}"
    digest = sha1(repr(val).encode()).hexdigest()[:10]
    return f"N{digest}"


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
    if v.is_empty():
        return [d]
    curves = v.sorted_curves()
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
            separating = charts.AMBIENT.is_separating(flat)
            if separating:
                desc = c.rep.desc
                if desc.kind != "slot":
                    found = charts.AMBIENT.lookup(flat.canonical())
                    if found is not None and found.kind == "slot":
                        desc = found
                side = None
                if desc.kind == "slot":
                    p, q = desc.data
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


# ---------------------------------------------------------------------------
# marking restriction


def _project_curve(y: EssentialSubsurface, c: Curve):
    """Project an ambient curve into a charted subdomain, as subdomain curves."""
    if not isinstance(c.rep, NormalRep):
        raise DomainError("projection needs an ambient polygonal curve")
    if y.chart is None:
        raise BudgetExceeded(f"no chart on domain {y.token}")
    slopes = charts.project_to_chart(y.chart, c.flat())
    return [Curve(y, FareySlope(s)) for s in slopes]


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
    return Marking(Simplex(y, frozenset(kept)))
