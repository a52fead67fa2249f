"""Tight geodesics with markings and hierarchies.

A hierarchy is a finite family of tight geodesics: one main geodesic on
the full surface, one geodesic per complexity-4 component domain arising
between consecutive main vertices, and annular twist geodesics.  Every
distance claim on the twice-punctured torus is certified inside a finite
curve enumeration; constructions that would need curves outside it raise
BudgetExceeded instead of guessing.
"""

from __future__ import annotations

from . import charts
from . import surfaces as sf
from .config import get_budget
from .errors import BudgetExceeded, CertificateError, DomainError, NoTightGeodesic
from .farey import Slope
from .records import Memo, record


@record
class TightGeodesic:
    gid: str
    domain: sf.EssentialSubsurface
    vertices: tuple  # curves
    initial: object = None  # Marking or LaminationDescriptor
    terminal: object = None
    parent: tuple | None = None  # (gid, vertex index) this domain comes from

    def __len__(self):
        return len(self.vertices) - 1


@record
class Hierarchy:
    domain: sf.EssentialSubsurface
    geodesics: tuple
    main_gid: str

    @property
    def main(self) -> TightGeodesic:
        return self.geodesic(self.main_gid)

    def geodesic(self, gid) -> TightGeodesic:
        for g in self.geodesics:
            if g.gid == gid:
                return g
        raise KeyError(gid)


# ---------------------------------------------------------------------------
# subordinacy


def _restricted(domain, vertices, j, datum, y):
    """The marking beside a vertex restricted to y: the one-curve marking
    of v_j, or past either end that end's datum, which gives None when it
    is not a marking."""
    if 0 <= j < len(vertices):
        m = sf.Marking(sf.Simplex.of(domain, vertices[j]))
    elif isinstance(datum, sf.Marking):
        m = datum
    else:
        return None
    return sf.restrict_marking(m, y)


def subordinate_markings(domain, vertices, start, end):
    """Subordinacy along a geodesic of a domain from `start` to `end`.

    Yields (j, y, back, fwd) for each component domain y of each vertex
    v_j, in vertex order: back and fwd restrict the markings on either
    side of v_j (start or v_{j-1}, and v_{j+1} or end) to y.  They are
    computed only where a subordinate geodesic can live, on a
    complexity-4 piece with a chart or the annulus of an interior vertex;
    every other piece gets (None, None).  y has a geodesic exactly when
    both are markings."""
    last = len(vertices) - 1
    for j, v in enumerate(vertices):
        for y in sf.component_domains(domain, sf.Simplex.of(domain, v)):
            if y.kind == "annulus":
                live = 0 < j < last
            else:
                live = y.complexity() == 4 and y.chart is not None
            if live:
                back = _restricted(domain, vertices, j - 1, start, y)
                yield j, y, back, _restricted(domain, vertices, j + 1, end, y)
            else:
                yield j, y, None, None


# ---------------------------------------------------------------------------
# geodesic construction helpers


def _fan_geodesic(domain, s1: Slope, s2: Slope):
    """Geodesic between chart slopes, routed through 1/0 when possible.

    Component-domain charts realize the slope fan {infinity} union a set
    of integers, and the fan is geodesically closed via 1/0, so routing
    through it keeps every vertex realizable.
    """
    u = sf.Curve(domain, s1)
    w = sf.Curve(domain, s2)
    if s1 == s2:
        return (u,)
    if sf.are_adjacent(u, w):
        return (u, w)
    inf = sf.Curve(domain, Slope(1, 0))
    if s1 != Slope(1, 0) and s2 != Slope(1, 0):
        if sf.are_adjacent(u, inf) and sf.are_adjacent(inf, w):
            return (u, inf, w)
    return tuple(sf.farey_geodesic(u, w))


def _twist_geodesic(domain, t1: int, t2: int):
    step = 1 if t2 >= t1 else -1
    return tuple(sf.arc_curve(domain, t) for t in range(t1, t2 + step, step))


# radius -> the curves; a desc always builds the same curve
_UNIVERSES = Memo()


def ambient_universe(budget_radius: int = 2):
    """The curves of the twice-punctured torus enumeration, one per class,
    built once per radius.  Each call returns its own list."""

    def build():
        d = sf.full_surface(sf.TORUS_1_2)
        charts.AMBIENT.ensure_enumerated(budget_radius)
        return [sf.flat_curve(d, desc) for desc in charts.AMBIENT.descs(budget_radius)]

    return list(_UNIVERSES.keep(budget_radius, build))


def _bfs_path(certificate, u, w):
    """Shortest path from u to w inside the certificate's enumeration."""
    if not (certificate.contains(u) and certificate.contains(w)):
        raise BudgetExceeded("geodesic endpoint outside the enumeration")
    try:
        return certificate.path(u, w)
    except CertificateError as exc:
        raise NoTightGeodesic(str(exc)) from exc


def _tighten(path, certificate):
    """Enforce the boundary condition on interior vertices of a path."""
    verts = list(path)
    for _ in range(len(verts) + 2):
        changed = False
        for i in range(1, len(verts) - 1):
            cs = sf.subsurface_boundary(verts[i - 1], verts[i + 1])
            if not cs:
                raise NoTightGeodesic("consecutive-but-one vertices fill the surface")
            if len(cs) == 1 and cs[0] != verts[i]:
                verts[i] = cs[0]
                changed = True
        if not changed:
            break
    if not sf.is_tight_sequence(verts, certificate):
        raise NoTightGeodesic("tightening failed inside the enumeration")
    return tuple(verts)


# ---------------------------------------------------------------------------
# hierarchy construction


def _base_vertex(m):
    if isinstance(m, sf.Marking):
        if not m.base.curves:
            raise ValueError("marking with empty base")
        return m.base.curves[0]
    if isinstance(m, sf.LaminationDescriptor):
        raise NoTightGeodesic("lamination endpoint needs a finite prefix")
    raise TypeError("expected a Marking")


def _truncate_lamination(domain, lam: sf.LaminationDescriptor, depth: int):
    """Finite marking standing in for a lamination endpoint: the convergent
    of an irrational slope at the budget depth.  A symbolic filling has
    none."""
    rep = lam.rep
    if isinstance(rep, sf.IrrationalSlope):
        coeffs = rep.coefficients[: max(depth, 1)]
        num, den = coeffs[-1], 1
        for a in reversed(coeffs[:-1]):
            num, den = a * num + den, num
        return sf.Marking(sf.Simplex.of(domain, sf.slope_curve(domain, num, den)))
    if isinstance(rep, sf.SymbolicFilling):
        raise NoTightGeodesic("symbolic lamination has an empty prefix")
    raise TypeError("unknown lamination representation")


def lamination_depth(budget: int) -> int:
    """Continued-fraction depth at which lamination endpoints are
    truncated: budget // 100, clipped to [2, 12]."""
    return max(2, min(12, budget // 100))


# (initial, terminal, the reps of their curves) -> the vertex curves of
# certified_main_geodesic.  Markings equal by class may name their curves
# by other reps, and a vertex keeps the rep it was found with, which sets
# the chart of a corridor's component domains.
_MAIN_GEODESICS = Memo()


def certified_main_geodesic(initial, terminal):
    """Tight geodesic between the base vertices of two markings on a
    complexity-5 surface, found by BFS over ambient_universe(2) plus the
    markings' curves, once per process for each key of _MAIN_GEODESICS.
    Returns the vertex curves.  Curves that do not fill are at most 2
    apart: a longer path between them means the enumeration lacks a
    middle vertex, and raises BudgetExceeded."""
    marked = []
    for m in (initial, terminal):
        if isinstance(m, sf.Marking):
            marked += m.base.curves
            marked += [t for _, t in m.transversals]

    def build():
        # the certificate keeps the first occurrence of each curve
        certificate = sf.DistanceCertificate(ambient_universe(2) + marked)
        u = _base_vertex(initial)
        w = _base_vertex(terminal)
        path = _bfs_path(certificate, u, w)
        if len(path) > 3 and sf.subsurface_boundary(u, w):
            raise BudgetExceeded(
                f"{sf.curve_tag(u)} and {sf.curve_tag(w)} do not fill, but the "
                f"enumeration puts them {len(path) - 1} apart"
            )
        return _tighten(path, certificate)

    return _MAIN_GEODESICS.keep((initial, terminal, tuple(c.rep for c in marked)), build)


def _realizable(domain, vertices) -> bool:
    """True when every vertex curve has an ambient model: always on a full
    surface, otherwise when the domain's chart realizes its slope."""
    return domain.kind == "full" or all(
        domain.chart.realize(c.rep) is not None for c in vertices
    )


def tight_geodesic(domain, initial, terminal):
    """The tight geodesic of a domain from a marking toward a marking or
    a lamination: certified on complexity 5, the Farey geodesic on a full
    complexity-4 surface, the fan geodesic on a complexity-4 component
    domain.  A lamination end is truncated at the deepest budget depth
    whose whole geodesic the domain's chart realizes.

    Returns (vertex curves, finite terminal marking).
    Raises NoTightGeodesic for a lamination start and BudgetExceeded when
    no geodesic is realizable."""
    ends = [terminal]
    if isinstance(terminal, sf.LaminationDescriptor):
        depths = range(lamination_depth(get_budget()), 0, -1)
        ends = [_truncate_lamination(domain, terminal, k) for k in depths]
        ends = list(dict.fromkeys(ends))  # depths past a finite prefix repeat
    for finite in ends:
        if domain.complexity() >= 5:
            vertices = certified_main_geodesic(initial, finite)
        elif domain.kind == "full":
            u, w = _base_vertex(initial), _base_vertex(finite)
            vertices = tuple(sf.farey_geodesic(u, w))
        else:
            s1, s2 = _marking_slope(initial), _marking_slope(finite)
            vertices = _fan_geodesic(domain, s1, s2)
        if _realizable(domain, vertices):
            return vertices, finite
    raise BudgetExceeded(f"no geodesic in {domain.token} stays in its chart")


def build_hierarchy(s: sf.Surface, initial, terminal):
    """Hierarchy of tight geodesics from an initial to a terminal marking.

    The terminal datum may be a lamination descriptor; the main geodesic
    runs to its truncation at the depth the enumeration budget sets, and
    the descriptor is kept as the geodesic's terminal record.
    """
    if s.complexity() not in (4, 5):
        raise BudgetExceeded("hierarchies supported on complexity 4 and 5 only")
    d = sf.full_surface(s)
    main_vertices, terminal_marking = tight_geodesic(d, initial, terminal)
    main = TightGeodesic(
        gid="g0",
        domain=d,
        vertices=main_vertices,
        initial=initial,
        terminal=terminal,
    )
    geodesics = [main]
    # one geodesic per component domain with two-sided subordinacy data,
    # in vertex order for determinism
    for j, y, back, fwd in subordinate_markings(
        d, main_vertices, initial, terminal_marking
    ):
        if y.complexity() == 4 and y.chart is None:
            raise BudgetExceeded(f"no coordinate chart for component domain {y.token}")
        if back is None or fwd is None:
            continue
        if y.kind == "annulus":
            t1, t2 = back.base.curves[0].rep, fwd.base.curves[0].rep
            vertices = _twist_geodesic(y, t1, t2)
        else:
            vertices, _ = tight_geodesic(y, back, fwd)
        geodesics.append(
            TightGeodesic(
                gid=f"g{len(geodesics)}",
                domain=y,
                vertices=vertices,
                initial=back,
                terminal=fwd,
                parent=("g0", j),
            )
        )

    return Hierarchy(
        domain=d,
        geodesics=tuple(geodesics),
        main_gid="g0",
    )


def _marking_slope(m) -> Slope:
    c = _base_vertex(m)
    if not isinstance(c.rep, Slope):
        raise BudgetExceeded("restricted marking is not in slope coordinates")
    return c.rep


# ---------------------------------------------------------------------------
# verification


def verify_hierarchy(h: Hierarchy):
    """Check the hierarchy properties; returns (ok, list of violations)."""
    violations = []
    mains = [g for g in h.geodesics if g.domain.token == h.domain.token]
    if len(mains) != 1:
        violations.append("main not unique")
    seen_domains = {}
    for g in h.geodesics:
        if g.domain.token in seen_domains:
            violations.append(f"two geodesics on domain {g.domain.token}")
        seen_domains[g.domain.token] = g
    for g in h.geodesics:
        try:
            if g.domain.kind == "annulus":
                ok = all(
                    sf.are_adjacent(a, b) for a, b in zip(g.vertices, g.vertices[1:])
                )
            else:
                ok = sf.is_tight_sequence(g.vertices)
            if not ok:
                violations.append(f"{g.gid} is not tight")
        except (DomainError, BudgetExceeded) as exc:
            violations.append(f"{g.gid} tightness check failed: {exc}")
    # curves that meet without filling are 2 apart, so a longer main
    # geodesic must have ends that fill; a boundary class outside the
    # enumeration still exists, so its ends do not fill either
    main = h.main
    if main.domain.complexity() >= 5 and len(main) >= 3:
        try:
            fills = not sf.subsurface_boundary(main.vertices[0], main.vertices[-1])
        except BudgetExceeded:
            fills = False
        if not fills:
            violations.append(
                f"{main.gid} fails the filling test: its ends do not fill, "
                f"but it has length {len(main)}"
            )
    for g in h.geodesics:
        if g.gid == h.main_gid:
            continue
        if g.parent is None:
            violations.append(f"{g.gid} has no subordinacy witness")
            continue
        pgid, j = g.parent
        try:
            parent = h.geodesic(pgid)
        except KeyError:
            violations.append(f"{g.gid} parent {pgid} missing")
            continue
        doms = sf.component_domains(
            parent.domain, sf.Simplex.of(parent.domain, parent.vertices[j])
        )
        if all(y.token != g.domain.token for y in doms):
            violations.append(f"{g.gid} domain is not a component domain of its parent")
        if g.initial is None or g.terminal is None:
            violations.append(f"{g.gid} lacks subordinacy markings")
    # 4-completeness on the main geodesic
    if main.domain.complexity() >= 5:
        for _, y, back, fwd in subordinate_markings(
            main.domain, main.vertices, main.initial, main.terminal
        ):
            two_sided = back is not None and fwd is not None
            if y.kind == "proper" and two_sided and y.token not in seen_domains:
                violations.append(f"missing geodesic on component domain {y.token}")
    return (not violations, violations)


def ambient_curve(c: sf.Curve) -> sf.Curve:
    """Realize a curve of a subsurface as a curve on the full surface."""
    if c.domain.kind == "full":
        return c
    if c.domain.kind == "annulus":
        return c.domain.boundary[0]
    chart = c.domain.chart
    if chart is None or not isinstance(c.rep, Slope):
        raise BudgetExceeded(f"cannot realize {c!r} on the full surface")
    if isinstance(chart, sf.SlopeChart):
        raise BudgetExceeded("abstract slope domains have no ambient model")
    desc = chart.realize(c.rep)
    if desc is None:
        raise BudgetExceeded(f"slope {c.rep} is outside the realizable fan")
    return sf.flat_curve(sf.full_surface(c.domain.ambient), desc)
