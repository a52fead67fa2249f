"""Tight geodesics with markings and hierarchies.

A hierarchy is a finite family of tight geodesics: one main geodesic on
the full surface, one geodesic per complexity-4 component domain arising
between consecutive main vertices, and annular twist geodesics.  Every
distance claim on the twice-punctured torus is certified inside a finite
curve enumeration; constructions that would need curves outside it raise
BudgetExceeded instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import charts
from . import surfaces as sf
from .config import get_budget
from .errors import (
    BudgetExceeded,
    CertificateError,
    DomainError,
    NoTightGeodesic,
    NotComponentDomain,
)
from .farey import Slope
from .flatcurves import GenericityError


@dataclass(frozen=True)
class TightGeodesic:
    gid: str
    domain: sf.EssentialSubsurface
    simplices: tuple
    initial: object = None  # Marking or LaminationDescriptor
    terminal: object = None
    parent: tuple | None = None  # (gid, simplex index) this domain comes from

    def __len__(self):
        return len(self.simplices) - 1

    def simplex(self, j):
        return self.simplices[j]


@dataclass(frozen=True)
class Hierarchy:
    domain: sf.EssentialSubsurface
    geodesics: tuple
    main_gid: str
    initial: object = None
    terminal: object = None
    certificate: object = field(default=None, compare=False, repr=False)

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


def _pred_marking(g: TightGeodesic, j: int):
    if j > 0:
        return sf.Marking(g.simplex(j - 1))
    return g.initial if isinstance(g.initial, sf.Marking) else None


def _succ_marking(g: TightGeodesic, j: int):
    if j < len(g.simplices) - 1:
        return sf.Marking(g.simplex(j + 1))
    return g.terminal if isinstance(g.terminal, sf.Marking) else None


def subordinacy(g: TightGeodesic, j: int, y: sf.EssentialSubsurface):
    """Subordinacy type of a component domain at a geodesic vertex.

    Returns (kind, backward witness, forward witness) where kind is one
    of "both", "forward", "backward", "none" and the witnesses are the
    restricted markings (or None).
    """
    doms = sf.component_domains(g.domain, g.simplex(j))
    if all(d.token != y.token for d in doms):
        raise NotComponentDomain(f"{y.token} is not a component domain here")
    pred = _pred_marking(g, j)
    succ = _succ_marking(g, j)
    back = sf.restrict_marking(pred, y) if pred is not None else None
    fwd = sf.restrict_marking(succ, y) if succ is not None else None
    if back is not None and fwd is not None:
        kind = "both"
    elif fwd is not None:
        kind = "forward"
    elif back is not None:
        kind = "backward"
    else:
        kind = "none"
    return kind, back, fwd


# ---------------------------------------------------------------------------
# geodesic construction helpers


def _fan_geodesic(domain, s1: Slope, s2: Slope):
    """Geodesic between chart slopes, routed through 1/0 when possible.

    Component-domain charts realize the slope fan {infinity} union a set
    of integers, and the fan is geodesically closed via 1/0, so routing
    through it keeps every vertex realizable.
    """
    u = sf.Curve(domain, sf.FareySlope(s1))
    w = sf.Curve(domain, sf.FareySlope(s2))
    if s1 == s2:
        return (sf.Simplex.of(domain, u),)
    if sf.are_adjacent(u, w):
        return (sf.Simplex.of(domain, u), sf.Simplex.of(domain, w))
    inf = sf.Curve(domain, sf.FareySlope(Slope(1, 0)))
    if s1 != Slope(1, 0) and s2 != Slope(1, 0):
        if sf.are_adjacent(u, inf) and sf.are_adjacent(inf, w):
            return (
                sf.Simplex.of(domain, u),
                sf.Simplex.of(domain, inf),
                sf.Simplex.of(domain, w),
            )
    path = sf.farey_geodesic(u, w)
    return tuple(path)


def _twist_geodesic(domain, t1: int, t2: int):
    step = 1 if t2 >= t1 else -1
    return tuple(
        sf.Simplex.of(domain, sf.arc_curve(domain, t))
        for t in range(t1, t2 + step, step)
    )


# radius -> the deduplicated curves; a desc always builds the same curve
_UNIVERSES: dict = {}


def ambient_universe(budget_radius: int = 2):
    """Deduplicated curve enumeration on the twice-punctured torus, built
    once per radius.  Each call returns its own list."""
    if budget_radius not in _UNIVERSES:
        d = sf.full_surface(sf.TORUS_1_2)
        charts.AMBIENT.ensure_enumerated(budget_radius)
        curves = []
        for desc in charts.AMBIENT.descs(budget_radius):
            try:
                charts.AMBIENT.curve(desc)
            except GenericityError:
                continue
            curves.append(sf.flat_curve(d, desc))
        _UNIVERSES[budget_radius] = list(dict.fromkeys(curves))
    return list(_UNIVERSES[budget_radius])


def _bfs_path(certificate, u, w):
    """Shortest path from u to w inside the certificate's enumeration."""
    if not (certificate.contains(u) and certificate.contains(w)):
        raise BudgetExceeded("geodesic endpoint outside the enumeration")
    try:
        return certificate.path(u, w)
    except CertificateError as exc:
        raise NoTightGeodesic(str(exc)) from exc


def _tighten(domain, path, certificate):
    """Enforce the boundary condition on interior vertices of a path."""
    verts = list(path)
    for _ in range(len(verts) + 2):
        changed = False
        for i in range(1, len(verts) - 1):
            sb = sf.subsurface_boundary(
                sf.Simplex.of(domain, verts[i - 1]), sf.Simplex.of(domain, verts[i + 1])
            )
            if sb.filling:
                raise NoTightGeodesic("consecutive-but-one vertices fill the surface")
            cs = sb.sorted_curves()
            if len(cs) == 1 and cs[0] != verts[i]:
                verts[i] = cs[0]
                changed = True
        if not changed:
            break
    seq = [sf.Simplex.of(domain, v) for v in verts]
    if not sf.is_tight_sequence(seq, certificate):
        raise NoTightGeodesic("tightening failed inside the enumeration")
    return tuple(seq)


# ---------------------------------------------------------------------------
# hierarchy construction


def _base_vertex(m):
    if isinstance(m, sf.Marking):
        cs = m.base.sorted_curves()
        if not cs:
            raise ValueError("marking with empty base")
        return cs[0]
    if isinstance(m, sf.LaminationDescriptor):
        raise NoTightGeodesic("lamination endpoint needs a finite prefix")
    raise TypeError("expected a Marking")


def _truncate_lamination(domain, lam: sf.LaminationDescriptor, depth: int):
    """Finite marking standing in for a lamination endpoint: the convergent
    of an irrational slope at the budget depth, or the last prefix vertex."""
    rep = lam.rep
    if isinstance(rep, sf.IrrationalSlope):
        coeffs = rep.coefficients[: max(depth, 1)]
        num, den = coeffs[-1], 1
        for a in reversed(coeffs[:-1]):
            num, den = a * num + den, num
        return sf.Marking(sf.Simplex.of(domain, sf.slope_curve(domain, num, den)))
    if isinstance(rep, sf.SymbolicFilling):
        if not rep.prefix:
            raise NoTightGeodesic("symbolic lamination has an empty prefix")
        last = rep.prefix[-1]
        return sf.Marking(sf.Simplex.of(domain, last))
    raise TypeError("unknown lamination representation")


def lamination_depth(budget: int) -> int:
    """Continued-fraction depth at which lamination endpoints are
    truncated: budget // 100, clipped to [2, 12]."""
    return max(2, min(12, budget // 100))


def certified_main_geodesic(domain, initial, terminal):
    """Tight geodesic between the base vertices of two markings on a
    complexity-5 surface, found by BFS over ambient_universe(2) plus the
    markings' curves.  Returns (certificate, simplices)."""
    universe = ambient_universe(2)
    for m in (initial, terminal):
        if isinstance(m, sf.Marking):
            for c in m.base.curves:
                if c not in universe:
                    universe.append(c)
            for _, t in m.transversals:
                if t not in universe:
                    universe.append(t)
    certificate = sf.DistanceCertificate(universe)
    u = _base_vertex(initial)
    w = _base_vertex(terminal)
    path = _bfs_path(certificate, u, w)
    return certificate, _tighten(domain, path, certificate)


def _realizable(domain, simplices) -> bool:
    """True when every vertex curve has an ambient model: always on a full
    surface, otherwise when the domain's chart realizes its slope."""
    return domain.kind == "full" or all(
        domain.chart.realize(c.rep.slope) is not None
        for v in simplices
        for c in v.curves
    )


def tight_geodesic(domain, initial, terminal):
    """The tight geodesic of a domain from a marking toward a marking or
    a lamination: certified on complexity 5, the Farey geodesic on a full
    complexity-4 surface, the fan geodesic on a complexity-4 component
    domain.  A lamination end is truncated at the deepest budget depth
    whose whole geodesic the domain's chart realizes.

    Returns (certificate or None, simplices, finite terminal marking).
    Raises NoTightGeodesic for a lamination start and BudgetExceeded when
    no geodesic is realizable."""
    ends = [terminal]
    if isinstance(terminal, sf.LaminationDescriptor):
        depths = range(lamination_depth(get_budget()), 0, -1)
        ends = [_truncate_lamination(domain, terminal, k) for k in depths]
        ends = list(dict.fromkeys(ends))  # depths past a finite prefix repeat
    for finite in ends:
        certificate = None
        if domain.complexity() >= 5:
            certificate, simplices = certified_main_geodesic(domain, initial, finite)
        elif domain.kind == "full":
            u, w = _base_vertex(initial), _base_vertex(finite)
            simplices = tuple(sf.farey_geodesic(u, w))
        else:
            s1, s2 = _marking_slope(initial), _marking_slope(finite)
            simplices = _fan_geodesic(domain, s1, s2)
        if _realizable(domain, simplices):
            return certificate, simplices, finite
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
    certificate, main_simplices, terminal_marking = tight_geodesic(d, initial, terminal)
    main = TightGeodesic(
        gid="g0",
        domain=d,
        simplices=main_simplices,
        initial=initial,
        terminal=terminal,
    )
    geodesics = [main]

    if s.complexity() == 5:
        # one geodesic per complexity-4 component domain with two-sided
        # subordinacy data, processed in vertex order for determinism
        for j, v in enumerate(main_simplices):
            for y in sf.component_domains(d, v):
                if y.kind != "proper" or y.complexity() != 4:
                    continue
                if y.chart is None:
                    raise BudgetExceeded(
                        f"no coordinate chart for component domain {y.token}"
                    )
                kind, back, fwd = subordinacy(
                    replace(main, terminal=terminal_marking), j, y
                )
                if kind != "both":
                    continue
                _, simplices, _ = tight_geodesic(y, back, fwd)
                geodesics.append(
                    TightGeodesic(
                        gid=f"g{len(geodesics)}",
                        domain=y,
                        simplices=simplices,
                        initial=back,
                        terminal=fwd,
                        parent=("g0", j),
                    )
                )

    # annular geodesics: one per interior vertex curve of the main geodesic
    for j, v in enumerate(main.simplices):
        if j == 0 or j == len(main.simplices) - 1:
            continue
        for y in sf.component_domains(d, v):
            if y.kind != "annulus":
                continue
            kind, back, fwd = subordinacy(main, j, y)
            if kind != "both":
                continue
            t1 = back.base.sorted_curves()[0].rep.twist
            t2 = fwd.base.sorted_curves()[0].rep.twist
            geodesics.append(
                TightGeodesic(
                    gid=f"g{len(geodesics)}",
                    domain=y,
                    simplices=_twist_geodesic(y, t1, t2),
                    initial=back,
                    terminal=fwd,
                    parent=("g0", j),
                )
            )

    return Hierarchy(
        domain=d,
        geodesics=tuple(geodesics),
        main_gid="g0",
        initial=initial,
        terminal=terminal,
        certificate=certificate,
    )


def _marking_slope(m) -> Slope:
    c = _base_vertex(m)
    if not isinstance(c.rep, sf.FareySlope):
        raise BudgetExceeded("restricted marking is not in slope coordinates")
    return c.rep.slope


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
                    sf.are_adjacent(
                        a.sorted_curves()[0], b.sorted_curves()[0]
                    )
                    for a, b in zip(g.simplices, g.simplices[1:])
                )
            elif g.domain.token == h.domain.token and h.certificate is not None:
                ok = sf.is_tight_sequence(list(g.simplices), h.certificate)
            else:
                ok = sf.is_tight_sequence(list(g.simplices))
            if not ok:
                violations.append(f"{g.gid} is not tight")
        except (CertificateError, DomainError, BudgetExceeded) as exc:
            violations.append(f"{g.gid} tightness check failed: {exc}")
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
        doms = sf.component_domains(parent.domain, parent.simplex(j))
        if all(y.token != g.domain.token for y in doms):
            violations.append(f"{g.gid} domain is not a component domain of its parent")
        if g.initial is None or g.terminal is None:
            violations.append(f"{g.gid} lacks subordinacy markings")
    # 4-completeness on the main geodesic
    main = h.main
    for j, v in enumerate(main.simplices):
        if main.domain.complexity() <= 4:
            break
        for y in sf.component_domains(main.domain, v):
            if y.kind != "proper" or y.complexity() != 4:
                continue
            try:
                kind, _, _ = subordinacy(main, j, y)
            except BudgetExceeded:
                continue
            if kind == "both" and y.token not in seen_domains:
                violations.append(f"missing geodesic on component domain {y.token}")
    return (not violations, violations)


def ambient_curve(c: sf.Curve) -> sf.Curve:
    """Realize a curve of a subsurface as a curve on the full surface."""
    if c.domain.kind == "full":
        return c
    if c.domain.kind == "annulus":
        return c.domain.boundary[0]
    chart = c.domain.chart
    if chart is None or not isinstance(c.rep, sf.FareySlope):
        raise BudgetExceeded(f"cannot realize {c!r} on the full surface")
    if isinstance(chart, sf.SlopeChart):
        raise BudgetExceeded("abstract slope domains have no ambient model")
    desc = chart.realize(c.rep.slope)
    if desc is None:
        raise BudgetExceeded(f"slope {c.rep.slope} is outside the realizable fan")
    return sf.flat_curve(sf.full_surface(c.domain.ambient), desc)
