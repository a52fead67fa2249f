"""Block decomposition pipeline: normalization, tube placement, merging,
and assembly into standard blocks.

Tubes realize tight geodesics inside bricks: one vertical tube per
geodesic vertex, placed at exact rational sub-intervals of the brick's
band.  Complexity-4 placements leave gap bands between consecutive tubes
so that the annuli stay pairwise disjoint.  After placement, tubes that
are homotopic in the model are merged, and the remaining material is cut
into blocks of the three standard types.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import bricks as bk
from . import hierarchy as hy
from . import surfaces as sf
from .errors import (
    BudgetExceeded,
    DomainError,
    ELViolation,
    IterationOverflow,
    MissingLabel,
)

BLOCK_TYPES = ("S03", "S04", "S11")


@dataclass(frozen=True)
class Tube:
    tid: str
    core: sf.Curve  # ambient curve class
    band: tuple  # (lo, hi) rationals
    origin: tuple  # (round number, brick id or "boundary")
    token: str  # placement domain token
    interface: str = "annulus"  # M[0]-interface: "torus" or "annulus"
    merged_from: frozenset = frozenset()
    twist: int = 0


@dataclass(frozen=True)
class Block:
    blid: str
    btype: str
    support_token: str
    interval: tuple
    gap: tuple = None  # gap band inside the interval, complexity-4 only
    tube: str = None  # id of the tube whose vertex interval this is
    support: object = None  # placement domain, for metric bookkeeping

    def __post_init__(self):
        if self.btype not in BLOCK_TYPES:
            raise ValueError(f"unknown block type {self.btype}")


@dataclass(frozen=True)
class BlockDecomposition:
    sweep: bk.LevelSweep  # of the normalized model, in its embedding's levels
    blocks: tuple
    tubes: tuple  # after merging
    placed: tuple  # tubes before merging, for per-round accounting
    torus_tubes: tuple  # tube ids with torus interface
    gf_bricks: tuple
    graph: tuple  # gluing edges (block id, tube id)
    adjustments: tuple  # (BB) re-leveling records
    tails: tuple  # truncated-ray descriptors
    rounds_used: int

    def tube(self, tid) -> Tube:
        for t in self.tubes:
            if t.tid == tid:
                return t
        raise KeyError(tid)


# ---------------------------------------------------------------------------
# exact tube intervals


def tube_intervals(n: int, variant: str):
    """Sub-intervals of [0,1] for a geodesic with vertices v_0..v_n.

    closed-wide: the full partition used above complexity 4; closed-gap:
    the complexity-4 variant leaving gaps; ray-wide / ray-gap: the
    half-open counterparts accumulating at 1.
    """
    if n < 0:
        raise ValueError("need at least one vertex")
    if variant == "closed-wide":
        return [
            (Fraction(i, n + 1), Fraction(i + 1, n + 1)) for i in range(n + 1)
        ]
    if variant == "closed-gap":
        return [
            (Fraction(i, n + 1), Fraction(2 * i + 1, 2 * n + 2))
            for i in range(n + 1)
        ]
    if variant == "ray-wide":
        return [
            (1 - Fraction(1, 2**i), 1 - Fraction(1, 2 ** (i + 1)))
            for i in range(n + 1)
        ]
    if variant == "ray-gap":
        return [
            (1 - Fraction(1, 2**i), 1 - Fraction(3, 2 ** (i + 2)))
            for i in range(n + 1)
        ]
    raise ValueError(f"unknown variant {variant}")


def _scale(iv, lo, hi):
    width = hi - lo
    return (lo + iv[0] * width, lo + iv[1] * width)


def _mirror(iv):
    return (1 - iv[1], 1 - iv[0])


# ---------------------------------------------------------------------------
# normalization


def _is_gf(b: bk.Brick) -> bool:
    return b.label is not None and b.label.kind == "geometrically-finite"


def _merge_pair(k: bk.BrickComplex, j: bk.Joint, levels) -> bk.BrickComplex:
    """Merge the two bricks of a joint, recording in `levels` the merged
    brick's embedded levels: the lower brick's bottom, the upper's top."""
    up = k.brick(j.upper)
    low = k.brick(j.lower)
    merged = bk.Brick(
        bid=f"{j.lower}+{j.upper}",
        support=low.support,
        kind=bk.interval_kind(low.open_below(), up.open_above()),
        lo=low.lo,
        hi=up.hi,
        collars=tuple(sorted(set(low.collars) | set(up.collars))),
        initial=low.initial,
        terminal=up.terminal,
    )
    levels[merged.bid] = (levels[j.lower][0], levels[j.upper][1])
    rename = {j.lower: merged.bid, j.upper: merged.bid}
    bricks = tuple(
        b for b in k.bricks if b.bid not in (j.lower, j.upper)
    ) + (merged,)
    joints = tuple(
        replace(
            jj,
            upper=rename.get(jj.upper, jj.upper),
            lower=rename.get(jj.lower, jj.lower),
        )
        for jj in k.joints
        if jj != j
    )
    return bk.BrickComplex(k.base, bricks, joints)


def _front_cores(sweep: bk.LevelSweep, b, level):
    """Boundary-annulus cores attached to the brick front at an embedded
    level."""
    out = []
    for comp in sweep.boundary:
        if level not in comp.interval:
            continue
        c = comp.core
        if b.support.kind == "full" or bk.curve_in_domain(b.support, c):
            if c not in out:
                out.append(c)
    return out


def _split_brick(b: bk.Brick, c: sf.Curve):
    """Replace a brick by the complement pieces of a vertical annulus."""
    if b.support.kind != "full":
        raise DomainError("splitting is only needed on full-support bricks")
    full = sf.full_surface(b.support.ambient)
    domains = sf.component_domains(full, sf.Simplex.of(full, c))
    pieces = [y for y in domains if y.kind == "proper"]
    tag = sf.curve_tag(c)
    out = []
    for i, y in enumerate(pieces):
        out.append(
            bk.Brick(
                bid=f"{b.bid}/{i}",
                support=y,
                kind=b.kind,
                lo=b.lo,
                hi=b.hi,
                collars=b.collars + ((tag,) if i == 0 else ()),
                label=b.label,
                initial=b.initial,
                terminal=b.terminal,
            )
        )
    return tuple(out)


def _reattach_joints(k: bk.BrickComplex, bid, pieces):
    joints = []
    for jj in k.joints:
        if bid not in (jj.upper, jj.lower):
            joints.append(jj)
            continue
        attached = False
        for piece in pieces:
            if jj.surface.kind == "full":
                surf = piece.support
            elif jj.surface.token == piece.support.token or all(
                bk.curve_in_domain(piece.support, c) for c in jj.surface.boundary
            ):
                surf = jj.surface
            else:
                continue
            attached = True
            if jj.upper == bid:
                joints.append(replace(jj, upper=piece.bid, surface=surf))
            else:
                joints.append(replace(jj, lower=piece.bid, surface=surf))
        if not attached:
            if jj.upper == bid:
                joints.append(replace(jj, upper=pieces[0].bid))
            else:
                joints.append(replace(jj, lower=pieces[0].bid))
    return tuple(joints)


def normalize(sweep: bk.LevelSweep) -> bk.LevelSweep:
    """Merge internal inessential joints; split full closed bricks with a
    lower-front boundary annulus missing every upper-front one.

    Takes the sweep of an embedded model and returns the sweep of the
    normalized model in the same levels: the same object when nothing
    changed, a new one only after a change.  Split pieces keep their
    parent's levels.  Idempotent."""
    k = sweep.complex
    levels = dict(sweep.embedding.levels)
    dirty = True
    while dirty:
        dirty = False
        changed = True
        while changed:
            changed = False
            for j in k.joints:
                up, low = k.brick(j.upper), k.brick(j.lower)
                if up.label is not None or low.label is not None:
                    continue
                if set(up.collars) != set(low.collars):
                    continue
                if j.is_inessential(k):
                    k = _merge_pair(k, j, levels)
                    changed = dirty = True
                    break
        if k is not sweep.complex:
            e = tuple((b.bid, levels[b.bid]) for b in k.bricks)
            sweep = bk.LevelSweep.of(k, bk.LeafEmbedding(e))
        splittable = [
            b
            for b in k.bricks
            if b.kind == "closed" and not _is_gf(b) and b.support.kind == "full"
        ]
        for b in splittable:
            lo, hi = levels[b.bid]
            lower = _front_cores(sweep, b, lo)
            upper = _front_cores(sweep, b, hi)
            offender = next(
                (
                    c
                    for c in lower
                    if upper
                    and all(
                        c != cu and sf.intersection_number(c, cu) == 0
                        for cu in upper
                    )
                ),
                None,
            )
            if offender is None:
                continue
            pieces = _split_brick(b, offender)
            levels.update((piece.bid, (lo, hi)) for piece in pieces)
            bricks = tuple(bb for bb in k.bricks if bb.bid != b.bid) + pieces
            joints = _reattach_joints(k, b.bid, pieces)
            k = bk.BrickComplex(k.base, bricks, joints)
            dirty = True
            break
    return sweep


# ---------------------------------------------------------------------------
# boundary data


def boundary_data(sweep: bk.LevelSweep):
    """Marking sources: horizontal-annulus cores, per-brick pants systems
    on geometrically finite labels, per-brick lamination descriptors on
    simply degenerate labels."""
    k = sweep.complex
    ha = [(comp.core, comp.interval) for comp in sweep.boundary]
    s = {}
    mu = {}
    for b in k.bricks:
        if b.label is None:
            continue
        if b.label.kind == "geometrically-finite":
            s[b.bid] = tuple(c for c, _, _ in (b.label.conformal or ()))
        else:
            mu[b.bid] = b.label.lamination
    has_explicit = any(
        b.initial is not None or b.terminal is not None for b in k.bricks
    )
    if not ha and not s and not mu and not has_explicit:
        raise MissingLabel("model carries no marking data")
    return {"H_A": ha, "s": s, "mu": mu}


def _joint_partners(k: bk.BrickComplex, b: bk.Brick, level):
    out = []
    for j in k.joints:
        if j.level != level:
            continue
        if j.upper == b.bid:
            out.append((k.brick(j.lower), j))
        elif j.lower == b.bid:
            out.append((k.brick(j.upper), j))
    return out


def _endpoint_marking(sweep, b, side, data):
    """Endpoint datum of a brick front: explicit record, label
    lamination, pants system of a geometrically finite neighbor across an
    inessential joint, boundary-annulus cores, or partner frontiers."""
    k = sweep.complex
    explicit = b.initial if side == "lower" else b.terminal
    if explicit is not None:
        return explicit
    is_open = b.open_below() if side == "lower" else b.open_above()
    if is_open:
        if b.label is not None and b.label.kind == "simply-degenerate":
            return b.label.lamination
        return None
    # joints sit at brick-coordinate levels, boundary annuli at embedded ones
    alpha, beta = sweep.embedding.level_of(b.bid)
    level, front = (b.lo, alpha) if side == "lower" else (b.hi, beta)
    curves = []
    for partner, j in _joint_partners(k, b, level):
        if _is_gf(partner) and j.is_inessential(k):
            for c in data["s"].get(partner.bid, ()):
                if c not in curves:
                    curves.append(c)
        elif partner.support.kind == "proper":
            for c in partner.support.boundary:
                if c not in curves and all(
                    sf.intersection_number(c, c2) == 0 for c2 in curves
                ):
                    curves.append(c)
    for c in _front_cores(sweep, b, front):
        if c not in curves and all(
            sf.intersection_number(c, c2) == 0 for c2 in curves
        ):
            curves.append(c)
    if not curves:
        return None
    full = sf.full_surface(k.base)
    domain = full if b.support.kind == "full" else b.support
    usable = [c for c in curves if c.domain.token == domain.token]
    if not usable:
        return None
    return sf.Marking(sf.Simplex(domain, frozenset(usable)))


# ---------------------------------------------------------------------------
# geodesics and placement


def _main_geodesic(domain, start, end):
    """Vertex curves of a placement's tight geodesic, from a marking
    toward a marking or lamination.  Returns the vertex list, the finite
    stand-in for the far end, and the ray tail."""
    _, simplices, end_marking = hy.tight_geodesic(domain, start, end)
    tail = None if end_marking is end else end
    return [v.sorted_curves()[0] for v in simplices], end_marking, tail


def _intervals_for(n, kind, gap: bool):
    """(tube band, wide band) pairs in brick coordinates; the first band
    sits at the real front of a half-open brick."""
    wide_variant = "ray-wide" if kind != "closed" else "closed-wide"
    tube_variant = (
        ("ray-gap" if kind != "closed" else "closed-gap") if gap else wide_variant
    )
    tubes = tube_intervals(n, tube_variant)
    wides = tube_intervals(n, wide_variant)
    if kind == "half-open-below":
        tubes = [_mirror(iv) for iv in tubes]
        wides = [_mirror(iv) for iv in wides]
    return list(zip(tubes, wides))


def _place(domain, band, kind, start, end):
    """One tight-geodesic placement over a level band of a domain: the
    main geodesic above complexity 4, the complexity-4 geodesic with gap
    bands otherwise.  Returns the vertex curves, their (tube band, wide
    band) pairs, the finite stand-in for the far end and the ray tail."""
    vertices, end_marking, tail = _main_geodesic(domain, start, end)
    gap = domain.complexity() < 5
    pairs = [
        (_scale(tiv, *band), _scale(wiv, *band))
        for tiv, wiv in _intervals_for(len(vertices) - 1, kind, gap)
    ]
    return vertices, pairs, end_marking, tail


def _nearby_tube_marking(domain, placed, level, side):
    """Marking read off the nearest placed tube beyond a brick front, by
    projecting its core into the brick's chart."""
    if side == "below":
        cands = sorted(
            (t for t in placed if t.band[1] <= level),
            key=lambda t: t.band[1],
            reverse=True,
        )
    else:
        cands = sorted(
            (t for t in placed if t.band[0] >= level), key=lambda t: t.band[0]
        )
    for t in cands:
        try:
            pcs = sf._project_curve(domain, t.core)
        except (DomainError, BudgetExceeded):
            continue
        if pcs:
            return sf.Marking(sf.Simplex.of(domain, pcs[0]))
    return None


def _block_type(domain):
    g, ends = domain.ttype
    if (g, ends) == (1, 1):
        return "S11"
    if (g, ends) == (0, 4):
        return "S04"
    if (g, ends) == (0, 3):
        return "S03"
    raise DomainError(f"no block type for {domain.token}")


# ---------------------------------------------------------------------------
# merging


def _core_serial(c: sf.Curve):
    kind, val = c.key()
    return (kind, str(val))


def _between_clear(core, lo, hi, sweep: bk.LevelSweep, tubes):
    """Product region between two bands: inside the model and crossed by
    no other tube."""
    if sweep.meets_between(core, lo, hi):
        return False
    for t in tubes:
        if t.band[0] >= hi or t.band[1] <= lo:
            continue
        if t.core != core and sf.intersection_number(t.core, core) > 0:
            return False
    return True


def _merge_eligible_pairs(tubes, sweep: bk.LevelSweep):
    """Same-core tube pairs (a, b, remaining tubes), in list order, that
    are homotopic in the model minus the remaining tubes."""
    for i, a in enumerate(tubes):
        for b in tubes[i + 1 :]:
            if a.core != b.core:
                continue
            lo, hi = min(a.band[1], b.band[1]), max(a.band[0], b.band[0])
            if lo > hi:
                continue
            rest = [t for t in tubes if t is not a and t is not b]
            if _between_clear(a.core, lo, hi, sweep, rest):
                yield a, b, rest


def merge_homotopic(tubes, sweep: bk.LevelSweep):
    """Merge tubes homotopic in the model minus the remaining tubes.
    Pairs are processed in ascending (level, core-serial) order until no
    merge-eligible pair remains."""
    out = list(tubes)
    while True:
        out.sort(key=lambda t: (t.band[0], _core_serial(t.core)))
        pair = next(_merge_eligible_pairs(out, sweep), None)
        if pair is None:
            return out
        a, b, rest = pair
        interface = "torus" if "torus" in (a.interface, b.interface) else "annulus"
        merged = Tube(
            tid=a.tid,
            core=a.core,
            band=(min(a.band[0], b.band[0]), max(a.band[1], b.band[1])),
            origin=a.origin,
            token=a.token,
            interface=interface,
            merged_from=a.merged_from | b.merged_from | {a.tid, b.tid},
            twist=a.twist + b.twist,
        )
        out = rest + [merged]


# ---------------------------------------------------------------------------
# decomposition


def decompose(sweep: bk.LevelSweep) -> BlockDecomposition:
    """Cut the swept model into standard blocks and a tube union, in the
    levels of its embedding."""
    if not bk.check_el(sweep):
        raise ELViolation(
            "simply degenerate descriptors repeat on homotopic supports"
        )
    sweep = normalize(sweep)
    k = sweep.complex
    e = sweep.embedding
    base = k.base
    full = sf.full_surface(base)
    max_rounds = base.complexity() - 3
    data = boundary_data(sweep)

    placed = []
    blocks = []
    tails = []

    def new_tube(core, band, rnd, origin_id, token, interface="annulus"):
        t = Tube(f"v{len(placed)}", core, band, (rnd, origin_id), token, interface)
        placed.append(t)
        return t

    def new_block(btype, token, interval, gap=None, tube=None, support=None):
        blocks.append(Block(f"b{len(blocks)}", btype, token, interval, gap, tube, support))

    # round 0: tubes along the model boundary
    for comp in sweep.boundary:
        interface = "torus" if comp.kind == "torus" else "annulus"
        new_tube(comp.core, comp.interval, 0, "boundary", "boundary", interface)

    gf_bricks = []
    # queue entries: (domain, band, kind, start datum, end datum, origin id)
    xi4_queue = []
    xi5_queue = []

    for b in k.bricks:
        band = e.level_of(b.bid)
        if _is_gf(b):
            gf_bricks.append(b.bid)
            continue
        xi = b.support.complexity()
        if xi == 3:
            new_block("S03", b.support.token, band, support=b.support)
            continue
        start = _endpoint_marking(sweep, b, "lower", data)
        end = _endpoint_marking(sweep, b, "upper", data)
        if b.kind == "half-open-below":
            start, end = end, start
        queue = xi5_queue if xi >= 5 else xi4_queue
        queue.append((b.support, band, b.kind, start, end, b.bid))

    rounds_used = 0

    # first round: complexity >= 5 bricks, recut into component pieces
    if xi5_queue:
        rounds_used += 1
        for domain, band, kind, start, end, origin_id in xi5_queue:
            if start is None or end is None:
                raise DomainError(f"brick {origin_id} is not connectable")
            vertices, pairs, end_marking, tail = _place(domain, band, kind, start, end)
            if tail is not None:
                tails.append((origin_id, tail))
            # the markings around vertex i are markings[i] and markings[i + 2]
            markings = [
                start,
                *(sf.Marking(sf.Simplex.of(full, v)) for v in vertices),
                end_marking,
            ]
            for i, (v, (tband, _)) in enumerate(zip(vertices, pairs)):
                new_tube(v, tband, rounds_used, origin_id, full.token)
                for y in sf.component_domains(full, markings[i + 1].base):
                    if y.kind == "annulus":
                        continue
                    if y.complexity() == 3:
                        new_block("S03", y.token, tband, support=y)
                        continue
                    if y.chart is None:
                        new_block(_block_type(y), y.token, tband, support=y)
                        continue
                    back = sf.restrict_marking(markings[i], y)
                    fwd = sf.restrict_marking(markings[i + 2], y)
                    if back is None or fwd is None:
                        new_block(_block_type(y), y.token, tband, support=y)
                        continue
                    xi4_queue.append((y, tband, "closed", back, fwd, origin_id))

    # final round: complexity-4 placements with gap bands
    if xi4_queue:
        rounds_used += 1
        for domain, band, kind, start, end, origin_id in xi4_queue:
            if domain.chart is not None:
                # the fronts the start and end data lie beyond
                fronts = [(band[0], "below"), (band[1], "above")]
                if kind == "half-open-below":
                    fronts.reverse()
                if start is None:
                    start = _nearby_tube_marking(domain, placed, *fronts[0])
                if end is None:
                    end = _nearby_tube_marking(domain, placed, *fronts[1])
            if start is None or end is None or domain.chart is None:
                new_block(_block_type(domain), domain.token, band, support=domain)
                continue
            vertices, pairs, _, tail = _place(domain, band, kind, start, end)
            if tail is not None:
                tails.append((origin_id, tail))
            for v, (tband, wband) in zip(vertices, pairs):
                core = hy.ambient_curve(v)
                t = new_tube(core, tband, rounds_used, origin_id, domain.token)
                gap = (
                    (tband[1], wband[1])
                    if tband[1] < wband[1]
                    else (wband[0], tband[0])
                )
                if gap[0] == gap[1]:
                    gap = None
                new_block(
                    _block_type(domain), domain.token, wband,
                    gap=gap, tube=t.tid, support=domain,
                )

    if rounds_used > max_rounds:
        raise IterationOverflow("round count exceeded the complexity bound")

    tubes = merge_homotopic(placed, sweep)
    blocks, adjustments = _enforce_bb(blocks, sweep)

    torus = tuple(t.tid for t in tubes if t.interface == "torus")
    graph = []
    for bl in blocks:
        for t in tubes:
            if t.band[0] < bl.interval[1] and bl.interval[0] < t.band[1]:
                graph.append((bl.blid, t.tid))
    return BlockDecomposition(
        sweep=sweep,
        blocks=tuple(blocks),
        tubes=tuple(tubes),
        placed=tuple(placed),
        torus_tubes=torus,
        gf_bricks=tuple(gf_bricks),
        graph=tuple(graph),
        adjustments=tuple(adjustments),
        tails=tuple(tails),
        rounds_used=rounds_used,
    )


# ---------------------------------------------------------------------------
# vertical re-leveling of fronts crossing gap bands


def _bb_violations(blocks, sweep: bk.LevelSweep, adjusted=frozenset()):
    out = []
    fronts = bk.critical_levels(sweep.complex, sweep.embedding)
    for bl in blocks:
        if bl.gap is None:
            continue
        for f in fronts:
            if f in adjusted:
                continue
            if bl.gap[0] < f < bl.gap[1]:
                out.append((bl.blid, f))
    return out


def _enforce_bb(blocks, sweep: bk.LevelSweep):
    """Re-level embedded brick fronts landing inside a complexity-4 gap
    band to the tube boundary just below the gap."""
    adjustments = []
    moved = {}
    for blid, f in _bb_violations(blocks, sweep):
        bl = next(b for b in blocks if b.blid == blid)
        if f not in moved:
            moved[f] = bl.gap[0]
            adjustments.append({"front": f, "to": bl.gap[0], "flag": "bb"})
    if not moved:
        return tuple(blocks), ()
    out = []
    for bl in blocks:
        iv = tuple(moved.get(x, x) for x in bl.interval)
        gap = bl.gap
        if gap is not None:
            gap = tuple(moved.get(x, x) for x in gap)
        out.append(replace(bl, interval=iv, gap=gap))
    return tuple(out), tuple(adjustments)


# ---------------------------------------------------------------------------
# verification


def verify_decomposition(d: BlockDecomposition):
    """Structural report: block types, tube interfaces, disjoint bands
    for crossing cores, no merge-eligible pair, gap bands clear of brick
    fronts of the normalized model."""
    report = []
    sweep = d.sweep
    for bl in d.blocks:
        if bl.btype not in BLOCK_TYPES:
            report.append(f"block {bl.blid} has type {bl.btype}")
        if bl.gap is not None and not (
            bl.interval[0] <= bl.gap[0] <= bl.gap[1] <= bl.interval[1]
        ):
            report.append(f"block {bl.blid} gap outside its interval")
    for t in d.tubes:
        if t.interface not in ("torus", "annulus"):
            report.append(f"tube {t.tid} interface {t.interface}")
    for i, a in enumerate(d.tubes):
        for b in d.tubes[i + 1 :]:
            overlap = a.band[0] < b.band[1] and b.band[0] < a.band[1]
            if not overlap:
                continue
            if a.core == b.core:
                report.append(f"tubes {a.tid},{b.tid} overlap with one core")
            elif sf.intersection_number(a.core, b.core) > 0:
                report.append(
                    f"tubes {a.tid},{b.tid} overlap with crossing cores"
                )
    for a, b, _ in _merge_eligible_pairs(list(d.tubes), sweep):
        report.append(f"tubes {a.tid},{b.tid} are still merge-eligible")
    adjusted = frozenset(a["front"] for a in d.adjustments)
    for blid, f in _bb_violations(d.blocks, sweep, adjusted):
        report.append(f"front at {f} crosses the gap of block {blid}")
    return (not report, report)


# ---------------------------------------------------------------------------
# hierarchy cross-check


def hierarchy_crosscheck(b: bk.Brick, d: BlockDecomposition) -> bool:
    """Single-brick models: the hierarchy built from the brick's endpoint
    markings must induce the same tubes, with three-holed-sphere blocks
    matched up to halving."""
    base = b.support.ambient
    h = hy.build_hierarchy(base, b.initial, b.terminal)

    expected = {}
    for g in sorted(h.geodesics, key=lambda g: g.gid):
        if g.domain.kind == "annulus":
            continue
        seq = expected.setdefault(g.domain.token, [])
        for v in g.simplices:
            for c in v.sorted_curves():
                seq.append(hy.ambient_curve(c))

    tubes = [t for t in d.placed if t.origin[1] != "boundary"]
    got = {}
    for t in sorted(tubes, key=lambda t: t.band[0]):
        got.setdefault(t.token, []).append(t.core)
    if got != expected:
        return False
    if h.domain.complexity() >= 5:
        pants_expected = 0
        for v in h.main.simplices:
            for y in sf.component_domains(h.domain, v):
                if y.kind == "proper" and y.complexity() == 3:
                    pants_expected += 1
        s03 = sum(1 for bl in d.blocks if bl.btype == "S03")
        if pants_expected and s03 not in (pants_expected, 2 * pants_expected):
            return False
    return True
