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

from bisect import bisect_right, insort
from fractions import Fraction
from heapq import heappop, heappush

from . import bricks as bk
from . import hierarchy as hy
from . import surfaces as sf
from .errors import (
    BudgetExceeded,
    DomainError,
    ELViolation,
    MissingLabel,
)
from .records import record, replace

BLOCK_TYPES = ("S03", "S04", "S11")
TUBE_INTERFACES = ("torus", "annulus")


@record
class Tube:
    tid: str
    core: sf.Curve  # ambient curve class
    band: tuple  # (lo, hi) rationals
    origin: tuple  # (round number, brick id or "boundary")
    token: str  # placement domain token
    interface: str = "annulus"  # M[0]-interface: "torus" or "annulus"
    twist: int = 0

    def __post_init__(self):
        if self.interface not in TUBE_INTERFACES:
            raise ValueError(f"unknown tube interface {self.interface}")


@record
class Block:
    blid: str
    btype: str
    support: sf.EssentialSubsurface  # placement domain
    interval: tuple
    gap: tuple = None  # gap band inside the interval, complexity-4 only
    tube: str = None  # id of the tube whose vertex interval this is

    def __post_init__(self):
        if self.btype not in BLOCK_TYPES:
            raise ValueError(f"unknown block type {self.btype}")


@record
class BlockDecomposition:
    sweep: bk.LevelSweep  # of the normalized model, in its embedding's levels
    blocks: tuple
    tubes: tuple  # after merging
    placed: tuple  # tubes before merging, for per-round accounting
    adjustments: tuple  # (BB) re-levelings, (front, to) pairs
    rounds_used: int

    @property
    def torus_tubes(self) -> tuple:
        """Ids of the tubes with torus interface, in tube order."""
        return tuple(t.tid for t in self.tubes if t.interface == "torus")


# ---------------------------------------------------------------------------
# exact tube bands


def tube_bands(band, n: int, kind: str, gap: bool):
    """(tube band, wide band, gap band) of each vertex v_0..v_n of a
    geodesic placed over the level band of a brick of the given kind.

    Vertex i's wide band lies between the cuts c_i and c_{i+1}, measured
    from the brick's real front: c_i = i/(n+1) on a closed brick, and
    1 - 1/2^i on a half-open one, where the bands accumulate at the open
    end.  With gap bands (complexity 4) the tube is the half of its wide
    band nearer the real front and the gap is the other half; otherwise
    the tube fills its wide band and there is no gap."""
    lo, hi = band
    down = kind == "half-open-below"  # the real front is the top
    front, width = (hi, lo - hi) if down else (lo, hi - lo)

    def span(near, far):
        return (far, near) if down else (near, far)

    if kind == "closed":
        cuts = [Fraction(i, n + 1) for i in range(n + 2)]
    else:
        cuts = [1 - Fraction(1, 2**i) for i in range(n + 2)]
    out = []
    for a, b in zip(cuts, cuts[1:]):
        near, far = front + a * width, front + b * width
        wide = span(near, far)
        if gap:
            mid = (near + far) / 2
            out.append((span(near, mid), wide, span(mid, far)))
        else:
            out.append((wide, wide, None))
    return out


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
    for comp in sweep.boundary_at(level):
        c = comp.core
        if b.support.kind == "full" or bk.curve_in_domain(b.support, c):
            if c not in out:
                out.append(c)
    return out


def _split_brick(b: bk.Brick, c: sf.Curve):
    """Replace a brick by the complement pieces of a vertical annulus."""
    if b.support.kind != "full":
        raise DomainError("splitting is only needed on full-support bricks")
    pieces = sf.proper_pieces(sf.full_surface(b.support.ambient), c)
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
# endpoint markings


def _endpoint_marking(sweep, b, side):
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
    alpha, beta = sweep.embedding.level_of(b.bid)
    front = alpha if side == "lower" else beta
    curves = []
    for j in k.joints_at(b.bid, side):
        partner = k.brick(j.lower if j.upper == b.bid else j.upper)
        if _is_gf(partner) and j.is_inessential(k):
            for c, _, _ in partner.label.conformal or ():
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
    return sf.Marking(sf.Simplex(domain, usable))


# ---------------------------------------------------------------------------
# geodesics and placement


def _main_geodesic(domain, band, kind, start, end):
    """One tight-geodesic placement over a level band of a domain, from a
    marking toward a marking or lamination: the main geodesic above
    complexity 4, the complexity-4 geodesic with gap bands otherwise.
    Returns the vertex curves, their (tube band, wide band, gap band)
    triples and the finite stand-in for the far end."""
    vertices, end_marking = hy.tight_geodesic(domain, start, end)
    gap = domain.complexity() < 5
    bands = tube_bands(band, len(vertices) - 1, kind, gap)
    return vertices, bands, end_marking


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


def _merge_eligible_pairs(tubes, sweep: bk.LevelSweep):
    """Same-core tube pairs (a, b, remaining tubes), in list order, that
    are homotopic in the model minus the remaining tubes: the sweep joins
    their bands, and no remaining tube with a crossing core overlaps the
    gap."""
    for i, j, lo, hi in sweep.joined([(t.core, t.band) for t in tubes]):
        a, b = tubes[i], tubes[j]
        rest = [t for t in tubes if t is not a and t is not b]
        if not any(
            t.band[0] < hi
            and lo < t.band[1]
            and t.core != a.core
            and sf.intersection_number(t.core, a.core) > 0
            for t in rest
        ):
            yield a, b, rest


def merge_homotopic(tubes, sweep: bk.LevelSweep):
    """Merge tubes homotopic in the model minus the remaining tubes, as a
    loop would that sorts the tubes stably by (level, core serial) and
    merges the first merge-eligible pair until none is left.

    One pass over the same-core pairs in (level, core serial, arrival)
    order makes the same merges, testing each pair at most once.  A pair
    found ineligible stays so: its bands and slits do not change, and a
    tube blocking it only ever merges into a wider tube of its core.  Each
    tube queues its pairs with the tubes above it one at a time, in that
    order, and stops at the first whose gap meets a slit, since the gaps
    to the tubes higher up hold that slit.  A merged tube starts where its
    lower part did, so its pair with a tube below has the gap of that
    tube's pair with the lower part, and is ineligible once the queue of
    the tube below has passed.  Levels compare as integer keys."""
    _, keys = bk._integer_keys([x for t in tubes for x in t.band])
    held = []  # per arrival: (place, tube, band keys), None once merged
    live = []  # places (level key, core serial, arrival) of held tubes, in order
    same = {}  # core -> places of its held tubes, in order
    pairs = []  # heap of queued pairs, as place + place
    stopped = set()  # arrivals whose queue stopped at a slit

    def hold(t, lo, hi):
        place = (lo, _core_serial(t.core), len(held))
        held.append((place, t, (lo, hi)))
        insort(live, place)
        insort(same.setdefault(t.core, []), place)
        return place

    def queue(place, after):
        """Queue a tube's pair with the next tube of its core above a place."""
        above = same[held[place[2]][1].core]
        k = bisect_right(above, after)
        if k < len(above):
            heappush(pairs, place + above[k])

    for place in [hold(*tube) for tube in zip(tubes, keys[::2], keys[1::2])]:
        queue(place, place)
    while pairs:
        pair = heappop(pairs)
        (lo_a, _, i), (lo_b, _, j) = pair[:3], pair[3:]
        if held[i] is None or i in stopped:
            continue
        queue(pair[:3], pair[3:])
        if held[j] is None:
            continue
        (_, a, (_, hi_a)), (_, b, (_, hi_b)) = held[i], held[j]
        lo, hi = min(hi_a, hi_b), max(lo_a, lo_b)
        if sweep.clear_gap(a.core, a.band, b.band) is None:
            if lo <= hi:  # a lies below b, and the gap meets a slit
                stopped.add(i)
            continue
        if any(
            t_lo < hi
            and lo < t_hi
            and t.core != a.core
            and sf.intersection_number(t.core, a.core) > 0
            for _, t, (t_lo, t_hi) in (held[p[2]] for p in live)
        ):
            continue
        for n in (i, j):
            live.remove(held[n][0])
            same[a.core].remove(held[n][0])
            held[n] = None
        interface = "torus" if "torus" in (a.interface, b.interface) else "annulus"
        merged = Tube(
            tid=a.tid,
            core=a.core,
            band=(min(a.band[0], b.band[0]), max(a.band[1], b.band[1])),
            origin=a.origin,
            token=a.token,
            interface=interface,
            twist=a.twist + b.twist,
        )
        place = hold(merged, min(lo_a, lo_b), max(hi_a, hi_b))
        queue(place, place)
    return [held[p[2]][1] for p in live]


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
    full = sf.full_surface(k.base)
    # marking sources: boundary-annulus cores, end labels, explicit records
    if not sweep.boundary and all(
        b.label is None and b.initial is None and b.terminal is None
        for b in k.bricks
    ):
        raise MissingLabel("model carries no marking data")

    placed = []
    blocks = []

    def new_tube(core, band, rnd, origin_id, token, interface="annulus"):
        t = Tube(f"v{len(placed)}", core, band, (rnd, origin_id), token, interface)
        placed.append(t)
        return t

    def new_block(btype, support, interval, gap=None, tube=None):
        blocks.append(Block(f"b{len(blocks)}", btype, support, interval, gap, tube))

    # round 0: tubes along the model boundary
    for comp in sweep.boundary:
        interface = "torus" if comp.kind == "torus" else "annulus"
        new_tube(comp.core, comp.interval, 0, "boundary", "boundary", interface)

    # queue entries: (domain, band, kind, start datum, end datum, origin id)
    xi4_queue = []
    xi5_queue = []

    for b in k.bricks:
        band = e.level_of(b.bid)
        if _is_gf(b):
            continue
        xi = b.support.complexity()
        if xi == 3:
            new_block("S03", b.support, band)
            continue
        start = _endpoint_marking(sweep, b, "lower")
        end = _endpoint_marking(sweep, b, "upper")
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
            vertices, bands, end_marking = _main_geodesic(domain, band, kind, start, end)
            for v, (tband, _, _) in zip(vertices, bands):
                new_tube(v, tband, rounds_used, origin_id, full.token)
            # a piece without two-sided subordinacy data is a block, pants
            # and pieces without a chart included
            walk = hy.subordinate_markings(full, vertices, start, end_marking)
            for i, y, back, fwd in walk:
                if y.kind == "annulus":
                    continue
                tband = bands[i][0]
                if back is None or fwd is None:
                    new_block(_block_type(y), y, tband)
                else:
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
                new_block(_block_type(domain), domain, band)
                continue
            vertices, bands, _ = _main_geodesic(domain, band, kind, start, end)
            for v, (tband, wband, gap) in zip(vertices, bands):
                core = hy.ambient_curve(v)
                t = new_tube(core, tband, rounds_used, origin_id, domain.token)
                new_block(_block_type(domain), domain, wband, gap=gap, tube=t.tid)

    tubes = merge_homotopic(placed, sweep)
    blocks, adjustments = _enforce_bb(blocks, sweep)

    return BlockDecomposition(
        sweep=sweep,
        blocks=tuple(blocks),
        tubes=tuple(tubes),
        placed=tuple(placed),
        adjustments=adjustments,
        rounds_used=rounds_used,
    )


# ---------------------------------------------------------------------------
# vertical re-leveling of fronts crossing gap bands


def _bb_violations(blocks, sweep: bk.LevelSweep, adjusted=frozenset()):
    """(block, front) for each embedded brick front inside a block's gap
    band, except the adjusted ones."""
    fronts = sweep.levels
    for bl in blocks:
        if bl.gap is None:
            continue
        lo, hi = bl.gap
        for f in fronts[sweep.rank(lo, right=True) : sweep.rank(hi)]:
            if f not in adjusted:
                yield bl, f


def _enforce_bb(blocks, sweep: bk.LevelSweep):
    """Re-level embedded brick fronts landing inside a complexity-4 gap
    band to the tube boundary just below the gap.  Returns the blocks and
    the (front, to) pairs, in the order the fronts were found."""
    moved = {}
    for bl, f in _bb_violations(blocks, sweep):
        moved.setdefault(f, bl.gap[0])
    if not moved:
        return tuple(blocks), ()
    out = []
    for bl in blocks:
        iv = tuple(moved.get(x, x) for x in bl.interval)
        gap = bl.gap
        if gap is not None:
            gap = tuple(moved.get(x, x) for x in gap)
        out.append(replace(bl, interval=iv, gap=gap))
    return tuple(out), tuple(moved.items())


# ---------------------------------------------------------------------------
# verification


def verify_decomposition(d: BlockDecomposition):
    """Structural report: gap bands inside their blocks, disjoint bands
    for crossing cores, no merge-eligible pair, gap bands clear of brick
    fronts of the normalized model."""
    report = []
    sweep = d.sweep
    for bl in d.blocks:
        if bl.gap is not None and not (
            bl.interval[0] <= bl.gap[0] <= bl.gap[1] <= bl.interval[1]
        ):
            report.append(f"block {bl.blid} gap outside its interval")
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
    adjusted = frozenset(front for front, _ in d.adjustments)
    for bl, f in _bb_violations(d.blocks, sweep, adjusted):
        report.append(f"front at {f} crosses the gap of block {bl.blid}")
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
        seq.extend(hy.ambient_curve(v) for v in g.vertices)

    tubes = [t for t in d.placed if t.origin[1] != "boundary"]
    got = {}
    for t in sorted(tubes, key=lambda t: t.band[0]):
        got.setdefault(t.token, []).append(t.core)
    if got != expected:
        return False
    if h.domain.complexity() >= 5:
        pants_expected = 0
        for v in h.main.vertices:
            for y in sf.proper_pieces(h.domain, v):
                if y.complexity() == 3:
                    pants_expected += 1
        s03 = sum(1 for bl in d.blocks if bl.btype == "S03")
        if pants_expected and s03 not in (pants_expected, 2 * pants_expected):
            return False
    return True
