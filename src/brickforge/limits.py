"""Scenario generators and the geometric-limit pipeline driver.

The built-in scenarios are product models of a surface times an interval
with material removed at interior levels: a single thickened tube
(twist-family limits), a zero-thickness subsurface leaf (whose two faces
become simply degenerate ends), and a finite tower of tubes with
alternating crossing cores (nested-cusp limits).
"""

from __future__ import annotations

from fractions import Fraction

from . import blocks as bl
from . import bricks as bk
from . import hierarchy as hy
from . import serialize as sz
from . import surfaces as sf
from .config import get_budget
from .errors import BudgetExceeded, ObstructionSearchFailure
from .farey import enumerate_slopes
from .records import Memo, record, replace

SCENARIO_KINDS = ("kerckhoff-thurston", "brock", "bonahon-otal")


@record
class Scenario:
    kind: str
    base: sf.Surface
    depth: int = 1

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind}")
        if self.kind == "bonahon-otal" and self.depth < 1:
            raise ValueError("nesting depth must be at least 1")


def _pants_curves(full):
    """A pants decomposition of the base, for inert conformal records."""
    if full.ambient == sf.TORUS_1_2:
        return (sf.line_class(full, 0, 1, 0), sf.line_class(full, 0, 1, 1))
    return (sf.slope_curve(full, 0, 1),)


def _gf_label(bid, full, twist=Fraction(0)):
    conformal = tuple((c, Fraction(1), twist) for c in _pants_curves(full))
    return bk.EndLabel(bid, "geometrically-finite", conformal=conformal)


def _assemble(base, removals, lo_m, hi_m, top_twist=Fraction(0)):
    """Product model minus the given thickened tubes, with full buffer
    bricks so that both geometrically finite fronts are inessential
    joints.  removals is a level-sorted list of (core, (lo, hi)) with
    pairwise disjoint bands inside (lo_m, hi_m)."""
    full = sf.full_surface(base)
    d = len(removals)
    bricks = []
    joints = []
    bricks.append(
        bk.Brick("gf0", full, "half-open-below", Fraction(0), lo_m,
                 label=_gf_label("gf0", full))
    )
    prev_top = lo_m
    for k, (core, (t_lo, t_hi)) in enumerate(removals, start=1):
        buf = f"buf{k - 1}"
        bricks.append(bk.Brick(buf, full, "closed", prev_top, t_lo))
        if k == 1:
            joints.append(bk.Joint(buf, "gf0", full))
        else:
            for i, y in enumerate(sf.proper_pieces(full, removals[k - 2][0])):
                joints.append(bk.Joint(buf, f"t{k - 1}p{i}", y))
        for i, y in enumerate(sf.proper_pieces(full, core)):
            bid = f"t{k}p{i}"
            bricks.append(bk.Brick(bid, y, "closed", t_lo, t_hi))
            joints.append(bk.Joint(bid, buf, y))
        prev_top = t_hi
    top_buf = f"buf{d}"
    bricks.append(bk.Brick(top_buf, full, "closed", prev_top, hi_m))
    if removals:
        for i, y in enumerate(sf.proper_pieces(full, removals[-1][0])):
            joints.append(bk.Joint(top_buf, f"t{d}p{i}", y))
    else:
        joints.append(bk.Joint(top_buf, "gf0", full))
    bricks.append(
        bk.Brick("gf1", full, "half-open-above", hi_m, Fraction(1),
                 label=_gf_label("gf1", full, twist=top_twist))
    )
    joints.append(bk.Joint("gf1", top_buf, full))
    k = bk.BrickComplex(base=base, bricks=tuple(bricks), joints=tuple(joints))
    return k, bk.identity_embedding(k)


def _tower(base, cores, top_twist=Fraction(0)):
    d = len(cores)
    lo_m, hi_m = Fraction(1, 8), Fraction(7, 8)
    width = Fraction(1, 8 * (d + 1))
    centers = [lo_m + Fraction(3 * k, 4 * (d + 1)) for k in range(1, d + 1)]
    removals = [
        (core, (center - width, center + width))
        for core, center in zip(cores, centers)
    ]
    return _assemble(base, removals, lo_m, hi_m, top_twist=top_twist)


def _generate_kt(s: Scenario):
    full = sf.full_surface(s.base)
    return _tower(s.base, [_pants_curves(full)[0]], top_twist=Fraction(s.depth))


def _generate_bo(s: Scenario):
    full = sf.full_surface(s.base)
    if s.base == sf.TORUS_1_2:
        pair = (sf.line_class(full, 0, 1, 0), sf.line_class(full, 1, 0))
    else:
        pair = (sf.slope_curve(full, 0, 1), sf.slope_curve(full, 1, 0))
    cores = [pair[k % 2] for k in range(s.depth)]
    return _tower(s.base, cores)


def _generate_brock(s: Scenario):
    if s.base != sf.TORUS_1_2:
        raise ValueError("removed-leaf scenarios need a separating curve")
    full = sf.full_surface(s.base)
    sigma = sf.slot_class(full, (0, 0), (1, 0))
    torus_side, pants_side = sf.proper_pieces(full, sigma)
    tag = sf.curve_tag(sigma)
    half = Fraction(1, 2)
    a, b = Fraction(2, 5), Fraction(3, 5)
    lo_m, hi_m = Fraction(1, 8), Fraction(7, 8)

    def lam(coeffs):
        return sf.LaminationDescriptor(torus_side, sf.IrrationalSlope(coeffs))

    bricks = (
        bk.Brick("gf0", full, "half-open-below", Fraction(0), lo_m,
                 label=_gf_label("gf0", full)),
        bk.Brick("buf0", full, "closed", lo_m, a),
        bk.Brick("p", pants_side, "closed", a, b, collars=(tag,)),
        bk.Brick("h0", torus_side, "half-open-above", a, half,
                 label=bk.EndLabel("h0", "simply-degenerate", lamination=lam((1, 1, 1, 1)))),
        bk.Brick("h1", torus_side, "half-open-below", half, b,
                 label=bk.EndLabel("h1", "simply-degenerate", lamination=lam((2, 2, 2, 2)))),
        bk.Brick("buf1", full, "closed", b, hi_m),
        bk.Brick("gf1", full, "half-open-above", hi_m, Fraction(1),
                 label=_gf_label("gf1", full)),
    )
    joints = (
        bk.Joint("buf0", "gf0", full),
        bk.Joint("p", "buf0", pants_side),
        bk.Joint("h0", "buf0", torus_side),
        bk.Joint("buf1", "p", pants_side),
        bk.Joint("buf1", "h1", torus_side),
        bk.Joint("gf1", "buf1", full),
    )
    k = bk.BrickComplex(base=s.base, bricks=bricks, joints=joints)
    return k, bk.identity_embedding(k)


def generate(s: Scenario):
    """Build (LabelledBrickManifold, LeafEmbedding) for a scenario."""
    if s.kind == "kerckhoff-thurston":
        k, e = _generate_kt(s)
    elif s.kind == "bonahon-otal":
        k, e = _generate_bo(s)
    else:
        k, e = _generate_brock(s)
    # the one wrapped result: bench/make_inputs.py reads its .complex
    return bk.LabelledBrickManifold(k), e


# The process-wide memos of this module hold at most this many entries;
# an entry keeps a 10-40 KB level sweep.
_MAX_KEPT = 64

# Scenario -> the level sweep of its generated model
_SCENARIO_SWEEPS = Memo(_MAX_KEPT)


def scenario_sweep(s: Scenario) -> bk.LevelSweep:
    """The level sweep of a scenario's generated model, built once per
    process for each scenario.  This is exact: the generators and the
    sweep read nothing but the scenario and build their curves from fixed
    descriptions, and the sweep keeps its decompositions, which read
    nothing but the sweep and the budget."""

    def build():
        m, e = generate(s)
        return bk.LevelSweep.of(m.complex, e)

    return _SCENARIO_SWEEPS.keep(s, build)


# ---------------------------------------------------------------------------
# ascending exhaustions


@record
class ExhaustionState:
    n: int
    window: tuple  # (lo, hi) truncation levels of this stage
    w: bk.BrickComplex  # W_n, the truncated sub-brick-manifold
    w_embedding: bk.LeafEmbedding
    stable: tuple  # (brick id, brick) for untruncated bricks
    ext: tuple  # tube ids whose band crosses the window boundary
    obstructors: tuple  # added (core, band) pairs
    z: bk.LevelSweep  # product minus tubes and obstructors
    acylindrical: bool


def _truncate_model(k, e, window):
    """Restriction of the model to a window of embedded levels; half-open
    bricks cut at the window edge become closed there."""
    w_lo, w_hi = window
    bricks = []
    levels = []
    for b in k.bricks:
        alpha, beta = e.level_of(b.bid)
        if beta <= w_lo or alpha >= w_hi:
            continue
        lo, hi = max(alpha, w_lo), min(beta, w_hi)
        kind = bk.interval_kind(
            b.open_below() and lo == alpha, b.open_above() and hi == beta
        )
        if (kind, lo, hi) != (b.kind, b.lo, b.hi):
            b = replace(b, kind=kind, lo=lo, hi=hi)
        bricks.append(b)
        levels.append((b.bid, (lo, hi)))
    kept = {b.bid for b in bricks}
    joints = tuple(
        j
        for j in k.joints
        if j.upper in kept and j.lower in kept and w_lo < e.level_of(j.upper)[0] < w_hi
    )
    w = bk.BrickComplex(base=k.base, bricks=tuple(bricks), joints=joints)
    return w, bk.LeafEmbedding(tuple(levels))


def _crossing_candidates(base, core):
    """Curves meeting the core, cheapest first."""
    full = sf.full_surface(base)
    if base == sf.TORUS_1_2:
        pool = hy.ambient_universe(1)
    else:
        pool = [sf.slope_curve(full, s.p, s.q) for s in enumerate_slopes(3)]
    scored = []
    for c in pool:
        i = sf.intersection_number(c, core)
        if i > 0:
            scored.append((i, repr(c), c))
    scored.sort(key=lambda t: t[:2])
    return [c for _, _, c in scored]


def _disjoint_bands(pairs):
    """Greedy maximal subset of (core, band) with pairwise disjoint
    level bands, sorted by band."""
    out = []
    for core, band in sorted(pairs, key=lambda t: t[1]):
        if out and band[0] < out[-1][1][1]:
            continue
        out.append((core, band))
    return out


def _assemble_z(base, removals, obstructors):
    pairs = _disjoint_bands(list(removals) + list(obstructors))
    if not pairs:
        return _assemble(base, [], Fraction(1, 8), Fraction(7, 8))
    lo_m = pairs[0][1][0] / 2
    hi_m = (pairs[-1][1][1] + 1) / 2
    return _assemble(base, pairs, lo_m, hi_m)


def _find_obstructors(base, removals):
    """Tubes killing every unobstructed annulus between the removed
    tubes, chosen greedily with minimal crossing cores.  Returns the
    obstructors and the level sweep of the approximant Z."""
    obstructors = []
    limit = len(removals) + 8
    for _ in range(limit):
        sweep = bk.LevelSweep.of(*_assemble_z(base, removals, obstructors))
        gap = next(bk.boundary_gaps(sweep), None)
        if gap is None:
            return obstructors, sweep
        core, lo, hi = gap
        width = (hi - lo) / 8
        mid = (lo + hi) / 2
        candidates = _crossing_candidates(base, core)
        if not candidates:
            raise ObstructionSearchFailure(
                f"no crossing curve for {core!r} in the enumeration"
            )
        obstructors.append((candidates[0], (mid - width, mid + width)))
    raise ObstructionSearchFailure(
        "obstructor search did not stabilize within the iteration bound"
    )


# (base, removals) -> (obstructors, Z, the A2 oracle's verdict on Z)
_APPROXIMANTS = Memo(_MAX_KEPT)


def _approximant(base, removals):
    """The obstructors, the approximant Z and the brute-force oracle's
    verdict on Z, searched once per process for each removal set: the
    search reads nothing but the key, and curves compare by class."""

    def search():
        obstructors, z = _find_obstructors(base, removals)
        return tuple(obstructors), z, bk.check_a2_bruteforce(z)

    return _APPROXIMANTS.keep((base, tuple(removals)), search)


def exhaust(sweep: bk.LevelSweep, stages: int):
    """Ascending truncations W_n with externally crossing tubes, plus
    acylindrical finite approximants Z_n, for the swept model."""
    k, e = sweep.complex, sweep.embedding
    d = bl.decompose(sweep)
    tubes = sorted(d.tubes, key=lambda v: (v.band, v.tid))
    span_lo, span_hi = sweep.span
    width = span_hi - span_lo
    # a tube whose band reaches the span edge fits in no window
    interior = sum(
        1 for v in tubes if span_lo < v.band[0] and v.band[1] < span_hi
    )
    tori = [c for c in sweep.boundary if c.kind == "torus"]
    out = []
    margin = width / 8
    for n in range(1, stages + 1):
        margin = margin / 2
        window = (span_lo + margin, span_hi - margin)
        want = min(n, interior)
        while (
            sum(
                1
                for v in tubes
                if window[0] <= v.band[0] and v.band[1] <= window[1]
            )
            < want
        ):
            margin = margin / 2
            window = (span_lo + margin, span_hi - margin)
        wk, we = _truncate_model(k, e, window)
        stable = tuple(
            (b.bid, b)
            for b in wk.bricks
            if e.level_of(b.bid) == we.level_of(b.bid)
        )
        ext = tuple(
            v.tid
            for v in tubes
            if v.band[0] < window[0] < v.band[1]
            or v.band[0] < window[1] < v.band[1]
        )
        # removed regions come from the model's own boundary tori, which
        # keep parallel tubes separate even when the tube union merges
        # them into one homotopy class
        removals = [
            (c.core, c.interval)
            for c in tori
            if window[0] < c.interval[1] and c.interval[0] < window[1]
        ]
        # the search has shown A2 on Z; the flag is the brute-force
        # oracle's independent verdict on that answer
        obstructors, z, acyl = _approximant(k.base, removals)
        out.append(
            ExhaustionState(
                n=n,
                window=window,
                w=wk,
                w_embedding=we,
                stable=stable,
                ext=ext,
                obstructors=obstructors,
                z=z,
                acylindrical=acyl,
            )
        )
    return out


def exhaustion_docs(states) -> list:
    """Per-stage reports in the shared document format.  A stage repeats
    the bricks of the stages before it, and stages often share their
    approximant, so the stages are built with one memo of documents."""
    docs = {}
    return [
        {
            "stage": state.n,
            "window": [sz.frac_str(state.window[0]), sz.frac_str(state.window[1])],
            "w": sz.complex_doc(state.w, state.w_embedding, docs),
            "stable-bricks": sorted(bid for bid, _ in state.stable),
            "external-tubes": list(state.ext),
            "obstructors": [
                {
                    "core": sz.curve_str(core),
                    "band": [sz.frac_str(band[0]), sz.frac_str(band[1])],
                }
                for core, band in state.obstructors
            ],
            "z": sz.complex_doc(state.z.complex, state.z.embedding, docs),
            "acylindrical": state.acylindrical,
            "assumed": [
                "hyperbolization of the finite approximant",
                "quasi-Fuchsian approximation",
                "strong convergence of the approximants",
            ],
        }
        for state in states
    ]


# ---------------------------------------------------------------------------
# limit classification report


def verify_theorem_a(sweep: bk.LevelSweep) -> dict:
    """End and boundary classification report for the swept labelled
    model."""
    k, e = sweep.complex, sweep.embedding
    conditions = bk.check_conditions(sweep)
    comps = sweep.boundary
    ends = bk.classify_ends(sweep)
    if len(ends) >= get_budget():
        raise BudgetExceeded(f"{len(ends)} ends reach the enumeration budget")
    gf_bricks = [
        b.bid
        for b in k.bricks
        if b.label is not None and b.label.kind == "geometrically-finite"
    ]
    peripheral = bk.peripheral_gf_bricks(sweep)
    gf_ends = [x for x in ends if x.kind == "GF"]
    bound = 4 * k.base.genus - 4 + 2 * k.base.punctures
    basepoint = min(
        (e.level_of(b.bid), b.bid) for b in k.bricks
    )
    checks = {
        "boundary-types": conditions["A1"],
        "acylindrical": conditions["A2"],
        "wild-ends": conditions["A3"],
        "leaf-embedding": conditions["A4"] and conditions["A5"],
        "peripheral-gf": set(gf_bricks) == set(peripheral),
        "finite-ends": True,  # checked against the budget above
        "gf-end-bound": len(gf_ends) <= bound,
    }
    return {
        "basepoint": {
            "brick": basepoint[1],
            "level": sz.frac_str(basepoint[0][0]),
        },
        "boundary": sorted(c.kind for c in comps),
        "ends": sorted((x.kind, x.brick_id, x.side) for x in ends),
        "gf-end-bound": bound,
        "checks": checks,
        "pass": all(checks.values()),
        "assumed": [
            "hyperbolization of the finite approximants",
            "quasi-Fuchsian approximation",
            "strong convergence",
        ],
    }
