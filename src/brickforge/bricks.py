"""Bricks, brick complexes, labelled brick manifolds, and embeddings.

A brick is a product of an essential subsurface with a level interval in
(0,1).  A brick complex is a finite family of bricks with disjoint
interiors glued along joints.  Supports are closed component-domain
pieces; a brick may additionally carry the collar annulus of a boundary
curve (field `collars`), which decides whether the annular region next
to that curve belongs to the embedded image.  This distinction is what
separates a removed thickened tube (annular slit, torus boundary) from a
removed zero-thickness leaf (no slit away from the removal level).

Levels are exact rationals; all slit and boundary computations sample
midpoints between critical levels, which is exact for piecewise-product
models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import surfaces as sf
from .errors import (
    AbsorptionFailure,
    DomainError,
    NonStabilizing,
    NotAscending,
)

KINDS = ("closed", "half-open-below", "half-open-above", "open")


def interval_kind(open_below: bool, open_above: bool) -> str:
    """The interval kind with the given open ends."""
    return KINDS[open_below + 2 * open_above]


@dataclass(frozen=True)
class Brick:
    bid: str
    support: sf.EssentialSubsurface
    kind: str
    lo: Fraction
    hi: Fraction
    collars: tuple = ()  # curve tags whose collar annulus the brick covers
    label: object = None  # EndLabel or None
    initial: object = None  # Marking or LaminationDescriptor, decomposer input
    terminal: object = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown interval kind {self.kind}")
        if not self.lo < self.hi:
            raise ValueError("brick interval must be non-degenerate")
        if self.support.kind != "annulus" and self.support.complexity() < 3:
            raise ValueError("brick support complexity must be at least 3")
        if self.support.kind == "annulus":
            raise ValueError("annulus supports are not bricks")

    def open_below(self):
        return self.kind in ("half-open-below", "open")

    def open_above(self):
        return self.kind in ("half-open-above", "open")

    def covers(self, level) -> bool:
        if self.lo < level < self.hi:
            return True
        if level == self.lo and not self.open_below():
            return True
        if level == self.hi and not self.open_above():
            return True
        return False


@dataclass(frozen=True)
class Joint:
    upper: str
    lower: str
    surface: sf.EssentialSubsurface
    level: Fraction

    def is_inessential(self, complex_) -> bool:
        up = complex_.brick(self.upper)
        low = complex_.brick(self.lower)
        return (
            self.surface.token == up.support.token
            and self.surface.token == low.support.token
        )


@dataclass(frozen=True)
class BrickComplex:
    base: sf.Surface
    bricks: tuple
    joints: tuple = ()

    def brick(self, bid) -> Brick:
        for b in self.bricks:
            if b.bid == bid:
                return b
        raise KeyError(bid)

    def ids(self):
        return {b.bid for b in self.bricks}


@dataclass(frozen=True)
class EndLabel:
    brick_id: str
    kind: str  # "geometrically-finite" or "simply-degenerate"
    conformal: object = None  # FN record: tuple of (curve, length Fraction, twist Fraction)
    lamination: object = None  # LaminationDescriptor

    def __post_init__(self):
        if self.kind not in ("geometrically-finite", "simply-degenerate"):
            raise ValueError(f"unknown label kind {self.kind}")


@dataclass(frozen=True)
class LeafEmbedding:
    levels: tuple  # pairs (brick id, (alpha, beta))

    def level_of(self, bid):
        for b, ab in self.levels:
            if b == bid:
                return ab
        raise KeyError(bid)


def identity_embedding(k: BrickComplex) -> LeafEmbedding:
    return LeafEmbedding(tuple((b.bid, (b.lo, b.hi)) for b in k.bricks))


@dataclass(frozen=True)
class Slit:
    level: Fraction
    components: tuple  # of EssentialSubsurface

    def chi(self):
        total = 0
        for y in self.components:
            if y.kind == "annulus":
                continue
            total += 2 - 2 * y.ttype[0] - y.ttype[1]
        return total


@dataclass(frozen=True)
class TwistRecord:
    level: Fraction
    mapping_class: str  # symbolic Dehn-twist word
    affected_support: str  # subsurface token
    affected_interval: tuple  # (lo, hi)


@dataclass(frozen=True)
class LabelledBrickManifold:
    complex: BrickComplex


# ---------------------------------------------------------------------------
# support geometry helpers


def curve_tag(c: sf.Curve) -> str:
    return sf._curve_tag(c)


def curve_in_domain(y: sf.EssentialSubsurface, c: sf.Curve) -> bool:
    """Whether the ambient curve class lies inside the subsurface."""
    if y.kind == "full":
        return True
    for b in y.boundary:
        if c == b:
            return False
        if sf.intersection_number(c, b) > 0:
            return False
    if y.kind == "annulus":
        return c == y.boundary[0]
    if y.chart is None:
        return False
    if not isinstance(c.rep, sf.NormalRep):
        return False
    return y.chart.classify(c.flat().canonical()) is not None


def supports_disjoint(a: sf.EssentialSubsurface, b: sf.EssentialSubsurface) -> bool:
    """Conservative disjointness of closed essential pieces."""
    if a.token == b.token:
        return False
    if a.kind == "full" or b.kind == "full":
        return False
    for ca in a.boundary:
        for cb in b.boundary:
            if ca != cb and sf.intersection_number(ca, cb) > 0:
                return False
    # nesting: a piece is inside another when its defining curves sit in
    # the other's chart
    for inner, outer in ((a, b), (b, a)):
        if outer.chart is None or outer.kind == "annulus":
            continue
        for c in inner.boundary:
            if c not in outer.boundary and curve_in_domain(outer, c):
                return False
    if a.kind == "annulus" and b.kind != "annulus":
        if curve_in_domain(b, a.boundary[0]):
            return False
    if b.kind == "annulus" and a.kind != "annulus":
        if curve_in_domain(a, b.boundary[0]):
            return False
    return True


# ---------------------------------------------------------------------------
# validation


def validate_complex(k: BrickComplex):
    """Structural validation; returns (ok, report)."""
    report = []
    if not k.bricks:
        return False, ["empty complex"]
    ids = [b.bid for b in k.bricks]
    if len(ids) != len(set(ids)):
        report.append("duplicate brick ids")
    # connectivity through joints
    adj = {b.bid: set() for b in k.bricks}
    for j in k.joints:
        if j.upper not in adj or j.lower not in adj:
            report.append(f"joint references missing brick {j.upper}/{j.lower}")
            continue
        adj[j.upper].add(j.lower)
        adj[j.lower].add(j.upper)
    seen = set()
    stack = [k.bricks[0].bid]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(adj[x] - seen)
    if seen != set(adj):
        report.append("brick union is disconnected")
    # joint structure
    for j in k.joints:
        try:
            up = k.brick(j.upper)
            low = k.brick(j.lower)
        except KeyError:
            continue
        if up.lo != j.level or low.hi != j.level:
            report.append(f"joint level {j.level} does not match brick fronts")
        for b in (up, low):
            if j.surface.token != b.support.token and not all(
                curve_in_domain(b.support, c) or c in b.support.boundary
                for c in j.surface.boundary
            ):
                report.append(
                    f"joint surface does not embed in the front of {b.bid}"
                )
        if not j.surface.boundary and j.surface.kind != "full":
            report.append("joint surface with no essential frontier data")
    # disjoint interiors
    for i, b1 in enumerate(k.bricks):
        for b2 in k.bricks[i + 1 :]:
            if b1.hi <= b2.lo or b2.hi <= b1.lo:
                continue
            if max(b1.lo, b2.lo) == min(b1.hi, b2.hi):
                continue
            if not supports_disjoint(b1.support, b2.support):
                report.append(
                    f"bricks {b1.bid} and {b2.bid} overlap in levels and supports"
                )
    return (not report, report)


# ---------------------------------------------------------------------------
# slits


def critical_levels(k: BrickComplex, e: LeafEmbedding):
    levels = set()
    for b in k.bricks:
        alpha, beta = e.level_of(b.bid)
        levels.add(alpha)
        levels.add(beta)
    return sorted(levels)


def _present(k: BrickComplex, e: LeafEmbedding, c: Fraction):
    out = []
    for b in k.bricks:
        alpha, beta = e.level_of(b.bid)
        shifted = replace(b, lo=alpha, hi=beta)
        if shifted.covers(c):
            out.append(b)
    return out


def slit_at(k: BrickComplex, e: LeafEmbedding, c: Fraction) -> Slit:
    """Complement of the embedded image at one level."""
    full = sf.full_surface(k.base)
    present = _present(k, e, c)
    if not present:
        return Slit(c, (full,))
    if any(b.support.kind == "full" for b in present):
        return Slit(c, ())
    cut = []
    for b in present:
        for curve in b.support.boundary:
            if curve not in cut:
                cut.append(curve)
    simplex = sf.Simplex(full, frozenset(cut))
    domains = sf.component_domains(full, simplex)
    present_tokens = {b.support.token for b in present}
    collar_tags = {tag for b in present for tag in b.collars}
    components = []
    for y in domains:
        if y.kind == "proper":
            if y.token not in present_tokens:
                components.append(y)
        elif y.kind == "annulus":
            if curve_tag(y.boundary[0]) not in collar_tags:
                components.append(y)
    for token in present_tokens:
        if token not in {y.token for y in domains}:
            raise DomainError(
                f"support {token} is not a component domain of the level cut"
            )
    return Slit(c, tuple(components))


def curve_meets_slit(c: sf.Curve, slit: Slit) -> bool:
    """Whether the curve cannot be isotoped off the slit components."""
    for y in slit.components:
        if y.kind == "full":
            return True
        if y.kind == "annulus":
            if c == y.boundary[0] or sf.intersection_number(c, y.boundary[0]) > 0:
                return True
        else:
            if any(sf.intersection_number(c, b) > 0 for b in y.boundary):
                return True
            if curve_in_domain(y, c):
                return True
    return False


@dataclass(frozen=True)
class LevelSweep:
    """Every slit of an embedded complex, computed once: one per interval
    between consecutive critical levels, sampled at its midpoint."""

    complex: BrickComplex
    embedding: LeafEmbedding
    slits: tuple  # pairs ((lo, hi), Slit) in level order

    @classmethod
    def of(cls, k: BrickComplex, e: LeafEmbedding) -> "LevelSweep":
        levels = critical_levels(k, e)
        return cls(
            k,
            e,
            tuple(
                ((a, b), slit_at(k, e, (a + b) / 2))
                for a, b in zip(levels, levels[1:])
            ),
        )

    @property
    def span(self):
        """(first level, last level) of the embedded complex."""
        levels = critical_levels(self.complex, self.embedding)
        # min and max raise ValueError on an empty complex, which the CLI
        # reports as a failed run
        return min(levels), max(levels)

    def meets_between(self, c: sf.Curve, lo, hi) -> bool:
        """Whether the curve meets the slit of a sample interval (a, b)
        with a < hi and lo < b: one overlapping the levels from lo to hi."""
        return any(
            curve_meets_slit(c, slit)
            for (a, b), slit in self.slits
            if a < hi and lo < b
        )


# ---------------------------------------------------------------------------
# boundary components


@dataclass(frozen=True)
class BoundaryComponent:
    kind: str  # "torus" or "open-annulus"
    core: sf.Curve
    interval: tuple  # closed hull (lo, hi) of the complement gap


def boundary_components(sweep: LevelSweep):
    """Boundary pieces of the embedded image: one per maximal level gap of
    an uncovered collar annulus; torus when the gap is capped at both
    ends by covered levels, open annulus otherwise."""
    k, e = sweep.complex, sweep.embedding
    # collect annular gap cores by curve identity
    gaps = {}
    for iv, slit in sweep.slits:
        for y in slit.components:
            if y.kind == "annulus":
                gaps.setdefault(y.boundary[0], []).append(iv)
    out = []
    span_lo, span_hi = sweep.span
    ideal_levels = set()
    for b in k.bricks:
        alpha, beta = e.level_of(b.bid)
        if b.open_below():
            ideal_levels.add(alpha)
        if b.open_above():
            ideal_levels.add(beta)
    for core, ivs in gaps.items():
        ivs.sort()
        merged = [list(ivs[0])]
        for a, b in ivs[1:]:
            if a == merged[-1][1]:
                merged[-1][1] = b
            else:
                merged.append([a, b])
        for lo, hi in merged:
            capped_below = lo > span_lo and lo not in ideal_levels
            capped_above = hi < span_hi and hi not in ideal_levels
            kind = "torus" if (capped_below and capped_above) else "open-annulus"
            out.append(BoundaryComponent(kind, core, (lo, hi)))
    return out


# ---------------------------------------------------------------------------
# ends


@dataclass(frozen=True)
class End:
    brick_id: str
    side: str  # "below" or "above"
    level: Fraction
    kind: str  # "GF", "SD", "wild"


def classify_ends(m: LabelledBrickManifold, e: LeafEmbedding):
    """Ends from ideal fronts of half-open and open bricks."""
    out = []
    for b in m.complex.bricks:
        alpha, beta = e.level_of(b.bid)
        for side, open_, level in (
            ("below", b.open_below(), alpha),
            ("above", b.open_above(), beta),
        ):
            if not open_:
                continue
            if b.label is None:
                kind = "wild"
            elif b.label.kind == "geometrically-finite":
                kind = "GF"
            else:
                kind = "SD"
            out.append(End(b.bid, side, level, kind))
    return out


# ---------------------------------------------------------------------------
# admissibility conditions


def _a2_gap_pairs(sweep: LevelSweep):
    comps = boundary_components(sweep)
    pairs = []
    for i, c1 in enumerate(comps):
        for c2 in comps[i + 1 :]:
            if c1.core == c2.core:
                pairs.append(tuple(sorted([c1, c2], key=lambda x: x.interval)))
    return pairs


def check_a2(sweep: LevelSweep) -> bool:
    """No properly embedded essential annulus between boundary pieces."""
    for c1, c2 in _a2_gap_pairs(sweep):
        lo = c1.interval[1]
        hi = c2.interval[0]
        if lo > hi:
            continue
        if not sweep.meets_between(c1.core, lo, hi):
            return False
    return True


def clear_annulus_gaps(sweep: LevelSweep):
    """Exhaustive search over vertical annuli joining boundary pieces.

    Enumerates every curve class appearing as a gap core, in order of
    first appearance, and every pair of levels bounding distinct gaps of
    that class; yields (core, lo, hi) when the full annulus between them
    avoids the complement level by level.
    """
    comps = boundary_components(sweep)
    cores = []
    for c in comps:
        if c.core not in cores:
            cores.append(c.core)
    for core in cores:
        gaps = sorted(c.interval for c in comps if c.core == core)
        for i in range(len(gaps)):
            for j in range(i + 1, len(gaps)):
                lo, hi = gaps[i][1], gaps[j][0]
                clear = True
                for iv, slit in sweep.slits:
                    if iv[1] <= lo or iv[0] >= hi:
                        continue
                    if curve_meets_slit(core, slit):
                        clear = False
                        break
                if clear:
                    yield core, lo, hi


def check_a2_bruteforce(sweep: LevelSweep) -> bool:
    """Brute-force A2: no vertical annulus found by clear_annulus_gaps."""
    return next(clear_annulus_gaps(sweep), None) is None


def check_conditions(sweep: LevelSweep):
    """Admissibility report {A1, A2, A3, A4, A5, EL} of booleans for the
    labelled model on the swept complex."""
    k, e = sweep.complex, sweep.embedding
    comps = boundary_components(sweep)
    a1 = all(c.kind in ("torus", "open-annulus") for c in comps)
    a2 = check_a2(sweep)
    ends = classify_ends(LabelledBrickManifold(k), e)
    a3 = True
    for end in ends:
        if end.kind != "wild":
            continue
        b = k.brick(end.brick_id)
        for c in b.support.boundary:
            near = [
                bc
                for bc in comps
                if bc.core == c
                and bc.interval[0] <= end.level <= bc.interval[1]
            ]
            if not near:
                a3 = False
    a4 = True
    for end in ends:
        if end.kind == "GF" and end.level not in (Fraction(0), Fraction(1)):
            a4 = False
    a5 = True
    for b in k.bricks:
        if b.label is not None and b.label.kind == "geometrically-finite":
            if b.kind == "open":
                a5 = False
                continue
            # the real front must itself be an inessential joint: the
            # brick is glued along its whole front to a brick with the
            # same support
            closed_level = b.hi if b.open_below() else b.lo
            joints = [
                j
                for j in k.joints
                if j.level == closed_level and b.bid in (j.upper, j.lower)
            ]
            if not any(j.is_inessential(k) for j in joints):
                a5 = False
    el = True
    sd = [
        b
        for b in k.bricks
        if b.label is not None and b.label.kind == "simply-degenerate"
    ]
    for i, b1 in enumerate(sd):
        for b2 in sd[i + 1 :]:
            if b1.support.token != b2.support.token:
                continue
            l1, l2 = b1.label.lamination, b2.label.lamination
            if l1 is not None and l1 == l2:
                # homotopic supports demand distinct ending laminations,
                # unless a boundary piece between them blocks the homotopy
                lo = min(b1.hi, b2.hi)
                hi = max(b1.lo, b2.lo)
                if not any(
                    sweep.meets_between(c, lo, hi) for c in b1.support.boundary
                ):
                    el = False
    return {"A1": a1, "A2": a2, "A3": a3, "A4": a4, "A5": a5, "EL": el}


# ---------------------------------------------------------------------------
# rearrangement, extension, and limits of ascending sequences


def rearrange(seq):
    """Pin brick levels across an ascending sequence of complexes.

    Input: list of (BrickComplex, LeafEmbedding).  Output: list of
    (BrickComplex, LeafEmbedding, notes) where every brick keeps the
    level pair from the stage it first appeared in, and notes record the
    remarking moves this forced.
    """
    if not seq:
        return []
    for (k1, _), (k2, _) in zip(seq, seq[1:]):
        if not k1.ids() <= k2.ids():
            raise NotAscending("later complex is missing earlier bricks")
    pinned = {}
    out = []
    for k, e in seq:
        notes = []
        levels = []
        for b in k.bricks:
            ab = e.level_of(b.bid)
            if b.bid not in pinned:
                pinned[b.bid] = ab
            elif pinned[b.bid] != ab:
                notes.append(
                    f"{b.bid}: level {ab} pinned back to {pinned[b.bid]}"
                )
            levels.append((b.bid, pinned[b.bid]))
        out.append((k, LeafEmbedding(tuple(levels)), tuple(notes)))
    return out


def extend_embedding(prev: LevelSweep, next_complex: BrickComplex):
    """Extend an embedding of a smaller complex over a larger one.

    prev is the sweep of the smaller embedded complex.  Old bricks keep
    their exact level data; new bricks take their nominal levels.
    Whenever a level region's complement strictly shrinks, a twist record
    is emitted along that slit with a delta-interval chosen as half the
    minimal gap to the other critical levels.
    """
    prev_k, prev_e = prev.complex, prev.embedding
    if not prev_k.ids() <= next_complex.ids():
        raise NotAscending("extension target does not contain the old complex")
    levels = list(prev_e.levels)
    old_ids = prev_k.ids()
    for b in next_complex.bricks:
        if b.bid not in old_ids:
            levels.append((b.bid, (b.lo, b.hi)))
    next_e = LeafEmbedding(tuple(levels))
    twists = []
    prev_chi = {slit.level: slit.chi() for _, slit in prev.slits}
    span = prev.span
    crit = critical_levels(next_complex, next_e)
    for _, slit_new in LevelSweep.of(next_complex, next_e).slits:
        mid = slit_new.level
        if not span[0] < mid < span[1]:
            # new territory beyond the old span glues compatibly
            continue
        old = [c for c in prev_chi if abs(c - mid) == min(abs(c2 - mid) for c2 in prev_chi)]
        if not old:
            continue
        chi_old = prev_chi[old[0]]
        if -chi_old > -slit_new.chi():
            gaps = [abs(lv - mid) for lv in crit if lv != mid]
            delta = min(gaps) / 2 if gaps else Fraction(1, 4)
            token = (
                slit_new.components[0].token if slit_new.components else "empty"
            )
            record = TwistRecord(
                level=mid,
                mapping_class=f"twist[{token}]",
                affected_support=token,
                affected_interval=(mid - delta, mid + delta),
            )
            for b in prev_k.bricks:
                alpha, beta = prev_e.level_of(b.bid)
                if record.affected_interval[0] <= alpha and beta <= record.affected_interval[1]:
                    raise AbsorptionFailure(
                        f"twist region at {mid} swallows stabilized brick {b.bid}"
                    )
            twists.append(record)
    return next_e, twists


def limit_embedding(stabilized):
    """Eventual embedding of an ascending rearranged sequence.

    Input: output of rearrange().  Returns (LeafEmbedding, w0) where w0
    maps each brick id to its stabilization index.  Raises
    NonStabilizing when a brick's level data changes after that index.
    """
    if not stabilized:
        raise ValueError("empty sequence")
    w0 = {}
    final = {}
    for n, (k, e, _) in enumerate(stabilized):
        for b in k.bricks:
            ab = e.level_of(b.bid)
            if b.bid not in w0:
                w0[b.bid] = n
                final[b.bid] = ab
            elif final[b.bid] != ab:
                raise NonStabilizing(
                    f"brick {b.bid} moved after stage {w0[b.bid]}"
                )
    emb = LeafEmbedding(tuple(sorted(final.items())))
    return emb, w0


def peripheral_gf_bricks(m: LabelledBrickManifold, e: LeafEmbedding):
    """GF-labelled bricks whose ideal front sits on the surface boundary."""
    out = []
    for b in m.complex.bricks:
        if b.label is None or b.label.kind != "geometrically-finite":
            continue
        alpha, beta = e.level_of(b.bid)
        if (b.open_below() and alpha == 0) or (b.open_above() and beta == 1):
            out.append(b.bid)
    return out
