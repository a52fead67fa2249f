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

import math
from bisect import bisect_left, bisect_right
from functools import cached_property
from fractions import Fraction

from . import charts
from . import surfaces as sf
from .errors import (
    DomainError,
    NonStabilizing,
    NotAscending,
)
from .records import Memo, record

KINDS = ("closed", "half-open-below", "half-open-above", "open")


def interval_kind(open_below: bool, open_above: bool) -> str:
    """The interval kind with the given open ends."""
    return KINDS[open_below + 2 * open_above]


@record
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


@record
class Joint:
    """Two bricks glued at their shared front: `upper` starts where `lower` ends."""

    upper: str
    lower: str
    surface: sf.EssentialSubsurface

    def is_inessential(self, complex_) -> bool:
        up = complex_.brick(self.upper)
        low = complex_.brick(self.lower)
        return (
            self.surface.token == up.support.token
            and self.surface.token == low.support.token
        )


@record
class BrickComplex:
    base: sf.Surface
    bricks: tuple
    joints: tuple = ()

    # not a record field: equality, hash and repr read the fields alone
    @cached_property
    def _by_id(self):
        """brick id -> brick, from the first brick of each id."""
        return {b.bid: b for b in reversed(self.bricks)}

    def brick(self, bid) -> Brick:
        return self._by_id[bid]

    def joints_at(self, bid, side):
        """The joints on a brick's "lower" front (it is their upper brick)
        or on its "upper" front (it is their lower brick), in joint order."""
        if side == "lower":
            return [j for j in self.joints if j.upper == bid]
        return [j for j in self.joints if j.lower == bid]

    def ids(self):
        return {b.bid for b in self.bricks}


@record
class EndLabel:
    brick_id: str
    kind: str  # "geometrically-finite" or "simply-degenerate"
    conformal: object = None  # FN record: tuple of (curve, length Fraction, twist Fraction)
    lamination: object = None  # LaminationDescriptor

    def __post_init__(self):
        if self.kind not in ("geometrically-finite", "simply-degenerate"):
            raise ValueError(f"unknown label kind {self.kind}")


def _integer_keys(levels):
    """(d, keys): the common denominator d of the rational levels, and each
    level's numerator over d, an exact integer key in the levels' order."""
    d = math.lcm(*(x.denominator for x in levels))
    return d, [x.numerator * (d // x.denominator) for x in levels]


@record
class LeafEmbedding:
    levels: tuple  # pairs (brick id, (alpha, beta))

    # The cached properties below are not record fields: equality, hash
    # and repr read `levels` alone.

    @cached_property
    def _by_id(self):
        """brick id -> (alpha, beta), from the first entry of each id."""
        out = {}
        for bid, ab in self.levels:
            out.setdefault(bid, ab)
        return out

    @cached_property
    def level_index(self):
        """(sorted distinct levels, brick id -> (first, last)): the indices
        of each brick's alpha and beta in those levels."""
        ends = [x for ab in self._by_id.values() for x in ab]
        # order and deduplicate by integer keys: no Fraction is hashed or
        # compared
        _, keys = _integer_keys(ends)
        level_at = dict(zip(keys, ends))
        order = sorted(level_at)
        pos = {key: i for i, key in enumerate(order)}
        return [level_at[key] for key in order], {
            bid: (pos[keys[2 * n]], pos[keys[2 * n + 1]])
            for n, bid in enumerate(self._by_id)
        }

    def level_of(self, bid):
        return self._by_id[bid]


def identity_embedding(k: BrickComplex) -> LeafEmbedding:
    return LeafEmbedding(tuple((b.bid, (b.lo, b.hi)) for b in k.bricks))


@record
class LabelledBrickManifold:
    complex: BrickComplex


# ---------------------------------------------------------------------------
# support geometry helpers


def curve_in_domain(y: sf.EssentialSubsurface, c: sf.Curve) -> bool:
    """Whether the ambient curve class lies inside the subsurface."""
    if y.kind == "full":
        return True
    for b in y.boundary:
        if c == b:
            return False
        if sf.intersection_number(c, b) > 0:
            return False
    if y.chart is None:
        return False
    if not isinstance(c.rep, charts.CurveDesc):
        return False
    return y.chart.classify(c.flat().canonical()) is not None


# ---------------------------------------------------------------------------
# validation


def validate_complex(k: BrickComplex):
    """Connectivity through joints and joint surfaces; returns (ok,
    report).  `slit_at` decides whether bricks overlap."""
    report = []
    # connectivity through joints
    adj = {b.bid: set() for b in k.bricks}
    for j in k.joints:
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
        for b in (k.brick(j.upper), k.brick(j.lower)):
            if j.surface.token != b.support.token and not all(
                curve_in_domain(b.support, c) or c in b.support.boundary
                for c in j.surface.boundary
            ):
                report.append(
                    f"joint surface does not embed in the front of {b.bid}"
                )
        if not j.surface.boundary and j.surface.kind != "full":
            report.append("joint surface with no essential frontier data")
    return (not report, report)


# ---------------------------------------------------------------------------
# slits


def critical_levels(k: BrickComplex, e: LeafEmbedding):
    levels, index = e.level_index
    used = {i for b in k.bricks for i in index[b.bid]}
    return [levels[i] for i in sorted(used)]


def _present(k: BrickComplex, e: LeafEmbedding, c: Fraction):
    """Bricks whose embedded interval holds c, a level off the critical
    levels: those whose index span holds bisect_left(levels, c)."""
    levels, index = e.level_index
    j = bisect_left(levels, c)
    if j < len(levels) and levels[j] == c:
        raise ValueError(f"no slit is taken at the critical level {c}")
    return [b for b in k.bricks if index[b.bid][0] < j <= index[b.bid][1]]


def slit_at(k: BrickComplex, e: LeafEmbedding, c: Fraction) -> tuple:
    """Complement of the embedded image at a level c off the critical
    levels, as essential subsurfaces.  The bricks present at c must fit:
    their supports are distinct pieces of the cut along their boundary
    curves, or a DomainError names them and the level."""
    full = sf.full_surface(k.base)
    present = _present(k, e, c)
    cut = {curve for b in present for curve in b.support.boundary}
    pieces = [full]
    if cut:
        try:
            simplex = sf.Simplex(full, cut)
        except ValueError as exc:  # two boundary curves cross
            raise _overlap(present, c) from exc
        pieces = sf.component_domains(full, simplex)
    present_tokens = {b.support.token for b in present}
    if len(present_tokens) < len(present) or not present_tokens <= {y.token for y in pieces}:
        raise _overlap(present, c)
    collar_tags = {tag for b in present for tag in b.collars}
    return tuple(
        y
        for y in pieces
        if y.token not in present_tokens
        and (y.kind != "annulus" or sf.curve_tag(y.boundary[0]) not in collar_tags)
    )


def _overlap(present, c):
    return DomainError(f"bricks {', '.join(b.bid for b in present)} overlap at level {c}")


def curve_meets_slit(c: sf.Curve, slit: tuple) -> bool:
    """Whether the curve cannot be isotoped off the slit components."""
    for y in slit:
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


@record
class LevelSweep:
    """Every slit of an embedded complex, computed once: one per interval
    between consecutive critical levels, sampled at its midpoint."""

    complex: BrickComplex
    embedding: LeafEmbedding
    slits: tuple  # pairs ((lo, hi), slit components) in level order
    levels: tuple  # the critical levels the slits were cut from

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
            tuple(levels),
        )

    @cached_property
    def boundary(self):
        """The boundary components of the embedded image, computed once."""
        return tuple(boundary_components(self))

    @cached_property
    def _boundary_ends(self):
        """level key -> the boundary components that start or end there."""
        d, _ = self._keys
        out = {}
        for comp in self.boundary:
            for x in comp.interval:
                out.setdefault(x.numerator * (d // x.denominator), []).append(comp)
        return out

    def boundary_at(self, level):
        """The boundary components that start or end at a level, in order."""
        k, r = divmod(level.numerator * self._keys[0], level.denominator)
        return () if r else self._boundary_ends.get(k, ())

    @property
    def span(self):
        """(first level, last level) of the embedded complex."""
        return self.slits[0][0][0], self.slits[-1][0][1]

    @cached_property
    def _met(self):
        """core -> per sample interval, whether the core meets its slit, or
        None until a question needs it."""
        return Memo()

    @cached_property
    def decompositions(self):
        """budget -> the block decomposition of this sweep, which
        `blocks.decompose` keeps here."""
        return Memo()

    def meets_between(self, c: sf.Curve, lo, hi) -> bool:
        """Whether the curve meets the slit of a sample interval (a, b)
        with a < hi and lo < b: one overlapping the levels from lo to hi.
        Sample interval i is (levels[i], levels[i + 1]), so those are the
        intervals from the last level <= lo to the last level < hi.  Each
        answer of `curve_meets_slit` is kept, so it runs once per slit."""
        met = self._met.keep(c, lambda: [None] * len(self.slits))
        first = max(self.rank(lo, right=True) - 1, 0)
        for i in range(first, min(self.rank(hi), len(met))):
            if met[i] is None:
                met[i] = curve_meets_slit(c, self.slits[i][1])
            if met[i]:
                return True
        return False

    @cached_property
    def _keys(self):
        return _integer_keys(self.levels)

    def rank(self, x, right=False):
        """bisect_left(levels, x), or bisect_right when right, in integers.
        With x d = k + r / q for the integer k = floor(x d): a level with
        key n lies below x when n < k, or n = k and r > 0, and at most x
        when n <= k."""
        d, keys = self._keys
        k, r = divmod(x.numerator * d, x.denominator)
        return (bisect_right if right or r else bisect_left)(keys, k)

    def clear_gap(self, core: sf.Curve, band_i, band_j):
        """The one merge-eligibility test, on two level bands (lo, hi) of
        one core: their gap (lo, hi), if the bands are disjoint or touch
        and the core meets no slit from lo to hi; None otherwise."""
        lo, hi = min(band_i[1], band_j[1]), max(band_i[0], band_j[0])
        if lo <= hi and not self.meets_between(core, lo, hi):
            return lo, hi
        return None

    def joined(self, pieces):
        """Yields (i, j, lo, hi), i < j in list order, for each pair of
        level pieces (core, (lo, hi)) with one core that `clear_gap` joins
        over the gap from lo to hi."""
        later = {}  # core -> indices of its pieces not yet visited
        for i, (core, _) in enumerate(pieces):
            later.setdefault(core, []).append(i)
        for i, (core, band) in enumerate(pieces):
            same = later[core]
            del same[0]  # i itself
            for j in same:
                gap = self.clear_gap(core, band, pieces[j][1])
                if gap is not None:
                    yield (i, j, *gap)


# ---------------------------------------------------------------------------
# boundary components


@record
class BoundaryComponent:
    kind: str  # "torus" or "open-annulus"
    core: sf.Curve
    interval: tuple  # closed hull (lo, hi) of the complement gap


def boundary_components(sweep: LevelSweep):
    """Boundary pieces of the embedded image: one per maximal level gap of
    an uncovered collar annulus; torus when the gap is capped at both
    ends by covered levels, open annulus otherwise."""
    # collect annular gap cores by curve identity
    gaps = {}
    for iv, slit in sweep.slits:
        for y in slit:
            if y.kind == "annulus":
                gaps.setdefault(y.boundary[0], []).append(iv)
    out = []
    span_lo, span_hi = sweep.span
    ideal_levels = {end.level for end in classify_ends(sweep)}
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


@record
class End:
    brick_id: str
    side: str  # "below" or "above"
    level: Fraction
    kind: str  # "GF", "SD", "wild"


def classify_ends(sweep: LevelSweep):
    """Ends from ideal fronts of half-open and open bricks, in brick
    order, the end below before the end above."""
    out = []
    for b in sweep.complex.bricks:
        alpha, beta = sweep.embedding.level_of(b.bid)
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


def boundary_gaps(sweep: LevelSweep):
    """(core, lo, hi) for each pair of boundary pieces that a clear
    vertical annulus joins, grouped by core in order of first appearance
    and by level within a core, as clear_annulus_gaps orders them."""
    comps = sweep.boundary
    for i, _, lo, hi in sweep.joined([(c.core, c.interval) for c in comps]):
        yield comps[i].core, lo, hi


def check_a2(sweep: LevelSweep) -> bool:
    """No properly embedded essential annulus between boundary pieces."""
    return next(boundary_gaps(sweep), None) is None


def clear_annulus_gaps(sweep: LevelSweep):
    """Exhaustive search over vertical annuli joining boundary pieces.

    Enumerates every curve class appearing as a gap core, in order of
    first appearance, and every pair of levels bounding distinct gaps of
    that class; yields (core, lo, hi) when the full annulus between them
    avoids the complement level by level.
    """
    comps = sweep.boundary
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


def check_el(sweep: LevelSweep) -> bool:
    """EL: simply degenerate bricks on homotopic supports carry distinct
    ending laminations, unless a boundary piece between them blocks the
    homotopy."""
    k, e = sweep.complex, sweep.embedding
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
                (lo1, hi1), (lo2, hi2) = e.level_of(b1.bid), e.level_of(b2.bid)
                lo, hi = min(hi1, hi2), max(lo1, lo2)
                if not any(
                    sweep.meets_between(c, lo, hi) for c in b1.support.boundary
                ):
                    return False
    return True


def check_conditions(sweep: LevelSweep):
    """Admissibility report {A1, A2, A3, A4, A5, EL} of booleans for the
    labelled model on the swept complex."""
    k = sweep.complex
    comps = sweep.boundary
    a1 = all(c.kind in ("torus", "open-annulus") for c in comps)
    a2 = check_a2(sweep)
    ends = classify_ends(sweep)
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
            closed = "upper" if b.open_below() else "lower"
            if not any(j.is_inessential(k) for j in k.joints_at(b.bid, closed)):
                a5 = False
    return {
        "A1": a1, "A2": a2, "A3": a3, "A4": a4, "A5": a5, "EL": check_el(sweep)
    }


# ---------------------------------------------------------------------------
# rearrangement and limits of ascending sequences


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


def peripheral_gf_bricks(sweep: LevelSweep):
    """GF-labelled bricks whose ideal front sits on the surface boundary,
    each once, in brick order."""
    return list(
        dict.fromkeys(
            x.brick_id
            for x in classify_ends(sweep)
            if x.kind == "GF" and (x.side, x.level) in (("below", 0), ("above", 1))
        )
    )
