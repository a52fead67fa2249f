"""Acceptance gate: one check per release criterion, each reporting a
single pass/fail line."""

import collections
import math
import random
import signal
import time
from fractions import Fraction

from brickforge import blocks as bl
from brickforge import bricks as bk
from brickforge import farey as fy
from brickforge import hierarchy as hy
from brickforge import limits as lm
from brickforge import metrics as mt
from brickforge import serialize as sz
from brickforge import surfaces as sf
from brickforge.records import replace

F = Fraction


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def identity_sweep(m):
    return bk.LevelSweep.of(m.complex, bk.identity_embedding(m.complex))


def single_brick_11(p1, q1, p2, q2):
    full = sf.full_surface(sf.TORUS_1_1)

    def mark(p, q):
        return sf.Marking(sf.Simplex.of(full, sf.slope_curve(full, p, q)))

    b = bk.Brick(
        "b0", full, "closed", F(0), F(1),
        initial=mark(p1, q1), terminal=mark(p2, q2),
    )
    k = bk.BrickComplex(sf.TORUS_1_1, (b,), ())
    return bk.LabelledBrickManifold(k), b


def single_brick_12(initial, terminal):
    full = sf.full_surface(sf.TORUS_1_2)
    b = bk.Brick(
        "b0", full, "closed", F(0), F(1), initial=initial, terminal=terminal
    )
    k = bk.BrickComplex(sf.TORUS_1_2, (b,), ())
    return bk.LabelledBrickManifold(k), b


def ambient_12():
    full = sf.full_surface(sf.TORUS_1_2)
    return {
        "full": full,
        "v0": sf.line_class(full, 0, 1, 0),
        "v1": sf.line_class(full, 0, 1, 1),
        "h": sf.line_class(full, 1, 0),
        "sigma": sf.slot_class(full, (0, 0), (1, 0)),
    }


def marking(full, *curves):
    return sf.Marking(sf.Simplex.of(full, *curves))


SLOPE_PAIRS = [
    (0, 1, 1, 0), (0, 1, 1, 1), (0, 1, 2, 1), (0, 1, 3, 2),
    (0, 1, 5, 3), (0, 1, 8, 5), (1, 0, 1, 1), (1, 0, 2, 3),
    (1, 1, 3, 4), (0, 1, 2, 7), (0, 1, 3, 8), (2, 1, 1, 3),
    (1, 2, 5, 2), (1, 0, 3, 5), (1, 1, 8, 5),
]


def test_criterion_1_farey_oracle():
    start = time.monotonic()
    slopes = list(fy.enumerate_slopes(12))
    n = len(slopes)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(fy.slope_det(slopes[i], slopes[j])) == 1:
                adj[i].append(j)
                adj[j].append(i)
    mismatches = 0
    pairs = 0
    for i in range(n):
        dist = [-1] * n
        dist[i] = 0
        queue = collections.deque([i])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for j in range(i + 1, n):
            pairs += 1
            path = fy.farey_geodesic_slopes(slopes[i], slopes[j])
            if len(path) - 1 != dist[j]:
                mismatches += 1
    elapsed = time.monotonic() - start
    report(
        1,
        mismatches == 0 and elapsed < 60,
        f"{pairs} slope pairs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_tightness_round_trip():
    full = sf.full_surface(sf.TORUS_1_1)
    cert = sf.DistanceCertificate(
        [sf.slope_curve(full, s.p, s.q) for s in fy.enumerate_slopes(8)]
    )
    window = list(fy.enumerate_slopes(4))
    checked = 0
    ok = True
    for i, u in enumerate(window):
        for w in window[i + 1 :]:
            seq = sf.farey_geodesic(
                sf.slope_curve(full, u.p, u.q), sf.slope_curve(full, w.p, w.q)
            )
            checked += 1
            if not sf.is_tight_sequence(seq, cert):
                ok = False
    amb = ambient_12()
    universe = hy.ambient_universe(2)

    def meets(c, v):
        return c != v and sf.intersection_number(c, v) > 0

    transversal = 0
    for initial, terminal in (
        (marking(amb["full"], amb["v0"], amb["v1"]), marking(amb["full"], amb["sigma"])),
        (marking(amb["full"], amb["v0"]), marking(amb["full"], amb["sigma"])),
    ):
        h = hy.build_hierarchy(sf.TORUS_1_2, initial, terminal)
        seq = list(h.main.vertices)
        # the enumeration the builder searches: the universe, then the
        # markings' curves
        marked = [c for m in (initial, terminal) for c in m.base.curves]
        if not sf.is_tight_sequence(seq, sf.DistanceCertificate(universe + marked)):
            ok = False
        for i in range(1, len(seq) - 1):
            for c in universe:
                transversal += 1
                if meets(c, seq[i]) and not (
                    meets(c, seq[i - 1]) or meets(c, seq[i + 1])
                ):
                    ok = False
    report(
        2,
        ok,
        f"{checked} slope geodesics tight, "
        f"{transversal} transversality checks on two main geodesics",
    )


def test_criterion_3_tube_interval_exactness(brick_tubes):
    ok = True

    def tubes(n, kind, gap):
        return [t for t, _, _ in bl.tube_bands((F(0), F(1)), n, kind, gap)]

    for n in range(11):
        ok &= tubes(n, "closed", False) == [
            (F(i, n + 1), F(i + 1, n + 1)) for i in range(n + 1)
        ]
        ok &= tubes(n, "closed", True) == [
            (F(i, n + 1), F(2 * i + 1, 2 * n + 2)) for i in range(n + 1)
        ]
        ok &= tubes(n, "half-open-above", False) == [
            (1 - F(1, 2**i), 1 - F(1, 2 ** (i + 1))) for i in range(n + 1)
        ]
        ok &= tubes(n, "half-open-above", True) == [
            (1 - F(1, 2**i), 1 - F(3, 2 ** (i + 2))) for i in range(n + 1)
        ]
    full11 = sf.full_surface(sf.TORUS_1_1)

    def mark(p, q):
        return sf.Marking(sf.Simplex.of(full11, sf.slope_curve(full11, p, q)))

    b = bk.Brick("b0", full11, "closed", F(0), F(1))
    tubes, _ = brick_tubes(b, mark(0, 1), mark(1, 0))
    ok &= [t.band for t in tubes] == [(F(0), F(1, 4)), (F(1, 2), F(3, 4))]
    b = bk.Brick("b0", full11, "half-open-above", F(0), F(1))
    lam = sf.LaminationDescriptor(full11, sf.IrrationalSlope((1,) * 6))
    tubes, _ = brick_tubes(b, mark(0, 1), lam)
    m = len(tubes) - 1
    ok &= m >= 1 and [t.band for t in tubes] == [
        (1 - F(1, 2**i), 1 - F(3, 2 ** (i + 2))) for i in range(m + 1)
    ]
    b = bk.Brick("b0", full11, "half-open-below", F(0), F(1))
    tubes, _ = brick_tubes(b, lam, mark(0, 1))
    ok &= tubes[0].band == (F(3, 4), F(1))
    amb = ambient_12()
    b = bk.Brick("b0", amb["full"], "closed", F(0), F(1))
    tubes, _ = brick_tubes(
        b, marking(amb["full"], amb["v0"]), marking(amb["full"], amb["sigma"])
    )
    thirds = [t.band for t in tubes] == [
        (F(0), F(1, 3)),
        (F(1, 3), F(2, 3)),
        (F(2, 3), F(1)),
    ]
    ok &= thirds
    report(3, ok, "formulas exact for n <= 10; thirds partition reproduced")


def _survey_models():
    amb = ambient_12()
    models = [single_brick_11(*pair)[0] for pair in SLOPE_PAIRS[:12]]
    models.append(
        single_brick_12(
            marking(amb["full"], amb["v0"], amb["v1"]),
            marking(amb["full"], amb["sigma"]),
        )[0]
    )
    models.append(
        lm.generate(lm.Scenario("kerckhoff-thurston", sf.TORUS_1_1))[0]
    )
    models.append(
        lm.generate(lm.Scenario("kerckhoff-thurston", sf.TORUS_1_2))[0]
    )
    for d in range(1, 6):
        models.append(
            lm.generate(lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=d))[0]
        )
    models.append(lm.generate(lm.Scenario("brock", sf.TORUS_1_2))[0])
    return models


def test_criterion_4_pipeline_termination():
    models = _survey_models()
    ok = len(models) >= 20
    for m in models:
        bound = sf.full_surface(m.complex.base).complexity() - 3
        d = bl.decompose(identity_sweep(m))
        verified, _ = bl.verify_decomposition(d)
        ok &= d.rounds_used <= bound
        ok &= all(b.btype in ("S03", "S04", "S11") for b in d.blocks)
        tubes = list(d.tubes)
        ok &= next(bl._merge_eligible_pairs(tubes, d.sweep), None) is None
        ok &= verified
    report(4, ok, f"{len(models)} models decomposed within round bounds")


def test_criterion_5_hierarchy_block_agreement():
    amb = ambient_12()
    fixtures = [single_brick_11(*pair) for pair in SLOPE_PAIRS]
    fixtures.append(
        single_brick_12(
            marking(amb["full"], amb["v0"], amb["v1"]),
            marking(amb["full"], amb["sigma"]),
        )
    )
    fixtures.append(
        single_brick_12(
            marking(amb["full"], amb["v0"]), marking(amb["full"], amb["sigma"])
        )
    )
    ok = len(fixtures) >= 10
    for m, b in fixtures:
        d = bl.decompose(identity_sweep(m))
        ok &= bl.hierarchy_crosscheck(b, d)
    report(5, ok, f"{len(fixtures)} single-brick fixtures crosschecked")


def test_criterion_6_stabilization_and_ends():
    ok = True
    families = {
        "twist": [
            lm.generate(lm.Scenario("kerckhoff-thurston", sf.TORUS_1_2, depth=n))
            for n in range(1, 6)
        ],
        "nested": [
            lm.generate(lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=d))
            for d in range(1, 6)
        ],
        "leaf": [lm.generate(lm.Scenario("brock", sf.TORUS_1_2))] * 2,
    }
    for name, seq in families.items():
        stabilized = bk.rearrange([(m.complex, e) for m, e in seq])
        _, w0 = bk.limit_embedding(stabilized)
        ok &= all(stage < len(seq) for stage in w0.values())
        peripheral = None
        for m, e in seq:
            sweep = bk.LevelSweep.of(m.complex, e)
            gf = {
                b.bid
                for b in m.complex.bricks
                if b.label is not None
                and b.label.kind == "geometrically-finite"
            }
            per = set(bk.peripheral_gf_bricks(sweep))
            ok &= per == gf
            if peripheral is None:
                peripheral = per
            ok &= per == peripheral
            by_level = collections.Counter(
                x.level for x in bk.classify_ends(sweep)
            )
            base = m.complex.base
            bound = 2 * (2 * base.genus - 2 + base.punctures)
            ok &= all(count <= bound for count in by_level.values())
    for d in range(1, 6):
        m, e = lm.generate(lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=d))
        comps = bk.boundary_components(bk.LevelSweep.of(m.complex, e))
        ok &= sum(1 for c in comps if c.kind == "torus") == d
    report(6, ok, "families stabilize; end bounds and boundary counts hold")


def test_criterion_7_filtration_exactness():
    rng = random.Random(20260823)
    checked = 0
    ok = True
    table = []
    for _ in range(1200):
        omega = mt.MeridianCoefficient(
            f"t{checked}", rng.randint(-60, 60), rng.randint(1, 90)
        )
        table.append(omega)
        k = rng.randint(0, 110)
        checked += 1
        ok &= (omega.abs2() >= k * k) == (math.isqrt(omega.abs2()) >= k)
    for k in range(0, 30, 7):
        kept_k = {o.tube for o in table if o.abs2() >= k * k}
        kept_next = {o.tube for o in table if o.abs2() >= (k + 3) ** 2}
        ok &= kept_next <= kept_k
    m, _ = lm.generate(lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=3))
    d = bl.decompose(identity_sweep(m))
    for k in range(0, 6):
        f = mt.filtration(d, k)
        ok &= set(f.tubes) | set(f.released) == set(d.torus_tubes)
        ok &= not (set(f.tubes) & set(f.released))
    report(7, ok, f"{checked} random coefficients; partitions exact")


def _interior_gf_fixture(side):
    full = sf.full_surface(sf.TORUS_1_1)
    if side == "below":
        g = bk.Brick(
            "g", full, "half-open-below", F(1, 4), F(1, 2),
            label=lm._gf_label("g", full),
        )
        top = bk.Brick("top", full, "closed", F(1, 2), F(1))
        joints = (bk.Joint("top", "g", full),)
        bricks = (g, top)
    else:
        low = bk.Brick("low", full, "closed", F(0), F(1, 2))
        g = bk.Brick(
            "g", full, "half-open-above", F(1, 2), F(3, 4),
            label=lm._gf_label("g", full),
        )
        joints = (bk.Joint("g", "low", full),)
        bricks = (low, g)
    k = bk.BrickComplex(sf.TORUS_1_1, bricks, joints)
    return k, bk.identity_embedding(k)


def _negative_fixtures():
    full11 = sf.full_surface(sf.TORUS_1_1)
    c = sf.slope_curve(full11, 0, 1)
    amb = ambient_12()
    out = []
    out.append(("A2", lm._tower(sf.TORUS_1_1, [c, c])))
    out.append(("A2", lm._tower(sf.TORUS_1_1, [c, c, c])))
    out.append(("A2", lm._tower(sf.TORUS_1_2, [amb["v0"], amb["v0"]])))

    def relabel(k, e, bid, label):
        bricks = tuple(
            replace(b, label=label) if b.bid == bid else b
            for b in k.bricks
        )
        return bk.BrickComplex(k.base, bricks, k.joints), e

    m, e = lm.generate(lm.Scenario("brock", sf.TORUS_1_2))
    brock = (m.complex, e)
    h0 = m.complex.brick("h0")
    dup = bk.EndLabel("h1", "simply-degenerate", lamination=h0.label.lamination)
    out.append(("EL", relabel(*brock, "h1", dup)))
    out.append(("A3", relabel(*brock, "h0", None)))
    out.append(("A3", relabel(*relabel(*brock, "h0", None), "h1", None)))

    def rekind(k, e, bid, kind):
        bricks = tuple(
            replace(b, kind=kind) if b.bid == bid else b
            for b in k.bricks
        )
        return bk.BrickComplex(k.base, bricks, k.joints), e

    m, e = lm.generate(lm.Scenario("kerckhoff-thurston", sf.TORUS_1_1))
    out.append(("A5", rekind(m.complex, e, "gf0", "open")))
    out.append(("A4", _interior_gf_fixture("below")))
    out.append(("A4", _interior_gf_fixture("above")))
    lone = bk.Brick(
        "g", full11, "half-open-below", F(0), F(1),
        label=lm._gf_label("g", full11),
    )
    k = bk.BrickComplex(sf.TORUS_1_1, (lone,), ())
    out.append(("A5", (k, bk.identity_embedding(k))))
    return out


def test_criterion_8_checkers_vs_brute_force():
    full11 = sf.full_surface(sf.TORUS_1_1)
    c = sf.slope_curve(full11, 0, 1)
    fixtures = [
        single_brick_11(0, 1, 1, 0)[0].complex,
        lm.generate(lm.Scenario("kerckhoff-thurston", sf.TORUS_1_1))[0].complex,
        lm.generate(lm.Scenario("kerckhoff-thurston", sf.TORUS_1_2))[0].complex,
        lm.generate(lm.Scenario("brock", sf.TORUS_1_2))[0].complex,
        lm._tower(sf.TORUS_1_1, [c, c])[0],
        lm._tower(sf.TORUS_1_1, [c, c, c])[0],
    ]
    for d in range(1, 5):
        fixtures.append(
            lm.generate(lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=d))[0].complex
        )
    ok = True
    agreements = 0
    for k in fixtures:
        assert len(k.bricks) <= 12
        agreements += 1
        sweep = bk.LevelSweep.of(k, bk.identity_embedding(k))
        ok &= bk.check_a2(sweep) == bk.check_a2_bruteforce(sweep)
    negatives = _negative_fixtures()
    ok &= len(negatives) >= 10
    flagged = 0
    for key, (k, e) in negatives:
        conditions = bk.check_conditions(bk.LevelSweep.of(k, e))
        if not conditions[key]:
            flagged += 1
        else:
            ok = False
    report(
        8,
        ok,
        f"{agreements} fixtures agree with brute force; "
        f"{flagged}/{len(negatives)} mutations flagged",
    )


def test_criterion_9_exhaustion_stability():
    scenarios = [
        lm.generate(lm.Scenario("kerckhoff-thurston", sf.TORUS_1_1)),
        lm.generate(lm.Scenario("kerckhoff-thurston", sf.TORUS_1_2)),
        lm.generate(lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=1)),
        lm.generate(lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=3)),
        lm.generate(lm.Scenario("brock", sf.TORUS_1_2)),
    ]
    ok = True
    stages_checked = 0
    for m, e in scenarios:
        states = lm.exhaust(bk.LevelSweep.of(m.complex, e), 3)
        for state in states:
            stages_checked += 1
            ok &= state.acylindrical
            ok &= bk.check_a2(state.z)
            ok &= bk.check_a2_bruteforce(state.z)
        for a, b in zip(states, states[1:]):
            later = dict(b.stable)
            ok &= all(
                bid in later
                and sz.dumps(sz.brick_doc(later[bid]))
                == sz.dumps(sz.brick_doc(brick))
                for bid, brick in a.stable
            )
    report(9, ok, f"{stages_checked} approximants acylindrical and stable")


def test_exhaust_terminates_on_single_brick_fixtures():
    # a band that starts at the span edge fits in no window, so the
    # window search must not wait for one
    def hung(signum, frame):
        raise TimeoutError("exhaust did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    try:
        for pair in SLOPE_PAIRS:
            m, _ = single_brick_11(*pair)
            sweep = bk.LevelSweep.of(m.complex, bk.identity_embedding(m.complex))
            for stages in range(1, 5):
                signal.alarm(20)
                try:
                    states = lm.exhaust(sweep, stages)
                finally:
                    signal.alarm(0)
                assert len(states) == stages, (pair, stages)
    finally:
        signal.signal(signal.SIGALRM, previous)
