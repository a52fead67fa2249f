"""Cutting a labelled brick manifold into standard blocks and tubes.

Decomposes a twist-family model and a removed-leaf model, prints the
resulting blocks and tubes, and crosschecks a single brick against the
hierarchy it induces.
"""

from fractions import Fraction

from brickforge import blocks as bl
from brickforge import bricks as bk
from brickforge import limits as lm
from brickforge import surfaces as sf

F = Fraction


def show(name, m, e):
    d = bl.decompose(bk.LevelSweep.of(m.complex, e))
    print(f"{name}: {d.rounds_used} round(s)")
    for b in d.blocks:
        gap = f" gap {b.gap}" if b.gap else ""
        print(f"  block {b.blid} [{b.btype}] on {b.support_token}"
              f" over {b.interval}{gap}")
    for v in d.tubes:
        print(f"  tube {v.tid} core {v.core} band {v.band}"
              f" interface {v.interface}")
    ok, report = bl.verify_decomposition(d)
    print(f"  verified: {ok} {report or ''}")
    print()


def main():
    m, e = lm.generate(lm.Scenario("kerckhoff-thurston", sf.TORUS_1_1))
    show("single twist tube", m, e)

    m, e = lm.generate(lm.Scenario("brock", sf.TORUS_1_2))
    show("removed leaf", m, e)

    full = sf.full_surface(sf.TORUS_1_1)

    def mark(p, q):
        return sf.Marking(sf.Simplex.of(full, sf.slope_curve(full, p, q)))

    b = bk.Brick("b0", full, "closed", F(0), F(1),
                 initial=mark(0, 1), terminal=mark(5, 3))
    k = bk.BrickComplex(sf.TORUS_1_1, (b,), ())
    d = bl.decompose(bk.LevelSweep.of(k, bk.identity_embedding(k)))
    print("single brick 0/1 -> 5/3:")
    print("  tube cores:", [str(v.core) for v in d.tubes])
    print("  agrees with the hierarchy:", bl.hierarchy_crosscheck(b, d))


if __name__ == "__main__":
    main()
