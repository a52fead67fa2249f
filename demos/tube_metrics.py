"""Meridian coefficients, tube metrics, and the tube filtration.

Reads the boundary-torus geometry of every cusp tube in a nested-tube
model, converts it to core length and tube radius, and sweeps the
filtration that releases short tubes back into the model.
"""

from brickforge import blocks as bl
from brickforge import bricks as bk
from brickforge import limits as lm
from brickforge import metrics as mt
from brickforge import surfaces as sf


def main():
    m, e = lm.generate(lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=3))
    d = bl.decompose(bk.LevelSweep.of(m.complex, e))
    print(f"{len(d.torus_tubes)} torus-interface tubes")
    for v in d.tubes:
        if v.interface != "torus":
            continue
        omega = mt.boundary_torus_geometry(v, d)
        tm = mt.tube_metric(omega)
        print(f"  tube {v.tid}: omega = {omega.re} + {omega.im}i,"
              f" |omega|^2 = {omega.abs2()}")
        print(f"    core length = {tm.core_length_eps1_pi} * pi * eps1"
              f" = {tm.core_length():.5f}, radius = {tm.radius:.5f}")
    print()
    for k in range(0, 4):
        f = mt.filtration(d, k)
        print(f"  level {k}: kept {list(f.tubes)} released {list(f.released)}")
    print()
    report = mt.metric_report(d, ks=(0, 2))
    print("report convention:", report["convention"])
    print("tube formula:", report["tube-formula"])


if __name__ == "__main__":
    main()
