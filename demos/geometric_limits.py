"""Scenario models, ascending exhaustions, and the limit classification.

Generates the three built-in limit scenarios, runs the exhaustion
pipeline with obstructor search on each, and prints the end and
boundary classification report.
"""

from brickforge import bricks as bk
from brickforge import limits as lm
from brickforge import surfaces as sf


def main():
    scenarios = [
        ("single twist tube", lm.Scenario("kerckhoff-thurston", sf.TORUS_1_1)),
        ("nested tubes d=3", lm.Scenario("bonahon-otal", sf.TORUS_1_1, depth=3)),
        ("removed leaf", lm.Scenario("brock", sf.TORUS_1_2)),
    ]
    for name, s in scenarios:
        m, e = lm.generate(s)
        sweep = bk.LevelSweep.of(m.complex, e)
        ends = bk.classify_ends(sweep)
        comps = bk.boundary_components(sweep)
        print(f"{name}: {len(m.complex.bricks)} bricks,"
              f" ends {sorted(x.kind for x in ends)},"
              f" boundary {sorted(c.kind for c in comps)}")
        for state in lm.exhaust(sweep, 2):
            print(f"  stage {state.n}: window {state.window},"
                  f" {len(state.obstructors)} obstructor(s),"
                  f" acylindrical = {state.acylindrical}")
        report = lm.verify_theorem_a(sweep)
        print(f"  classification checks: {report['checks']}")
        print(f"  overall: {'PASS' if report['pass'] else 'FAIL'}")
        print()

    full = sf.full_surface(sf.TORUS_1_1)
    c = sf.slope_curve(full, 0, 1)
    print("two parallel tubes around the same core:")
    state = lm.exhaust(bk.LevelSweep.of(*lm._tower(sf.TORUS_1_1, [c, c])), 1)[0]
    for core, band in state.obstructors:
        print(f"  obstructor {core} at band {band}")
    print(f"  approximant acylindrical = {state.acylindrical}")


if __name__ == "__main__":
    main()
