"""A hierarchy of tight geodesics on the twice-punctured torus.

Builds the main geodesic between two markings and shows the subordinate
geodesics that open up on component domains along the way.
"""

from brickforge import hierarchy as hy
from brickforge import surfaces as sf


def main():
    full = sf.full_surface(sf.TORUS_1_2)
    v0 = sf.line_class(full, 0, 1, 0)
    v1 = sf.line_class(full, 0, 1, 1)
    sigma = sf.slot_class(full, (0, 0), (1, 0))
    initial = sf.Marking(sf.Simplex.of(full, v0, v1))
    terminal = sf.Marking(sf.Simplex.of(full, sigma))

    h = hy.build_hierarchy(sf.TORUS_1_2, initial, terminal)
    print(f"hierarchy with {len(h.geodesics)} geodesics; main = {h.main_gid}")
    for g in h.geodesics:
        print(f"\ngeodesic {g.gid} on {g.domain.token}:")
        for i, c in enumerate(g.vertices):
            print(f"  v{i}: {c}")
    ok, violations = hy.verify_hierarchy(h)
    print("\nverified:", ok, violations or "")


if __name__ == "__main__":
    main()
