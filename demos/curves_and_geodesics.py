"""Curves, Farey geodesics, and certified curve-graph distances.

Runs on the once-punctured and twice-punctured torus: builds slope
curves, walks a tight Farey geodesic between two slopes, and certifies a
distance on the larger surface inside a finite enumeration.
"""

from brickforge import farey as fy
from brickforge import hierarchy as hy
from brickforge import surfaces as sf


def main():
    full = sf.full_surface(sf.TORUS_1_1)
    u = sf.slope_curve(full, 0, 1)
    w = sf.slope_curve(full, 8, 5)
    print(f"geodesic from {u} to {w}:")
    path = sf.farey_geodesic(u, w)
    for step, curve in enumerate(path):
        print(f"  step {step}: {curve}")
    print("tight:", sf.is_tight_sequence(path))
    print()

    oracle = fy.farey_bfs_distance(u.rep, w.rep, 12)
    print(f"length {len(path) - 1} matches the BFS oracle {oracle}")
    print()

    big = sf.full_surface(sf.TORUS_1_2)
    v0 = sf.line_class(big, 0, 1, 0)
    sigma = sf.slot_class(big, (0, 0), (1, 0))
    cert = sf.DistanceCertificate(hy.ambient_universe(2))
    print(f"certified distance on {big.token}:")
    print(f"  d({v0}, {sigma}) = {cert.distance(v0, sigma)}")
    print(f"  intersection number = {sf.intersection_number(v0, sigma)}")


if __name__ == "__main__":
    main()
