"""Exact slope arithmetic on the Farey graph.

Slopes p/q stand for curves on a complexity-4 surface: on a one-holed
torus two slopes span an edge iff |ps - qr| = 1, on a four-holed sphere
iff |ps - qr| = 1 as well but the geometric intersection number doubles.
"""

from __future__ import annotations

from collections import deque
from math import gcd

from .records import record


@record
class Slope:
    """A reduced fraction p/q with q >= 0; infinity is 1/0."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if p == 0 and q == 0:
            raise ValueError("0/0 is not a slope")
        g = gcd(p, q)
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __str__(self):
        return f"{self.p}/{self.q}"


INFINITY = Slope(1, 0)


def slope_det(a: Slope, b: Slope) -> int:
    return a.p * b.q - a.q * b.p


def slope_intersection(a: Slope, b: Slope, doubled: bool = False) -> int:
    """Geometric intersection number of two slope curves.

    doubled=True gives the four-holed-sphere convention where the minimum
    positive value is 2.
    """
    d = abs(slope_det(a, b))
    return 2 * d if doubled else d


def slopes_adjacent(a: Slope, b: Slope) -> bool:
    return abs(slope_det(a, b)) == 1


def enumerate_slopes(bound: int):
    """All slopes with |p| <= bound and |q| <= bound."""
    seen = set()
    for q in range(0, bound + 1):
        for p in range(-bound, bound + 1):
            if p == 0 and q == 0:
                continue
            if gcd(p, q) > 1:
                continue
            s = Slope(p, q)
            if s not in seen:
                seen.add(s)
                yield s


def farey_bfs_distance(u: Slope, w: Slope, bound: int) -> int | None:
    """Breadth-first distance in the Farey graph restricted to slopes of
    height at most `bound`.  Returns None when w is unreachable inside the
    window.  This is the brute-force oracle; `farey_geodesic` must agree
    with it wherever both are defined.
    """
    if u == w:
        return 0
    universe = list(enumerate_slopes(bound))
    if u not in universe or w not in universe:
        raise ValueError("endpoints outside the BFS window")
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in universe:
            if y not in dist and abs(slope_det(x, y)) == 1:
                dist[y] = dist[x] + 1
                if y == w:
                    return dist[y]
                queue.append(y)
    return None


def _continued_fraction(r: int, s: int) -> list[int]:
    """Canonical continued fraction of r/s (s >= 1) with a_i >= 1 for i >= 1."""
    coeffs = []
    while s != 0:
        a = r // s
        coeffs.append(a)
        r, s = s, r - a * s
    return coeffs


def _strip_vertices(r: int, s: int) -> list[Slope]:
    """Vertices of the Farey-tessellation triangle strip between 1/0 and r/s.

    These are 1/0, the convergents of r/s, and every intermediate fraction
    of each fan; some geodesic from 1/0 to r/s runs inside this set.
    """
    coeffs = _continued_fraction(r, s)
    verts = [INFINITY]
    # p_{-1}/q_{-1} = 1/0, and the fans of intermediate fractions.
    pm1, qm1 = 1, 0
    p0, q0 = coeffs[0], 1
    verts.append(Slope(p0, q0))
    prev = (pm1, qm1)
    cur = (p0, q0)
    for a in coeffs[1:]:
        for t in range(1, a + 1):
            verts.append(Slope(prev[0] + t * cur[0], prev[1] + t * cur[1]))
        prev, cur = cur, (prev[0] + a * cur[0], prev[1] + a * cur[1])
    return verts


def _apply(m, x: Slope) -> Slope:
    (a, b), (c, d) = m
    return Slope(a * x.p + b * x.q, c * x.p + d * x.q)


def _normalizing_matrix(u: Slope):
    """An SL(2,Z) matrix sending u to 1/0, with its inverse."""
    p, q = u.p, u.q
    # extended gcd: a*p + b*q = 1
    a, b = _bezout(p, q)
    m = ((a, b), (-q, p))
    minv = ((p, -b), (q, a))
    return m, minv


def _bezout(p: int, q: int):
    old_r, r = p, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_s, s = s, old_s - k * s
        old_t, t = t, old_t - k * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def farey_geodesic_slopes(u: Slope, w: Slope) -> list[Slope]:
    """A geodesic vertex path from u to w in the Farey graph.

    Works by moving u to 1/0, collecting the tessellation triangle strip
    toward the image of w, and running a breadth-first search inside the
    strip, which always contains a geodesic.
    """
    if u == w:
        return [u]
    if slopes_adjacent(u, w):
        return [u, w]
    m, minv = _normalizing_matrix(u)
    x = _apply(m, w)
    r, s = x.p, x.q
    if s < 0:
        r, s = -r, -s
    verts = _strip_vertices(r, s)
    target = Slope(r, s)
    if target not in verts:
        verts.append(target)
    # BFS inside the strip.
    dist = {INFINITY: 0}
    parent = {}
    queue = deque([INFINITY])
    while queue:
        a = queue.popleft()
        if a == target:
            break
        for b in verts:
            if b not in dist and abs(slope_det(a, b)) == 1:
                dist[b] = dist[a] + 1
                parent[b] = a
                queue.append(b)
    if target not in dist:
        raise RuntimeError("strip search failed; tessellation walk is broken")
    path = [target]
    while path[-1] != INFINITY:
        path.append(parent[path[-1]])
    path.reverse()
    out = [_apply(minv, v) for v in path]
    # the normalization fixes endpoints by construction
    assert out[0] == u and out[-1] == w
    return out
