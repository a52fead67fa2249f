from math import gcd

import pytest

from brickforge import blocks as bl
from brickforge import bricks as bk
from brickforge import charts
from brickforge import flatcurves as fc
from brickforge import hierarchy as hy
from brickforge import limits as lm
from brickforge import surfaces as sf
from brickforge.records import replace


def reference_descs(radius: int):
    """Every description of an ambient curve up to a size: both lines
    (a, b) and (-a, -b), and each corridor based at either puncture, so
    every class is listed twice.  `AMBIENT.descs(radius)` keeps the first
    description of each class, in this order."""
    out = []
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            if (a, b) == (0, 0) or gcd(abs(a), abs(b)) != 1:
                continue
            bands = (0, 1) if a % 2 == 0 else (0,)
            for band in bands:
                out.append(charts.CurveDesc("lin", (a, b, band)))
    for px in (0, 1):
        for u in range(-radius, radius + 1):
            for v in range(-radius, radius + 1):
                if u % 2 == 0 or gcd(abs(u), abs(v)) != 1:
                    continue
                out.append(charts.CurveDesc("slot", ((px, 0), (px + u, v))))
    return out


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name for this test and returns
    the list of argument tuples of its calls."""

    def install(owner, name):
        calls = []
        fn = getattr(owner, name)

        def counted(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install


@pytest.fixture
def cold_caches():
    """Empty the process-wide class-keyed caches before the test, and
    return the function that empties them, for a test to call again.

    The caches are the intersection and boundary-walk memos, the fan
    charts' classifications, the certificates' adjacency table, the curve
    tags, the ambient universes, the certified main geodesics, the
    approximant memo of `limits`, and the keys that `surfaces.Curve`
    keeps: a key lives on its curve, and the curves that outlive a job are
    the universes' own, the memoised approximants' and the kept main
    geodesics'."""

    def empty():
        fc._INTERSECTIONS.clear()
        fc._WALKS.clear()
        charts._CLASSIFIED.clear()
        sf._ADJACENT.clear()
        sf._TAGS.clear()
        hy._UNIVERSES.clear()
        hy._MAIN_GEODESICS.clear()
        lm._APPROXIMANTS.clear()

    empty()
    return empty


@pytest.fixture
def brick_tubes():
    """brick_tubes(b, initial, terminal) decomposes the model made of the
    one brick b with those endpoint data, in its own levels, and returns
    the round-1 tubes (the placement of the brick's tight geodesic) and
    the decomposition."""

    def place(b, initial, terminal):
        b = replace(b, initial=initial, terminal=terminal)
        k = bk.BrickComplex(b.support.ambient, (b,), ())
        d = bl.decompose(bk.LevelSweep.of(k, bk.identity_embedding(k)))
        return [t for t in d.placed if t.origin[0] == 1], d

    return place
