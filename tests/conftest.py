from dataclasses import replace

import pytest

from brickforge import blocks as bl
from brickforge import bricks as bk
from brickforge import flatcurves as fc
from brickforge import hierarchy as hy
from brickforge import limits as lm


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

    The caches are the intersection memo, the ambient universes, the
    approximant memo of `limits`, and the keys that `surfaces.Curve`
    keeps: a key lives on its curve, and the curves that outlive a job are
    the universes' own and the memoised approximants'."""

    def empty():
        fc._INTERSECTIONS.clear()
        hy._UNIVERSES.clear()
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
