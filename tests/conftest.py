import sys
from math import gcd

import pytest

from brickforge import blocks as bl
from brickforge import bricks as bk
from brickforge import charts
from brickforge.records import Memo, replace


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


def tables():
    """(module, name) -> each dict bound at the top level of a loaded
    brickforge module, and, as (module, "name.attribute"), each dict one
    attribute deep in an instance of a brickforge class bound there."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "brickforge":
            continue
        for name, value in vars(module).items():
            if isinstance(value, dict) and not name.startswith("__"):
                out[modname, name] = value
            elif type(value).__module__.startswith("brickforge."):
                for attr, inner in getattr(value, "__dict__", {}).items():
                    if isinstance(inner, dict):
                        out[modname, f"{name}.{attr}"] = inner
    return out


def empty_memos():
    """Empty every `Memo` that `tables` finds."""
    for table in tables().values():
        if isinstance(table, Memo):
            table.clear()


@pytest.fixture
def cold_caches():
    """Empty every module-level `Memo` of the library before the test, and
    return the function that empties them, for a test to call again."""
    empty_memos()
    return empty_memos


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
