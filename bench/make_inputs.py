"""Write the benchmark's input documents to bench/inputs.json.

The documents are made once, with the library, and committed: every run
reads the same bytes whatever later commits do to the serializer.  A run
writes each document to `.bench_build/inputs/<name>.json` (see `run.py`),
so the paths that `limit --scenario <path>` echoes into stdout are stable.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_inputs.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from brickforge import bricks as bk
from brickforge import limits as lm
from brickforge import serialize as sz
from brickforge import surfaces as sf

import workloads as wl

OUT = Path(__file__).resolve().parent / "inputs.json"


def single_brick_11(p1, q1, p2, q2):
    """The single-brick T(1,1) model of the acceptance tests."""
    full = sf.full_surface(sf.TORUS_1_1)

    def mark(p, q):
        return sf.Marking(sf.Simplex.of(full, sf.slope_curve(full, p, q)))

    b = bk.Brick("b0", full, "closed", Fraction(0), Fraction(1),
                 initial=mark(p1, q1), terminal=mark(p2, q2))
    return bk.BrickComplex(sf.TORUS_1_1, (b,), ())


def single_brick_12(initial, terminal):
    """A single-brick T(1,2) model marked by named ambient curves."""
    full = sf.full_surface(sf.TORUS_1_2)
    ambient = {
        "v0": sf.line_class(full, 0, 1, 0),
        "v1": sf.line_class(full, 0, 1, 1),
        "h": sf.line_class(full, 1, 0),
        "sigma": sf.slot_class(full, (0, 0), (1, 0)),
    }

    def mark(names):
        return sf.Marking(sf.Simplex.of(full, *(ambient[n] for n in names)))

    b = bk.Brick("b0", full, "closed", Fraction(0), Fraction(1),
                 initial=mark(initial), terminal=mark(terminal))
    return bk.BrickComplex(sf.TORUS_1_2, (b,), ())


def documents() -> dict:
    docs = {}

    def add(name, k, e=None):
        e = e if e is not None else bk.identity_embedding(k)
        docs[name] = sz.dumps(sz.complex_doc(k, e))

    for name, kind in (("kt12", "kerckhoff-thurston"), ("brock", "brock")):
        m, e = lm.generate(lm.Scenario(kind, sf.TORUS_1_2))
        add(name, m.complex, e)
    for initial, terminal in wl.SB12_MARKINGS:
        add(wl.sb12_name(initial, terminal), single_brick_12(initial, terminal))
    for pair in sorted(set(wl.stream_pairs()) | set(wl.SLOPE_PAIRS)):
        add(wl.sb11_name(*pair), single_brick_11(*pair))
    return docs


def main():
    OUT.write_text(json.dumps(documents(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
