"""Command-line front end: validation, decomposition, metrics, limits,
crosschecks, and canonical re-serialization of brick-complex documents.

Exit codes: 0 success, 1 failed checks, 2 parse or usage error.  The
README says what the environment variable BRICKFORGE_BUDGET sets.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import blocks as bl
from . import bricks as bk
from . import limits as lm
from . import metrics as mt
from . import serialize as sz
from . import surfaces as sf
from .config import get_budget
from .errors import BrickforgeError, ParseError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_model(path: str) -> bk.LevelSweep:
    return bk.LevelSweep.of(*sz.parse_complex(sz.loads(_read(path))))


def _emit(doc, stream=None):
    (stream or sys.stdout).write(sz.dumps(doc))


def _tube_doc(v):
    return {
        "id": v.tid,
        "core": sz.curve_str(v.core),
        "band": [sz.frac_str(v.band[0]), sz.frac_str(v.band[1])],
        "interface": v.interface,
        "domain": v.token,
    }


def _block_doc(b):
    doc = {
        "id": b.blid,
        "type": b.btype,
        "domain": b.support.token,
        "interval": [sz.frac_str(b.interval[0]), sz.frac_str(b.interval[1])],
    }
    if b.gap is not None:
        doc["gap"] = [sz.frac_str(b.gap[0]), sz.frac_str(b.gap[1])]
    if b.tube is not None:
        doc["tube"] = b.tube
    return doc


def _cmd_validate(args):
    sweep = _load_model(args.input)
    ok_structure, structure = bk.validate_complex(sweep.complex)
    conditions = bk.check_conditions(sweep)
    ok = ok_structure and all(conditions.values())
    _emit(
        {
            "structure": {"pass": ok_structure, "report": list(structure)},
            "conditions": conditions,
            "pass": ok,
        }
    )
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_decompose(args):
    d = bl.decompose(_load_model(args.input))
    ok, report = bl.verify_decomposition(d)
    _emit(
        {
            "rounds": d.rounds_used,
            "blocks": [_block_doc(b) for b in d.blocks],
            "tubes": [_tube_doc(v) for v in d.tubes],
            "torus-tubes": sorted(d.torus_tubes),
            "adjustments": [
                {"front": sz.frac_str(front), "to": sz.frac_str(to), "flag": "bb"}
                for front, to in d.adjustments
            ],
            "verify": {"pass": ok, "report": list(report)},
            "pass": ok,
        }
    )
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_metric(args):
    if args.k is not None and args.k < 0:
        raise ParseError(f"--k must be non-negative, not {args.k}")
    d = bl.decompose(_load_model(args.input))
    ks = (0, args.k) if args.k else (0,)
    _emit(mt.metric_report(d, ks=ks))
    return EXIT_OK


def _parse_scenario(spec: str) -> lm.Scenario | None:
    """The built-in scenario a spec names, or None when its first `:`
    field names none: the spec is then the path of a model document."""
    names = {
        "kt": "kerckhoff-thurston",
        "bo": "bonahon-otal",
        "kerckhoff-thurston": "kerckhoff-thurston",
        "bonahon-otal": "bonahon-otal",
        "brock": "brock",
    }
    parts = spec.split(":")
    if parts[0] not in names:
        return None
    kind = names[parts[0]]
    base = sf.TORUS_1_2 if kind == "brock" else sf.TORUS_1_1
    depth = 1
    try:
        for part in parts[1:]:
            if "," in part:
                base = sz.parse_surface(part)
            else:
                depth = int(part)
        scenario = lm.Scenario(kind, base, depth=depth)
    except (ValueError, ParseError) as exc:
        raise ParseError(f"bad scenario spec {spec!r}") from exc
    if kind == "brock" and base != sf.TORUS_1_2:
        raise ParseError(f"scenario {spec!r} needs the base 1,2")
    if sf.full_surface(base).chart is None:
        raise ParseError(f"scenario {spec!r} has a base with no chart")
    return scenario


def _cmd_limit(args):
    if args.stages < 1:
        raise ParseError(f"--stages must be at least 1, not {args.stages}")
    scenario = _parse_scenario(args.scenario)
    if scenario is None:
        sweep = _load_model(args.scenario)
    else:
        m, e = lm.generate(scenario)
        sweep = bk.LevelSweep.of(m.complex, e)
    states = lm.exhaust(sweep, args.stages)
    theorem = lm.verify_theorem_a(sweep)
    ok = theorem["pass"] and all(s.acylindrical for s in states)
    _emit(
        {
            "scenario": args.scenario,
            "stages": lm.exhaustion_docs(states),
            "theorem": theorem,
            "pass": ok,
        }
    )
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_crosscheck(args):
    sweep = _load_model(args.input)
    endpointed = [
        b
        for b in sweep.complex.bricks
        if b.initial is not None and b.terminal is not None
    ]
    if len(endpointed) != 1:
        raise ParseError(
            "crosscheck needs exactly one brick with endpoint markings"
        )
    d = bl.decompose(sweep)
    ok = bl.hierarchy_crosscheck(endpointed[0], d)
    _emit({"brick": endpointed[0].bid, "pass": ok})
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_export(args):
    k, e = sz.parse_complex(sz.loads(_read(args.input)))
    _emit(sz.complex_doc(k, e))
    return EXIT_OK


@functools.cache
def _build_parser():
    """The one parser of the process, built by the first `run`, not at
    import.  argparse keeps no per-call state in it: `parse_args` returns a
    new Namespace, and help and errors look up sys.stdout and sys.stderr
    when they write."""
    parser = argparse.ArgumentParser(
        prog="brickforge",
        description="exact combinatorial brick-manifold toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="admissibility report for a model")
    p.add_argument("input")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("decompose", help="block and tube decomposition")
    p.add_argument("input")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("metric", help="meridian coefficients and filtration")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=None, help="filtration level")
    p.set_defaults(handler=_cmd_metric)

    p = sub.add_parser("limit", help="scenario exhaustion pipeline")
    p.add_argument("--scenario", required=True)
    p.add_argument("--stages", type=int, default=1)
    p.set_defaults(handler=_cmd_limit)

    p = sub.add_parser("crosscheck", help="hierarchy vs block agreement")
    p.add_argument("input")
    p.set_defaults(handler=_cmd_crosscheck)

    p = sub.add_parser("export", help="canonical re-serialization")
    p.add_argument("input")
    p.set_defaults(handler=_cmd_export)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        get_budget()
        return args.handler(args)
    except ParseError as exc:
        _emit({"error": "parse", "detail": str(exc)}, sys.stderr)
        return EXIT_PARSE
    except (BrickforgeError, ValueError) as exc:
        _emit(
            {"error": type(exc).__name__, "detail": str(exc)}, sys.stderr
        )
        return EXIT_FAIL


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
