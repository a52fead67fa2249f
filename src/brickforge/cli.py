"""Command-line front end: validation, decomposition, metrics, limits,
crosschecks, and canonical re-serialization of brick-complex documents.

Exit codes: 0 success, 1 failed checks, 2 parse or usage error.  The
README says what the environment variable BRICKFORGE_BUDGET sets.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

from . import blocks as bl
from . import bricks as bk
from . import limits as lm
from . import metrics as mt
from . import serialize as sz
from . import surfaces as sf
from .config import get_budget
from .errors import BrickforgeError, DomainError, ParseError

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
    """The swept model of a document: bricks that do not fit are a parse error."""
    k, e = sz.parse_complex(sz.loads(_read(path)))
    try:
        return bk.LevelSweep.of(k, e)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


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
    ok, report = bl.verify_decomposition(d)
    if not ok:
        _emit({"error": "verify", "detail": report[0]}, sys.stderr)
        return EXIT_FAIL
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
        sweep = lm.scenario_sweep(scenario)
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
    sweep = _load_model(args.input)
    _emit(sz.complex_doc(sweep.complex, sweep.embedding))
    return EXIT_OK


# name -> (handler, summary, whether it reads a positional `input`,
# {option: (type, default, help)}); an option with the default _REQUIRED
# must be given.  The namespace a handler reads holds `input` and each
# option without its dashes.
_REQUIRED = object()
COMMANDS = {
    "validate": (_cmd_validate, "admissibility report for a model", True, {}),
    "decompose": (_cmd_decompose, "block and tube decomposition", True, {}),
    "metric": (
        _cmd_metric, "meridian coefficients and filtration", True,
        {"--k": (int, None, "filtration level")},
    ),
    "limit": (
        _cmd_limit, "scenario exhaustion pipeline", False,
        {
            "--scenario": (str, _REQUIRED, "scenario spec or model document"),
            "--stages": (int, 1, "number of exhaustion stages"),
        },
    ),
    "crosscheck": (_cmd_crosscheck, "hierarchy vs block agreement", True, {}),
    "export": (_cmd_export, "canonical re-serialization", True, {}),
}
_HELP = ("-h", "--help")
# a token argparse reads as a negative number, so as a value
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Stop(Exception):
    """A parse that reaches no handler: help (exit 0, the text goes to
    stdout) or a usage error (exit 2, to stderr)."""

    def __init__(self, code, text):
        super().__init__(text)
        self.code = code
        self.text = text


def _usage(command):
    if command is None:
        return f"usage: brickforge [-h] {{{','.join(COMMANDS)}}} ...\n"
    _, _, reads_input, options = COMMANDS[command]
    words = ["usage: brickforge", command, "[-h]"]
    for name, (_, default, _) in options.items():
        word = f"{name} {name[2:].upper()}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words + ["input"] * reads_input) + "\n"


def _help(command):
    rows = [("-h, --help", "show this help and exit")]
    if command is None:
        head = "exact combinatorial brick-manifold toolkit"
        rows += [(name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        _, head, _, options = COMMANDS[command]
        rows += [
            (f"{name} {name[2:].upper()}", text)
            for name, (_, _, text) in options.items()
        ]
    lines = [f"  {left:<20} {right}" for left, right in rows]
    return "\n".join([_usage(command), head, ""] + lines) + "\n"


def _refuse(command, message):
    prog = "brickforge" if command is None else f"brickforge {command}"
    return _Stop(EXIT_PARSE, f"{_usage(command)}{prog}: error: {message}\n")


def _option(token, names, command):
    """How argparse reads one token of a parser with these option names:
    None for a positional, else (the option it names, or None for an
    unknown one; its attached value, or None).  A token that is the
    prefix of several long options is refused."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    head, eq, value = token.partition("=")
    if eq and head in names:
        return head, value
    if token[1] == "-":
        found = [name for name in names if name.startswith(head)]
        value = value if eq else None
    else:
        # a one-dash token names the option of its first two characters,
        # and the rest is attached to it
        found = [name for name in names if name == token[:2]]
        value = token[2:]
    if len(found) > 1:
        raise _refuse(
            command, f"ambiguous option: {token} could match {', '.join(found)}"
        )
    if found:
        return found[0], value
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _help_flag(command, name, value):
    """-h or --help, alone, or -h with a run of h's after it (-hhh)."""
    if value is None or (name == "-h" and value and not value.strip("h")):
        raise _Stop(EXIT_OK, _help(command))
    raise _refuse(command, f"argument -h/--help: ignored explicit argument {value!r}")


def _parse(argv):
    """The handler and the namespace that argv asks for, read by
    argparse's rules for the grammar of COMMANDS: options by unambiguous
    prefix or with `=value`, negative numbers as values, `--` ending the
    options, and help or an error at the first token that calls for it.
    Raises _Stop for help and for usage errors."""
    extras = []
    for i, token in enumerate(argv):
        if token == "--":
            break
        found = _option(token, _HELP, None)
        if found is None:
            command = token
            break
        if found[0] is None:
            extras.append(token)
        else:
            _help_flag(None, *found)
    else:
        raise _refuse(None, "the following arguments are required: command")
    if token == "--" or command not in COMMANDS:
        raise _refuse(None, f"argument command: invalid choice: {token!r}")
    handler, args, more = _parse_command(command, argv[i + 1 :])
    if extras + more:
        raise _refuse(None, f"unrecognized arguments: {' '.join(extras + more)}")
    return handler, args


def _parse_command(command, tokens):
    """The handler, the namespace and the tokens left over of one command."""
    handler, _, reads_input, options = COMMANDS[command]
    names = _HELP + tuple(options)
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    # every token before the first "--" is read before any is acted on,
    # so an ambiguous one is refused even after -h
    found = [_option(token, names, command) for token in tokens[:cut]]
    values = {name[2:]: default for name, (_, default, _) in options.items()}
    missing = ["input"] * reads_input
    missing += [name for name, (_, d, _) in options.items() if d is _REQUIRED]
    extras = []
    last = max((j for j, f in enumerate(found) if f is not None), default=-1)
    i = 0
    while i <= last:
        token, read = tokens[i], found[i]
        i += 1
        if read is None and "input" in missing:
            values["input"] = token
            missing.remove("input")
            continue
        if read is None or read[0] is None:
            extras.append(token)
            continue
        name, value = read
        if name in _HELP:
            _help_flag(command, name, value)
        if value is None:
            if i >= cut or found[i] is not None:
                raise _refuse(command, f"argument {name}: expected one argument")
            value = tokens[i]
            i += 1
        kind = options[name][0]
        try:
            values[name[2:]] = kind(value)
        except ValueError:
            raise _refuse(
                command, f"argument {name}: invalid {kind.__name__} value: {value!r}"
            ) from None
        if name in missing:
            missing.remove(name)
    if "input" in missing:
        # the input is the next token, with one "--" before or after it dropped
        j = i + (i == cut)
        if j < len(tokens):
            values["input"] = tokens[j]
            missing.remove("input")
            i = j + 1 + (j + 1 == cut)
    if missing:
        raise _refuse(
            command, f"the following arguments are required: {', '.join(missing)}"
        )
    return handler, SimpleNamespace(**values), extras + tokens[i:]


def run(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
    except _Stop as stop:
        (sys.stdout if stop.code == EXIT_OK else sys.stderr).write(stop.text)
        return stop.code
    try:
        get_budget()
        return handler(args)
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
