"""Every top-level function and class of the library has a caller.

A definition counts as used when its name appears as a `Name`, an
`Attribute` or an import alias anywhere in `src/` or `demos/`.  Tests and
the bench harness do not count: code that only they reach is not part of
any command.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "brickforge"
CALLER_DIRS = (ROOT / "src", ROOT / "demos")

ALLOWED = {
    # the ascending-sequence lemmas of the paper's limit construction: the
    # acceptance test of geometric limits and the exhaust oracle in
    # test_limits.py run them on every `exhaust` stage
    "rearrange",
    # the eventual embedding of those sequences, compared with the model's
    # embedding on the stable bricks by the same two tests
    "limit_embedding",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def definitions():
    """(name, "module.py:line") of every top-level function and class."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((node.name, f"{path.name}:{node.lineno}"))
    return out


def referenced_names():
    names = set()
    for top in CALLER_DIRS:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def test_every_definition_has_a_caller():
    used = referenced_names()
    dead = sorted(
        f"{where} {name}"
        for name, where in definitions()
        if name not in used and name not in ALLOWED
    )
    assert not dead, "no caller in src/ or demos/: " + ", ".join(dead)


def test_allowed_names_are_still_defined():
    assert ALLOWED <= {name for name, _ in definitions()}
