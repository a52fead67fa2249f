"""Every top-level function, class and constant of the library, and every
method other than a dunder, has a caller; every field of a library class
has a reader.

A definition counts as used when its name is loaded, as a `Name` or an
`Attribute`, or imported as an alias anywhere in `src/` or `demos/`.  An
assignment target is not a use of itself.  A field, a name annotated in a
class body, counts as read only when it is loaded as an `Attribute`: a
local variable of the same name is not a read.  Tests and the bench
harness do not count: code that only they reach is not part of any
command.
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _assigned_names(node):
    """Names bound by a module-level assignment statement."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def definitions():
    """(name, "module.py:line") of every top-level function, class and
    constant, and of every method that is not a dunder."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            where = f"{path.name}:{node.lineno}"
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                out.append((node.name, where))
            out.extend((name, where) for name in _assigned_names(node) if not name.startswith("__"))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (item.name, f"{path.name}:{item.lineno}")
                    for item in node.body
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("__")
                )
    return out


def fields():
    """(name, "module.py:line") of every name annotated in the body of a
    library class."""
    return [
        (item.target.id, f"{path.name}:{item.lineno}")
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _parse(path).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def attribute_loads(tree):
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _caller_trees():
    for top in CALLER_DIRS:
        for path in sorted(top.rglob("*.py")):
            yield _parse(path)


def referenced_names():
    names = set()
    for tree in _caller_trees():
        names |= attribute_loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
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


def test_every_field_is_read():
    read = set().union(*map(attribute_loads, _caller_trees()))
    unread = sorted(f"{where} {name}" for name, where in fields() if name not in read)
    assert not unread, "no reader in src/ or demos/: " + ", ".join(unread)


def test_a_local_of_a_fields_name_is_not_a_read():
    built = ast.parse("graph = []\nd = D(graph=graph)\nd.graph = graph")
    assert "graph" not in attribute_loads(built)
    assert "graph" in attribute_loads(ast.parse("print(d.graph)"))
