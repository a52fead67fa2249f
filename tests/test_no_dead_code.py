"""Every top-level function, class and constant of the library, and every
method other than a dunder, has a caller; every field of a library class
has a reader; every parameter with a default is set by some call; every
parameter of a library function is read in its body; every name a
library module imports is used in that module; and every exception
handler raises, outside the few functions whose job is to turn an error
into a result.

A definition counts as used when its name is loaded, as a `Name` or an
`Attribute`, or imported as an alias anywhere in `src/` or `demos/`.  An
assignment target is not a use of itself.  A field, a name annotated in a
class body, counts as read only when it is loaded as an `Attribute`: a
local variable of the same name is not a read.  A parameter with a
default counts as set when a call of its function's name passes it by
keyword or by position, or passes `*args` or `**kwargs`.  A parameter
is read when its function's body, nested functions included, loads it as
a `Name`; the self or cls of a method is exempt.  A name bound by a
module-level import is used when the module loads it as a `Name`;
`from __future__` imports are exempt.  Tests and the bench
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

# (file, function, parameter) read nowhere in the function's body:
# `__setattr__` and `__delattr__` share `_frozen`, whose signature takes
# the value that `__setattr__` is given
UNREAD_ALLOWED = {("records.py", "_frozen", "value")}


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


def _is_static(method):
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in method.decorator_list)


def _defaults_in(tree, filename):
    """(callee name, parameter, position, "file:line") of every parameter
    with a default of a top-level function or a method.  A method's
    positions count after self (or cls), an `__init__` is called by its
    class name, and a keyword-only parameter has no position."""
    defs = [(node.name, node, False) for node in tree.body if isinstance(node, FUNCTIONS)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for item in cls.body:
                if isinstance(item, FUNCTIONS):
                    callee = cls.name if item.name == "__init__" else item.name
                    defs.append((callee, item, not _is_static(item)))
    for callee, node, bound in defs:
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if bound else 0
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield callee, arg.arg, i - skip, f"{filename}:{arg.lineno}"
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield callee, arg.arg, None, f"{filename}:{arg.lineno}"


def _callee(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def sets(call, name, position):
    """Whether the call sets the parameter: by keyword, by position, or
    through `*args` or `**kwargs`."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_default_parameter_is_set_somewhere():
    calls = {}
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    unset = sorted(
        f"{where} {callee}({name}=)"
        for path in sorted(PACKAGE.glob("*.py"))
        for callee, name, position, where in _defaults_in(_parse(path), path.name)
        if not any(sets(call, name, position) for call in calls.get(callee, ()))
    )
    assert not unset, "no call in src/ or demos/ sets: " + ", ".join(unset)


def test_a_default_is_set_by_keyword_position_or_unpacking():
    library = ast.parse(
        "def f(a, b=1, *, c=2): ...\n"
        "class C:\n"
        "    def __init__(self, x=0): ...\n"
        "    def m(self, y=0): ...\n"
        "    @staticmethod\n"
        "    def s(z=0): ...\n"
    )
    assert [d[:3] for d in _defaults_in(library, "lib.py")] == [
        ("f", "b", 1), ("f", "c", None), ("C", "x", 0), ("m", "y", 0), ("s", "z", 0),
    ]

    def call(source):
        return ast.parse(source).body[0].value

    assert sets(call("f(0, 1)"), "b", 1)
    assert not sets(call("f(0)"), "b", 1)
    assert sets(call("f(0, b=1)"), "b", 1)
    assert sets(call("f(*args)"), "b", 1)
    assert sets(call("f(0, **kwargs)"), "b", 1)
    assert not sets(call("f(0, 1, 2)"), "c", None)
    assert sets(call("f(0, c=3)"), "c", None)
    assert _callee(call("obj.m(1)")) == "m"


def unread_parameters(tree, filename):
    """(file, function, parameter) of every parameter of a function or
    lambda of the module, nested ones too, that its body never loads as a
    `Name`; the first parameter of a method that is not static is exempt."""
    bound = {
        id(item)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, FUNCTIONS) and not _is_static(item)
    }
    for node in ast.walk(tree):
        if not isinstance(node, (*FUNCTIONS, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        if id(node) in bound:
            params = params[1:]
        body = node.body if isinstance(node.body, list) else [node.body]
        loads = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        yield from ((filename, name, p.arg) for p in params if p.arg not in loads)


def test_every_parameter_is_read():
    unread = sorted(
        entry
        for path in sorted(PACKAGE.glob("*.py"))
        for entry in unread_parameters(_parse(path), path.name)
        if entry not in UNREAD_ALLOWED
    )
    assert not unread, "parameters read nowhere in their function: " + ", ".join(
        f"{f} {fn}({p})" for f, fn, p in unread
    )


def test_allowed_unread_parameters_are_still_unread():
    found = {
        entry
        for path in sorted(PACKAGE.glob("*.py"))
        for entry in unread_parameters(_parse(path), path.name)
    }
    assert UNREAD_ALLOWED <= found


def test_an_unread_parameter_is_found():
    library = ast.parse(
        "def f(a, b, *c, d=0, **e):\n"
        "    def g(x):\n"
        "        return a + x\n"
        "    return g(d)\n"
        "class C:\n"
        "    def m(self, y):\n"
        "        return y\n"
        "    @staticmethod\n"
        "    def s(z):\n"
        "        return 0\n"
        "h = lambda w: 0\n"
    )
    assert sorted(unread_parameters(library, "lib.py")) == [
        ("lib.py", "<lambda>", "w"),
        ("lib.py", "f", "b"),
        ("lib.py", "f", "c"),
        ("lib.py", "f", "e"),
        ("lib.py", "s", "z"),
    ]


def unused_imports(tree, filename):
    """(file, name) of every name that a module-level import of the module
    binds and the module never loads as a `Name`; `from __future__`
    imports are exempt."""
    loads = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in loads:
                yield filename, name


def test_every_import_is_used():
    unused = sorted(
        entry
        for path in sorted(PACKAGE.glob("*.py"))
        for entry in unused_imports(_parse(path), path.name)
    )
    assert not unused, "imported but never used: " + ", ".join(
        f"{f} {name}" for f, name in unused
    )


def test_an_unused_import_is_found():
    library = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from . import surfaces as sf\n"
        "from .records import record, replace\n"
        "@record\n"
        "class C:\n"
        "    x: int\n"
        "def f():\n"
        "    from hashlib import sha1\n"
        "    return sf.full_surface, sys.argv\n"
    )
    assert sorted(unused_imports(library, "lib.py")) == [
        ("lib.py", "os"),
        ("lib.py", "replace"),
    ]


# (module, function) whose `except` handlers may end without raising:
# each turns the error it catches into a result
SWALLOW_ALLOWED = {
    # the command line: every error becomes an exit code and a JSON detail
    ("cli", "run"),
    # a failed check becomes a violation, or a verdict, in the report
    ("hierarchy", "verify_hierarchy"),
    # a tube whose core does not project into the chart is skipped
    ("blocks", "_nearby_tube_marking"),
}


def swallowing_handlers(tree, module):
    """(module, function, line) of every `except` handler of the module
    with no `raise` statement in its body; a handler outside any function
    counts as in the function "<module>"."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and not any(
                isinstance(n, ast.Raise) for stmt in child.body for n in ast.walk(stmt)
            ):
                yield module, function, child.lineno
            yield from visit(child, function)

    yield from visit(tree, "<module>")


def test_every_handler_raises():
    swallowed = sorted(
        entry
        for path in sorted(PACKAGE.glob("*.py"))
        for entry in swallowing_handlers(_parse(path), path.stem)
        if entry[:2] not in SWALLOW_ALLOWED
    )
    assert not swallowed, "handlers that raise nothing: " + ", ".join(
        f"{m}.py:{line} {fn}" for m, fn, line in swallowed
    )


def test_allowed_handlers_still_swallow():
    found = {
        entry[:2]
        for path in sorted(PACKAGE.glob("*.py"))
        for entry in swallowing_handlers(_parse(path), path.stem)
    }
    assert SWALLOW_ALLOWED <= found


def test_a_swallowing_handler_is_found():
    library = ast.parse(
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except ValueError:\n"
        "        return None\n"
        "    except KeyError as exc:\n"
        "        raise TypeError() from exc\n"
        "class C:\n"
        "    def m(self):\n"
        "        for x in xs:\n"
        "            try:\n"
        "                g()\n"
        "            except OSError:\n"
        "                if x:\n"
        "                    raise\n"
        "            except TypeError:\n"
        "                continue\n"
        "try:\n"
        "    import h\n"
        "except ImportError:\n"
        "    h = None\n"
    )
    assert sorted(swallowing_handlers(library, "lib")) == [
        ("lib", "<module>", 20),
        ("lib", "f", 4),
        ("lib", "m", 16),
    ]
