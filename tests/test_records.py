"""Records against the dataclasses they replaced.

Each record class of the library has a twin made by
`dataclasses.make_dataclass(..., frozen=True)` from the same class body,
as `@dataclass(frozen=True)` made it before, with
`field(default=None, compare=False, repr=False)` for the field that now
defaults to `HIDDEN`.  Records and twins must agree on `==`, hash and
repr, byte for byte: `Simplex` orders its curves by `repr(c.key())`, and
set orders under a fixed hash seed follow the hashes.
"""

import contextlib
import dataclasses
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import brickforge
from brickforge import bricks as bk
from brickforge import charts
from brickforge import cli
from brickforge import flatcurves as fc
from brickforge import hierarchy as hy
from brickforge import limits as lm
from brickforge import records
from brickforge import serialize as sz
from brickforge import surfaces as sf
from brickforge.farey import Slope
from brickforge.records import replace

ROOT = Path(__file__).resolve().parents[1]
BENCH_INPUTS = json.loads((ROOT / "bench" / "inputs.json").read_text())

HIDDEN = {("EssentialSubsurface", "chart")}
# what `record` adds to a class body, besides its shared functions
MADE_BY_RECORD = {"__init__", "__setattr__", "__delattr__", "__dict__", "__weakref__"}


def record_classes():
    out = []
    for info in pkgutil.iter_modules(brickforge.__path__):
        module = importlib.import_module(f"brickforge.{info.name}")
        out += [
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and value.__module__ == module.__name__
            and "_record_fields" in vars(value)
        ]
    return out


RECORDS = record_classes()


def make_twin(cls):
    """The dataclass the record class was: its class body without what
    `record` added, the same fields and qualified name.  It subclasses the
    record only to inherit the methods and memos of the body, such as
    `Curve.key`, that `Curve.__eq__` finds through `isinstance`."""
    body = {
        name: value
        for name, value in vars(cls).items()
        if name not in MADE_BY_RECORD
        and not name.startswith("_record")
        and getattr(value, "__module__", None) != records.__name__
    }
    fields = [
        (name, kind, dataclasses.field(default=None, compare=False, repr=False))
        if (cls.__name__, name) in HIDDEN
        else (name, kind)
        for name, kind in cls.__annotations__.items()
    ]
    twin = dataclasses.make_dataclass(
        cls.__name__,
        fields,
        bases=(cls,),
        namespace=body,
        frozen=True,
    )
    twin.__qualname__ = cls.__qualname__
    return twin


TWINS = {cls: make_twin(cls) for cls in RECORDS}


def twin_of(obj):
    cls = type(obj)
    return TWINS[cls](**{name: getattr(obj, name) for name in cls.__annotations__})


def symbolic(doc):
    """The document with its first continued-fraction lamination made
    symbolic."""
    head, rest = doc.split('"kind": "continued-fraction"', 1)
    head = head[: head.rindex("{")]
    rest = rest[rest.index("}") + 1 :]
    return head + '{"kind": "symbolic", "label": "end"}' + rest


@cache
def built_in_real_runs():
    """Every record that these commands construct, by class: `decompose`
    of the kt12 document, `decompose` and `crosscheck` of the T(1,2)
    brick from (v0, v1) to sigma, a `limit` report, a `metric` report of
    a torus model, and `validate` of the brock document, also with a
    symbolic lamination; and the polygon of each ambient class of
    `descs(2)`, which a warm process has already built.  The
    intersection memos and the kept main geodesics are emptied first, so
    that the runs overlay crossing curves."""
    built = {cls: [] for cls in RECORDS}
    inits = {cls: cls.__init__ for cls in RECORDS}

    def keeping(init):
        def kept(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built[type(self)].append(self)

        return kept

    full = sf.full_surface(sf.TORUS_1_2)
    pair = sf.Simplex.of(full, sf.line_class(full, 0, 1, 0), sf.line_class(full, 0, 1, 1))
    sigma = sf.Simplex.of(full, sf.slot_class(full, (0, 0), (1, 0)))
    brick = bk.Brick(
        "b0", full, "closed", Fraction(0), Fraction(1),
        initial=sf.Marking(pair), terminal=sf.Marking(sigma),
    )
    single = bk.BrickComplex(sf.TORUS_1_2, (brick,), ())
    m, e = lm.generate(lm.Scenario("kerckhoff-thurston", sf.TORUS_1_1))
    documents = {
        "kt12": BENCH_INPUTS["kt12"],
        "single": sz.dumps(sz.complex_doc(single, bk.identity_embedding(single))),
        "kt": sz.dumps(sz.complex_doc(m.complex, e)),
        "brock": BENCH_INPUTS["brock"],
        "symbolic": symbolic(BENCH_INPUTS["brock"]),
    }
    fc._INTERSECTIONS.clear()
    fc._WALKS.clear()
    hy._MAIN_GEODESICS.clear()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in documents.items():
            (Path(tmp) / name).write_text(text)
        runs = [
            ["decompose", f"{tmp}/kt12"],
            ["decompose", f"{tmp}/single"],
            ["crosscheck", f"{tmp}/single"],
            ["limit", "--scenario", "bo:6", "--stages", "2"],
            ["metric", "--k", "1", f"{tmp}/kt"],
            ["validate", f"{tmp}/brock"],
            ["validate", f"{tmp}/symbolic"],
        ]
        try:
            for cls in RECORDS:
                cls.__init__ = keeping(inits[cls])
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.run(argv) == 0, argv
            for desc in charts.AMBIENT.descs(2):
                desc.build()
        finally:
            for cls in RECORDS:
                cls.__init__ = inits[cls]
    return built


def sample(cls, size=40):
    """Up to `size` of the class's records, spread over the runs."""
    xs = built_in_real_runs()[cls]
    return xs[:: max(1, len(xs) // size)][:size]


def test_every_record_class_is_built_in_the_runs():
    assert len(RECORDS) == 31
    assert not [cls.__name__ for cls in RECORDS if not built_in_real_runs()[cls]]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_agree_with_their_dataclass_twins(cls):
    xs = sample(cls)
    twins = [twin_of(x) for x in xs]
    for x, t in zip(xs, twins):
        assert repr(x) == repr(t)
        assert hash(x) == hash(t)
        assert x == cls(**{name: getattr(x, name) for name in cls.__annotations__})
    for x, t in zip(xs, twins):
        for y, u in zip(xs, twins):
            assert (x == y) == (t == u)
            assert (x != y) == (t != u)


def test_replace_runs_post_init_again():
    assert replace(Slope(1, 3), p=2, q=-4) == Slope(-1, 2)
    assert repr(replace(Slope(1, 3), p=2, q=-4)) == repr(
        dataclasses.replace(TWINS[Slope](1, 3), p=2, q=-4)
    )
    d = sf.full_surface(sf.TORUS_1_2)
    s = sf.Simplex.of(d, sf.line_class(d, 0, 1, 0), sf.line_class(d, 0, 1, 1))
    again = replace(s, curves=s.curves[::-1])
    assert again.curves == s.curves and again == s
    assert replace(s) == s and replace(s) is not s


def test_unknown_and_missing_fields_raise_type_error():
    twin = TWINS[Slope]
    messages = []
    for make, fix in ((Slope, replace), (twin, dataclasses.replace)):
        with pytest.raises(TypeError) as unknown:
            fix(make(1, 2), r=3)
        with pytest.raises(TypeError) as missing:
            make(1)
        messages.append((str(unknown.value), str(missing.value)))
    assert messages[0] == messages[1]
    assert messages[0][1] == "Slope.__init__() missing 1 required positional argument: 'q'"


def test_assignment_and_deletion_raise_attribute_error():
    x = Slope(1, 2)
    for change in (
        lambda: setattr(x, "p", 3),
        lambda: setattr(x, "other", 3),
        lambda: delattr(x, "p"),
    ):
        with pytest.raises(AttributeError):
            change()
    assert x == Slope(1, 2)


def test_the_methods_a_class_defines_itself_are_kept():
    # a curve compares, hashes and prints by its domain token and class key
    c = sf.slope_curve(sf.full_surface(sf.TORUS_1_1), 1, 2)
    assert repr(c) == "Curve(full:1,1, F:1/2)"
    assert hash(c) == hash(("full:1,1", ("F", Slope(1, 2))))
    assert c == sf.slope_curve(sf.full_surface(sf.TORUS_1_1), -2, -4)


def test_a_hidden_field_defaults_to_none_and_is_not_compared():
    d = sf.full_surface(sf.TORUS_1_2)
    bare = replace(d, chart=None)
    assert bare == d and hash(bare) == hash(d) and repr(bare) == repr(d)
    assert "chart" not in repr(d) and d.chart is not None
    assert sf.EssentialSubsurface(d.ambient, d.token, d.kind, d.ttype).chart is None


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import brickforge.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
