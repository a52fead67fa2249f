import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brickforge import charts
from brickforge import flatcurves as fc
from brickforge import limits as lm
from brickforge import serialize as sz
from brickforge import surfaces as sf
from brickforge.errors import ParseError
from conftest import reference_descs

ROOT = Path(__file__).resolve().parents[1]
BENCH_INPUTS = json.loads((ROOT / "bench" / "inputs.json").read_text())

# characters the JSON string escapes treat specially: quotes, backslashes,
# control characters, non-ASCII text, the line and paragraph
# separators U+2028 and U+2029, and lone surrogates
SPECIAL = '"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\u2029\u4e2d\ud800\udfff\U0001f600'
strings = st.text(st.characters() | st.sampled_from(SPECIAL))
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | strings
)
documents = st.recursive(
    scalars,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(strings, children),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(doc=documents)
def test_dumps_is_canonical_json(doc):
    want = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert sz.dumps(doc) == want


# a placeholder that `_fill` replaces, at each place, by one shared object
SHARED = object()


def _fill(skeleton, shared):
    if skeleton is SHARED:
        return shared
    if isinstance(skeleton, dict):
        return {key: _fill(value, shared) for key, value in skeleton.items()}
    if isinstance(skeleton, list):
        return [_fill(value, shared) for value in skeleton]
    return skeleton


# documents that hold one dict or list object at several places, at any
# depths, which `dumps` encodes once and indents to each place
shared_documents = st.builds(
    _fill,
    st.recursive(
        scalars | st.just(SHARED),
        lambda children: st.lists(children) | st.dictionaries(strings, children),
        max_leaves=20,
    ),
    st.dictionaries(strings, documents, max_size=3) | st.lists(documents, max_size=3),
)


@settings(max_examples=100, deadline=None)
@given(doc=shared_documents)
def test_dumps_is_canonical_json_with_shared_parts(doc):
    want = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert sz.dumps(doc) == want


def _shared_empty():
    empty, nothing = {}, []
    return {"a": empty, "b": [empty, {"c": empty, "d": nothing}], "e": nothing}


def _shared_at_depths_1_and_4():
    part = {"x": ["y\n", {"z": 1}], "w": None}
    return {"a": part, "b": [{"c": [part, part]}]}


@pytest.mark.parametrize(
    "doc",
    [_shared_empty(), _shared_at_depths_1_and_4()],
    ids=["empty-containers", "depths-1-and-4"],
)
def test_dumps_writes_a_shared_part_at_each_place(doc):
    want = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert sz.dumps(doc) == want


@pytest.mark.parametrize(
    "doc",
    [0.5, Fraction(1, 2), {1, 2}, {1: "x"}, {"a": [True, 1.0]}],
    ids=["float", "fraction", "set", "int-key", "nested-float"],
)
def test_dumps_refuses_values_outside_the_format(doc):
    with pytest.raises(TypeError):
        sz.dumps(doc)


def test_complex_documents_share_nothing_across_calls():
    """`complex_doc` without a memo builds new documents on each call, so
    a caller may edit one and the next is as before."""
    m, e = lm.generate(lm.Scenario("brock", sf.TORUS_1_2))
    first, second = sz.complex_doc(m.complex, e), sz.complex_doc(m.complex, e)

    def dict_ids(doc):
        if isinstance(doc, dict):
            yield id(doc)
        for value in doc.values() if isinstance(doc, dict) else doc:
            if isinstance(value, (dict, list)):
                yield from dict_ids(value)

    assert not set(dict_ids(first)) & set(dict_ids(second))
    text = sz.dumps(second)
    first["bricks"][0]["support"]["token"] = "edited"
    first["joints"][0]["surface"]["kind"] = "edited"
    first["bricks"][1]["id"] = "edited"
    assert sz.dumps(sz.complex_doc(m.complex, e)) == text
    assert sz.dumps(second) == text


def enumeration():
    """The reference descriptions of radius 1, 2 and 3, in order, each
    once: two for each class."""
    return list(dict.fromkeys(d for r in (1, 2, 3) for d in reference_descs(r)))


@pytest.mark.parametrize("budget", [None, "1"], ids=["default-budget", "budget-1"])
def test_normal_curves_parse_to_their_first_description(budget, monkeypatch):
    if budget is None:
        monkeypatch.delenv("BRICKFORGE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("BRICKFORGE_BUDGET", budget)
    flat = sf.full_surface(sf.TORUS_1_2)
    first = {}
    for desc in enumeration():
        first.setdefault(charts.AMBIENT.curve(desc).canonical(), desc)
    assert len(first) == 43
    for desc in enumeration():
        c = sf.flat_curve(flat, desc)
        parsed = sz.parse_curve(sz.curve_str(c), flat)
        assert parsed == c
        assert parsed.rep == first[c.flat().canonical()]


def test_normal_curve_off_the_ambient_domain_is_refused_before_a_lookup(count_calls):
    lookups = count_calls(charts.AmbientFlatChart, "with_coords")
    torus_side, _ = sf.proper_pieces(
        sf.full_surface(sf.TORUS_1_2),
        sf.slot_class(sf.full_surface(sf.TORUS_1_2), (0, 0), (1, 0)),
    )
    for domain in (sf.full_surface(sf.TORUS_1_1), torus_side):
        with pytest.raises(ParseError, match="bad curve"):
            sz.parse_curve("N:[0,0,1,0,1,0]", domain)
    assert lookups == []


def test_complex_documents_compute_coordinates_once_per_curve(count_calls):
    k, e = sz.parse_complex(json.loads(BENCH_INPUTS["brock"]))
    coords = count_calls(fc, "normal_coords_of")
    for _ in range(500):
        doc = sz.complex_doc(k, e)
    named = {
        c for c in json.dumps(doc).split('"') if c.startswith("N:")
    }
    assert named and len(coords) <= len(named)


def test_a_cold_parse_builds_only_the_curves_its_lookups_walk():
    """A fresh process that parses kt12 builds the curves of the
    enumeration up to its last named class, and no other."""
    script = (
        "import sys; from brickforge import charts, serialize as sz; "
        "sz.parse_complex(sz.loads(sys.stdin.read())); "
        "print(len(charts.AMBIENT._curve_cache))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", script], input=BENCH_INPUTS["kt12"], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["6"]
