import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brickforge import serialize as sz

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


@pytest.mark.parametrize(
    "doc",
    [0.5, Fraction(1, 2), {1, 2}, {1: "x"}, {"a": [True, 1.0]}],
    ids=["float", "fraction", "set", "int-key", "nested-float"],
)
def test_dumps_refuses_values_outside_the_format(doc):
    with pytest.raises(TypeError):
        sz.dumps(doc)
