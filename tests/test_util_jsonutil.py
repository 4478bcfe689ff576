"""Tests for JSON helpers."""

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.util import jsonutil


class TestCanonical:
    def test_sorted_keys(self):
        assert jsonutil.dumps_canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_stable_across_calls(self):
        value = {"x": [1, 2], "y": {"z": True}}
        assert jsonutil.dumps_canonical(value) == jsonutil.dumps_canonical(value)


class TestLoads:
    def test_valid(self):
        assert jsonutil.loads('{"a": 1}') == {"a": 1}

    def test_invalid_wrapped(self):
        with pytest.raises(ValidationError):
            jsonutil.loads("{not json")


class TestFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(jsonutil.dumps_pretty({"k": [1, 2, 3]}), encoding="utf-8")
        assert jsonutil.load_file(path) == {"k": [1, 2, 3]}


class TestDeepCopy:
    def test_no_aliasing(self):
        original = {"nested": {"list": [1, 2]}}
        copy = jsonutil.deep_copy_json(original)
        copy["nested"]["list"].append(3)
        assert original["nested"]["list"] == [1, 2]


class Colour(str, enum.Enum):
    RED = "red"
    BLUE = "blue"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def round_trip(value):
    return json.loads(json.dumps(value))


#: Leaves a JSON round trip accepts, including the ones it changes: enum
#: members become their plain values, NaN/inf/-0.0 survive as floats.
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(-0.0),
    st.text(max_size=6),
    st.sampled_from(list(Colour) + list(Level)),
)
keys = st.one_of(
    st.text(max_size=4),
    st.integers(-3, 3),
    st.floats(allow_nan=False, width=16),
    st.booleans(),
    st.none(),
)
json_trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=24,
)


def node_shape(value):
    """Every node's type, keys in order, and leaf text (so NaN == NaN)."""
    if isinstance(value, dict):
        return (
            dict,
            [(type(key), key, node_shape(item)) for key, item in value.items()],
        )
    if isinstance(value, list):
        return (list, [node_shape(item) for item in value])
    return (type(value), json.dumps(value))


def containers(value):
    """Ids of every dict and list reachable from ``value``."""
    found = set()
    stack = [value]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            found.add(id(node))
            stack.extend(node.values())
        elif isinstance(node, (list, tuple)):
            if isinstance(node, list):
                found.add(id(node))
            stack.extend(node)
    return found


class TestCanonicalEncoder:
    """One shared encoder gives exactly the bytes a fresh ``json.dumps``
    gives, errors included."""

    @settings(deadline=None)
    @given(json_trees)
    def test_equals_json_dumps(self, value):
        try:
            expected = json.dumps(value, sort_keys=True, separators=(",", ":"))
        except TypeError:  # mixed key types cannot be sorted
            with pytest.raises(TypeError):
                jsonutil.dumps_canonical(value)
            return
        assert jsonutil.dumps_canonical(value) == expected


class TestDeepCopyContract:
    """``deep_copy_json`` is ``json.loads(json.dumps(v))``, node for node."""

    @settings(deadline=None)
    @given(json_trees)
    def test_equals_the_round_trip_node_by_node(self, value):
        copy = jsonutil.deep_copy_json(value)
        assert node_shape(copy) == node_shape(round_trip(value))
        assert json.dumps(copy) == json.dumps(round_trip(value))
        assert not containers(copy) & containers(value)

    @pytest.mark.parametrize(
        "value",
        [
            {1, 2},
            b"bytes",
            object(),
            {(1, 2): "tuple key"},
            {"nested": [{"deep": {3}}]},
            [1, (2, b"x")],
        ],
    )
    def test_non_json_raises_type_error(self, value):
        with pytest.raises(TypeError):
            round_trip(value)
        with pytest.raises(TypeError):
            jsonutil.deep_copy_json(value)

    def test_self_reference_raises_value_error(self):
        looped = {"a": [1]}
        looped["a"].append(looped)
        with pytest.raises(ValueError):
            jsonutil.deep_copy_json(looped)

    def test_non_str_keys_become_round_trip_keys(self):
        value = {1: "a", False: "b", None: "c", 1.5: "d", Colour.RED: "e"}
        assert list(jsonutil.deep_copy_json(value)) == [
            "1", "false", "null", "1.5", "red"
        ]
        assert jsonutil.deep_copy_json({1: "int", "1": "str"}) == {"1": "str"}


class TestPretty:
    @pytest.mark.parametrize(
        "value", [{"b": [1, {"d": 2, "c": 3}], "a": None}, [], "text", 1.5]
    )
    def test_sorted_two_space_indent(self, value):
        assert jsonutil.dumps_pretty(value) == json.dumps(
            value, sort_keys=True, indent=2
        )

    def test_reads_back_equal(self):
        value = {"z": {"y": [True, False, None]}, "a": "ü"}
        assert jsonutil.loads(jsonutil.dumps_pretty(value)) == value


class TestLoadsRejects:
    @pytest.mark.parametrize("text", ["", "{", "[1,]", "{'a': 1}", "nul", '{"a" 1}'])
    def test_syntax_errors_become_validation_errors(self, text):
        with pytest.raises(ValidationError, match="invalid JSON"):
            jsonutil.loads(text)

    def test_load_file_wraps_syntax_errors(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"test_id": ', encoding="utf-8")
        with pytest.raises(ValidationError):
            jsonutil.load_file(path)

    def test_load_file_accepts_str_path(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1]}', encoding="utf-8")
        assert jsonutil.load_file(str(path)) == {"a": [1]}
