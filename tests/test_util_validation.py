"""Tests for validation helpers."""

import pytest

from repro.errors import ValidationError
from repro.util.validation import (
    require_keys,
    require_non_empty,
    require_positive,
    require_type,
)


class TestRequireType:
    def test_accepts_matching(self):
        assert require_type("x", str, "f") == "x"

    def test_rejects_mismatch(self):
        with pytest.raises(ValidationError) as excinfo:
            require_type(1, str, "name")
        assert excinfo.value.field == "name"

    def test_bool_rejected_where_int_expected(self):
        with pytest.raises(ValidationError):
            require_type(True, int, "count")

    def test_bool_allowed_when_listed(self):
        assert require_type(True, (int, bool), "flag") is True

    def test_tuple_of_types(self):
        assert require_type(1.5, (int, float), "n") == 1.5


class TestRequireNonEmpty:
    def test_accepts_non_empty(self):
        assert require_non_empty([1], "xs") == [1]

    def test_rejects_empty_string(self):
        with pytest.raises(ValidationError):
            require_non_empty("", "s")

    def test_rejects_empty_dict(self):
        with pytest.raises(ValidationError):
            require_non_empty({}, "d")


class TestRequirePositive:
    def test_positive_ok(self):
        assert require_positive(2, "n") == 2

    def test_zero_rejected_by_default(self):
        with pytest.raises(ValidationError):
            require_positive(0, "n")

    def test_zero_allowed_when_flagged(self):
        assert require_positive(0, "n", allow_zero=True) == 0

    def test_negative_always_rejected(self):
        with pytest.raises(ValidationError):
            require_positive(-1, "n", allow_zero=True)


class TestRequireKeys:
    def test_all_present(self):
        assert require_keys({"a": 1, "b": 2}, ("a", "b"), "doc") == {"a": 1, "b": 2}

    def test_missing_listed_in_message(self):
        with pytest.raises(ValidationError) as excinfo:
            require_keys({"a": 1}, ("a", "b", "c"), "doc")
        assert "b" in str(excinfo.value)
        assert "c" in str(excinfo.value)

    def test_non_dict_rejected(self):
        with pytest.raises(ValidationError):
            require_keys([], ("a",), "doc")


class TestFieldNameCarried:
    """Every helper names the offending key in the error it raises."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: require_type("1", int, "participant_num"),
            lambda: require_non_empty([], "participant_num"),
            lambda: require_positive(-3, "participant_num"),
            lambda: require_keys({}, ("x",), "participant_num"),
        ],
        ids=["type", "non_empty", "positive", "keys"],
    )
    def test_field_attribute_and_message(self, call):
        with pytest.raises(ValidationError) as excinfo:
            call()
        assert excinfo.value.field == "participant_num"
        assert "participant_num" in str(excinfo.value)


class TestRequireTypeTable:
    @pytest.mark.parametrize(
        "value, types",
        [(0, int), (2.5, float), ([], list), ({}, dict), (None, type(None)),
         (False, bool)],
    )
    def test_accepted_value_returned_unchanged(self, value, types):
        assert require_type(value, types, "f") is value

    @pytest.mark.parametrize(
        "value, types",
        [(1.0, int), ("3", (int, float)), (None, str), ((1,), list), (False, float)],
    )
    def test_mismatch_rejected(self, value, types):
        with pytest.raises(ValidationError):
            require_type(value, types, "f")

    def test_message_names_expected_types(self):
        with pytest.raises(ValidationError, match="int/float"):
            require_type("x", (int, float), "f")


class TestRequirePositiveTypes:
    @pytest.mark.parametrize("value", ["1", None, True, [1]])
    def test_non_numbers_rejected(self, value):
        with pytest.raises(ValidationError):
            require_positive(value, "n", allow_zero=True)

    @pytest.mark.parametrize("value", [1e-9, 0.5, 10**12])
    def test_positive_floats_and_large_ints_accepted(self, value):
        assert require_positive(value, "n") == value
