"""Tests for the error types' exit codes and the one reader of JSON input values."""

import pytest

from qstc.errors import (InfeasibleDesignError, NumericalError, QstcError, StructuralError,
                         UnsupportedInputError, ValidationError, load_json, read_value)

# the documented exit status of each error type
EXIT_CODES = {ValidationError: 2, StructuralError: 2, UnsupportedInputError: 2,
              NumericalError: 3, InfeasibleDesignError: 4}


def test_every_error_type_carries_its_exit_code():
    assert set(QstcError.__subclasses__()) == set(EXIT_CODES)
    for kind, code in EXIT_CODES.items():
        assert kind.exit_code == code
        assert kind("message").exit_code == code


@pytest.mark.parametrize(
    "value, kind, expected",
    [
        (True, bool, True),
        (3, int, 3),
        ("cell", str, "cell"),
        ({"w": 1}, dict, {"w": 1}),
        (2, float, 2.0),
        (2.5, float, 2.5),
        ([1, 2.5], [float], [1.0, 2.5]),
        ([[1, 2]], [[float]], [[1.0, 2.0]]),
        ([], [int], []),
    ],
)
def test_value_of_its_kind_is_returned(value, kind, expected):
    result = read_value({"key": value}, "key", kind, "test input")
    assert result == expected
    # a JSON number always comes back as a float
    assert type(result) is type(expected)


@pytest.mark.parametrize(
    "value, kind",
    [
        (1, bool), ("true", bool), (2.0, int), (True, int), ("2", int), (False, float),
        ("1.5", float), (None, float), (1, str), ([1], dict), ((1, 2), [float]),
        ([1, True], [float]), ([[1, "2"]], [[float]]), ([1.0, 2.0], [[float]]),
    ],
)
def test_value_of_another_kind_is_rejected(value, kind):
    with pytest.raises(ValidationError, match="test input 'key' must be of JSON type"):
        read_value({"key": value}, "key", kind, "test input")


def test_integer_beyond_the_float_range_is_rejected():
    with pytest.raises(ValidationError, match="'key' must be of JSON type number"):
        read_value({"key": 10**400}, "key", float, "test input")


def test_missing_key():
    assert read_value({}, "key", int, "test input", None) is None
    with pytest.raises(ValidationError, match="test input needs 'key'"):
        read_value({}, "key", int, "test input")


def test_unreadable_file_is_bad_input(tmp_path):
    with pytest.raises(ValidationError, match="cannot read chain spec"):
        load_json(tmp_path / "missing.json", "chain spec")
    path = tmp_path / "spec.json"
    path.write_text('{"N": "\\u00e9"}', encoding="utf-8")
    assert load_json(path, "chain spec") == {"N": "é"}
    # an integer literal past Python's digit limit for int conversion
    path.write_text('{"N": ' + "1" * 5000 + "}", encoding="utf-8")
    with pytest.raises(ValidationError, match="cannot read chain spec"):
        load_json(path, "chain spec")
