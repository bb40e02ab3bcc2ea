"""Tests for the error types' exit codes, the one reader of JSON input values and the JSON writer."""

import json
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstc.errors import (InfeasibleDesignError, NumericalError, QstcError, StructuralError,
                         UnsupportedInputError, ValidationError, load_json, read_value,
                         write_json)

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


def json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


class TestWriteJson:
    def test_short_payload_over_a_longer_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"rows": list(range(100))}, path)
        write_json({"rows": []}, path)
        assert path.read_bytes() == b'{\n  "rows": []\n}\n'

    def test_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("x" * 1000)
        link.symlink_to(target.name)
        write_json([1, 2], link)
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text() == json_text([1, 2])

    def test_dangling_symlink_creates_its_target(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        link.symlink_to(target.name)
        write_json({}, link)
        assert link.is_symlink() and target.read_text() == "{}\n"

    def test_hard_link_sees_the_new_bytes(self, tmp_path):
        path, other = tmp_path / "a.json", tmp_path / "b.json"
        path.write_text("old text that is longer than the new one")
        os.link(path, other)
        write_json(None, path)
        assert other.read_text() == "null\n"
        assert os.stat(path).st_ino == os.stat(other).st_ino

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("[]\n")
        path.chmod(0o600)
        write_json({"a": 1}, path)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600

    def test_new_file_gets_the_umask_mode(self, tmp_path):
        old = os.umask(0o002)
        try:
            write_json({"a": 1}, tmp_path / "new.json")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "new.json").st_mode) == 0o664

    def test_devnull(self):
        write_json({"a": [1, 2, 3]}, os.devnull)
        assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)

    def test_unencodable_payload_leaves_the_old_bytes(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"a": [1, 2, 3]}, path)
        # the first key encodes; the set after it does not
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json({"a": list(range(50)), "b": {1, 2}}, path)
        assert path.read_text() == json_text({"a": [1, 2, 3]})

    def test_missing_directory_gives_the_error_of_open(self, tmp_path):
        path = str(tmp_path / "nodir" / "out.json")
        with pytest.raises(FileNotFoundError) as err:
            write_json({}, path)
        with pytest.raises(FileNotFoundError) as expected:
            open(path, "w")
        assert str(err.value) == str(expected.value)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=20), min_size=1, max_size=5))
    def test_file_holds_the_last_payload(self, tmp_path_factory, payloads):
        path = tmp_path_factory.mktemp("writes") / "out.json"
        for payload in payloads:
            write_json(payload, path)
        assert path.read_text(encoding="utf-8") == json_text(payloads[-1])
