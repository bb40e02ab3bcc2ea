"""Exception hierarchy shared by all qstc modules, and the one JSON reader and writer.

Each error type's ``exit_code`` is the status that ``qstc`` exits with: 2 for
bad input, 3 for a numerical failure, 4 for an infeasible design.  So a
library caller sees the same types that the CLI maps.
"""

import json
import os
import stat


class QstcError(Exception):
    """Base class for all errors raised by qstc; ``exit_code`` is the CLI's status for the error."""
    exit_code = 1


class ValidationError(QstcError):
    """Malformed input: bad coupling lists, non-positive couplings, bad flags."""
    exit_code = 2


class StructuralError(QstcError):
    """A structural precondition failed (e.g. glueing an even-length chain)."""
    exit_code = 2


class NumericalError(QstcError):
    """Numerical backend failure (eigensolver non-convergence, ...)."""
    exit_code = 3


class InfeasibleDesignError(QstcError):
    """Requested inverse design lies outside its feasibility interval."""
    exit_code = 4

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class UnsupportedInputError(QstcError):
    """Input outside the supported domain (e.g. non-integer couplings)."""
    exit_code = 2


def load_json(path, what):
    """The JSON value in the file at ``path``; an unreadable file is bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON, too many digits
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


def write_json(payload, path):
    """Write ``payload`` to the file at ``path`` as JSON, indented by 2, with a final newline.

    The whole text is built first, so a payload that fails to encode raises
    before the file is opened and leaves it as it was.  The text is then
    written in place, from offset 0 and without truncating first, and a
    regular file is trimmed to the new text's end; a target that is no
    regular file, such as /dev/stdout, is only written.  The bytes, mode,
    symlinks and hard links are those of ``open(path, "w")``, and a new file
    gets 0o666 less the umask.  The write is not atomic: a crash part-way
    leaves a mix of old and new bytes.

    Why not ``open(path, "w")``: on ext4 with ``auto_da_alloc`` (its default),
    truncating a file with data to size 0 and writing it again starts
    writeback of its blocks on close.  Rewriting a 1.4 KB file on ext4 (2-core
    Xeon) took a median 73-103 us that way, 78-120 us through ``os.replace``
    of a new file (which pays the same flush), and 22-31 us in place with a
    trim (``BENCH_31.json``); every CLI run rewrites its manifest and,
    usually, its ``--out``.
    """
    text = json.dumps(payload, indent=2) + "\n"
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def check_keys(data, allowed, where):
    """Raise :class:`ValidationError` unless ``data`` is a dict whose keys are all allowed.

    The message names every unknown key, so a misspelt key never falls back
    to a default without a word.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValidationError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


_REQUIRED = object()
_KIND_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string", dict: "object"}


def _kind_name(kind):
    return f"[{_kind_name(kind[0])}]" if isinstance(kind, list) else _KIND_NAMES[kind]


def _typed(value, kind):
    """``value`` as JSON type ``kind`` (a number as a float); TypeError if it is not one."""
    if isinstance(kind, list):
        if isinstance(value, list):
            return [_typed(v, kind[0]) for v in value]
    # a bool is not a number
    elif isinstance(value, bool) == (kind is bool) and isinstance(
            value, (int, float) if kind is float else kind):
        return float(value) if kind is float else value
    raise TypeError


def read_value(data, key, kind, where, default=_REQUIRED):
    """``data[key]`` checked against its JSON type ``kind``, or ``default`` when absent.

    ``kind`` is bool, int, float, str or dict, or ``[kind]`` for a list of
    such values (``[[float]]`` for a list of pairs).  A bool is not a number,
    and any JSON number reads as a float and is returned as one, so a value
    is never converted into another.  A missing required key, or a value of
    another type, raises :class:`ValidationError` naming the key.
    """
    if key not in data:
        if default is _REQUIRED:
            raise ValidationError(f"{where} needs {key!r}")
        return default
    try:
        return _typed(data[key], kind)
    except (TypeError, OverflowError):  # OverflowError: an integer beyond the float range
        raise ValidationError(f"{where} {key!r} must be of JSON type {_kind_name(kind)}, "
                              f"got {data[key]!r}") from None
