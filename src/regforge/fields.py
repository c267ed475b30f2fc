"""Typed field readers for regforge's JSON documents, and its one file writer.

The register-map parser (:mod:`regforge.spec`), the programming-script
parser (:mod:`regforge.sim`) and the calibration loader
(:mod:`regforge.cost`) read every field through these functions.
A reader takes an object, a key and the path of the object, and raises
:class:`SpecError` carrying the path of the offending field, such as
``$.slaves[3].registers[5].width``.

That string is formatted only when a reader raises.  A path is
:data:`ROOT` or a ``(parent, key)`` pair, where ``key`` is a field name
or an array index, so reading a well-formed document builds no path
strings at all.
"""

from __future__ import annotations

import json
import os
import stat
import sys

from .errors import SpecError

ROOT = ()
REQUIRED = object()  # default of a field that must be present


def format_path(path) -> str:
    """Render a path as ``$.slaves[3].registers[5].width``."""
    keys = []
    while path:
        path, key = path
        keys.append(f"[{key}]" if isinstance(key, int) else f".{key}")
    return "$" + "".join(reversed(keys))


def _missing(key: str, path) -> SpecError:
    return SpecError(f"missing required field '{key}'", format_path(path))


def _wrong_type(expected: str, value, path, key) -> SpecError:
    return SpecError(f"expected {expected}, got {type(value).__name__}",
                     format_path((path, key)))


def load_document(text: str) -> dict:
    """Decode a JSON document whose top level must be an object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"syntax error: {exc.msg} (line {exc.lineno})") from None
    if not isinstance(doc, dict):
        raise SpecError(f"expected object, got {type(doc).__name__}", format_path(ROOT))
    return doc


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, overwriting an existing file in place.

    Every output file of the package is written here.  The file is not
    truncated to zero on opening: on ext4 (``auto_da_alloc``), closing a
    file that was truncated to zero and written again starts writeback of
    its blocks, a flush per file.  A longer old file is cut to the new
    length after the write.  A target that is not a regular file, such as
    a pipe or ``/dev/stdout``, is never cut.  A new file gets the mode
    ``open(path, "w")`` gives it.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def reject_unknown(obj: dict, allowed: frozenset[str], path) -> None:
    if not allowed.issuperset(obj):
        unknown = sorted(set(obj) - allowed)
        raise SpecError(f"unknown field(s): {', '.join(unknown)}", format_path(path))


def read_int(obj: dict, key: str, path, default=REQUIRED) -> int:
    """A JSON integer, or a decimal or ``0x``-prefixed hex string."""
    value = obj.get(key, default)
    if type(value) is int:  # the common case; bool is a type of its own
        return value
    if value is REQUIRED:
        raise _missing(key, path)
    if isinstance(value, bool):
        raise SpecError("expected integer, got boolean", format_path((path, key)))
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            if text.lower().startswith(("0x", "-0x")):
                return int(text, 16)
            return int(text, 10)
        except ValueError:
            raise SpecError(f"not an integer: {value!r}", format_path((path, key))) from None
    raise _wrong_type("integer", value, path, key)


def read_str(obj: dict, key: str, path, default=REQUIRED) -> str:
    value = obj.get(key, default)
    if value is REQUIRED:
        raise _missing(key, path)
    if not isinstance(value, str):
        raise _wrong_type("string", value, path, key)
    return value


def read_obj(obj: dict, key: str, path, default=REQUIRED) -> dict:
    value = obj.get(key, default)
    if value is REQUIRED:
        raise _missing(key, path)
    if not isinstance(value, dict):
        raise _wrong_type("object", value, path, key)
    return value


def read_list(obj: dict, key: str, path, default=REQUIRED) -> list:
    value = obj.get(key, default)
    if value is REQUIRED:
        raise _missing(key, path)
    if not isinstance(value, list):
        raise _wrong_type("array", value, path, key)
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_number(obj: dict, key: str, path):
    """A JSON integer or real in a finite float's range; None when the
    field is null or absent.  ``json.loads`` accepts NaN and ±Infinity."""
    value = obj.get(key)
    if value is not None:
        if not _is_number(value):
            raise _wrong_type("number", value, path, key)
        # false for NaN too; an int compares exactly, without converting
        if not abs(value) <= sys.float_info.max:
            raise SpecError(f"expected finite number, got {value!r}", format_path((path, key)))
    return value


def objects(items: list, path):
    """Yield ``(path, element)`` for each element of the array ``items``
    found at ``path``, checking each is an object as it is reached."""
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise _wrong_type("object", item, path, i)
        yield (path, i), item
