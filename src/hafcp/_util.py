"""Shared helpers: canonical JSON, SHA-256 fingerprints, atomic file writes,
checked reads of parsed JSON documents."""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Any

from .errors import ParseError


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and no whitespace so equal values hash equal."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def fingerprint_of(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    """Write via a same-directory temp file + rename so readers never see partial files.

    The temp file is created with mode 0666, which the kernel reduces by the
    process umask, so the result has the mode a plain open() would give it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays into plain Python types."""
    import numpy as np

    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


_KINDS = {str: "a string", int: "an integer", float: "a finite number",
          list: "a list", dict: "an object"}


def json_field(doc, key: str, kind: type, what: str):
    """doc[key] of type `kind` from a parsed JSON document, else ParseError.

    `what` names the document in the message. A bool is no number; float
    takes any finite JSON number and returns it as a float.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"{what} is not a JSON object")
    if key not in doc:
        raise ParseError(f"{what} has no key {key!r}")
    value = doc[key]
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:  # beyond the float range: no finite number
            value = math.inf
    if (isinstance(value, bool) or not isinstance(value, kind)
            or (kind is float and not math.isfinite(value))):
        raise ParseError(f"{what} key {key!r} must be {_KINDS[kind]}, "
                         f"got {json.dumps(value)}")
    return value


def json_floats(doc, key: str, what: str) -> list[float]:
    """doc[key] as a list of finite numbers, else ParseError."""
    values = json_field(doc, key, list, what)
    return [json_field({key: v}, key, float, what) for v in values]
