"""Canonical JSON encoding, the text of a scalar, timestamp formatting, and
name-based uuids.

Canonical form: UTF-8, LF line endings, 2-space indentation, keys in the
order the document builders insert them, floats in shortest-repr form,
trailing newline. Two serializations of the same document are byte-equal.
"""

from __future__ import annotations

import functools
import math
from datetime import datetime, timezone
from json.encoder import encode_basestring

#: The one instant `serialize.determinize` stamps on every timestamp.
DETERMINISTIC_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def canonical_json_bytes(payload: dict | list) -> bytes:
    """Encode a document payload in canonical form: the bytes of
    json.dumps(payload, indent=2, ensure_ascii=False, allow_nan=False) plus
    a newline. json.dumps cannot use its C encoder once indent is set, so
    this appends the same pieces to one list instead."""
    parts: list[str] = []
    _encode(payload, parts, "\n")
    parts.append("\n")
    return "".join(parts).encode("utf-8")


def _float(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")


def _constant(value: bool | None) -> str:
    return "null" if value is None else "true" if value else "false"


def _key(key) -> str:
    """A dict key as json spells it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is None or key is True or key is False:
        return _constant(key)
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _encode(value, parts: list[str], newline: str) -> None:
    """Append value's JSON text; `newline` is the line break and indent of
    the line value starts on."""
    if isinstance(value, str):
        parts.append(encode_basestring(value))
    elif value is None or value is True or value is False:
        parts.append(_constant(value))
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _encode(item, parts, inner)
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            parts += (separator, encode_basestring(_key(key)), ": ")
            _encode(item, parts, inner)
            separator = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def cell_token(value: int | float | bool | str | None) -> str:
    """The one text of a scalar, shared by table labels, positive-label
    matching and document fields: None is "", a bool true/false, a float
    its shortest repr, anything else str()."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _utc(moment: datetime) -> datetime:
    """The one instant rule: a naive instant is UTC, and every instant is
    held in UTC. An instant whose UTC value falls outside the years 1-9999
    raises OverflowError."""
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


def format_timestamp(moment: datetime) -> str:
    """ISO 8601 in UTC with millisecond precision, a four-digit year and a
    literal Z suffix."""
    return _utc(moment).isoformat(timespec="milliseconds")[: -len("+00:00")] + "Z"


def parse_timestamp(text: str) -> datetime:
    """Parse ISO 8601, tolerating a Z suffix on Python 3.10."""
    normalized = text.strip()
    if normalized.endswith(("Z", "z")):
        normalized = normalized[:-1] + "+00:00"
    return _utc(datetime.fromisoformat(normalized))


def utc_now() -> datetime:
    return datetime.now(timezone.utc)


@functools.cache
def _uuid_namespace():
    """The one namespace of every name-based uuid (RFC 4122 §4.3): the
    first 16 bytes of SHA-256("oscal-assure"). Every `--deterministic`
    document pins the uuids it gives, so it never changes."""
    import hashlib
    import uuid

    return uuid.UUID(bytes=hashlib.sha256(b"oscal-assure").digest()[:16])


# uuid is imported where a uuid is made: a command that makes none (report)
# never loads it
def name_uuid(content_path: str) -> str:
    """Name-based uuid for one content path."""
    import uuid

    return str(uuid.uuid5(_uuid_namespace(), content_path))


def random_uuid() -> str:
    import uuid

    return str(uuid.uuid4())
