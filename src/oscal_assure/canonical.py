"""Canonical JSON encoding, timestamp formatting, and name-based uuids.

Canonical form: UTF-8, LF line endings, 2-space indentation, keys in the
order the document builders insert them, floats in shortest-repr form,
trailing newline. Two serializations of the same document are byte-equal.
"""

from __future__ import annotations

import hashlib
import math
import uuid as uuid_module
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


def format_timestamp(moment: datetime) -> str:
    """ISO 8601 with millisecond precision and a literal Z suffix."""
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    moment = moment.astimezone(timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%S.") + f"{moment.microsecond // 1000:03d}Z"


def parse_timestamp(text: str) -> datetime:
    """Parse ISO 8601, tolerating a Z suffix on Python 3.10."""
    normalized = text.strip()
    if normalized.endswith(("Z", "z")):
        normalized = normalized[:-1] + "+00:00"
    moment = datetime.fromisoformat(normalized)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


def utc_now() -> datetime:
    return datetime.now(timezone.utc)


#: The one namespace of every name-based uuid (RFC 4122 §4.3): the first
#: 16 bytes of SHA-256("oscal-assure"). Every `--deterministic` document
#: pins the uuids it gives, so it never changes.
_UUID_NAMESPACE = uuid_module.UUID(bytes=hashlib.sha256(b"oscal-assure").digest()[:16])


def name_uuid(content_path: str) -> str:
    """Name-based uuid for one content path."""
    return str(uuid_module.uuid5(_UUID_NAMESPACE, content_path))


def random_uuid() -> str:
    return str(uuid_module.uuid4())
