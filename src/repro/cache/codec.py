"""Compact, versioned binary serialization of pipeline artefacts.

The on-disk tier of :class:`repro.cache.store.ArtifactStore` persists
``ag(r)`` and FD-cover bundles, i.e. bitmask families.  ``pickle`` would work but is
neither compact nor safe to load from an untrusted cache directory, so
artefacts are encoded with a tiny deterministic tagged format:

- unsigned integers are LEB128 varints (bitmasks and row indices are
  small non-negative ints, so a typical agree-set mask costs 1–3 bytes);
- containers are length-prefixed; sets are sorted before encoding and
  dict items are emitted in sorted-key order, so equal artefacts always
  produce identical bytes (content-addressing friendly);
- every file starts with an 8-byte magic and a format version, carries
  the artefact kind and a 16-byte *guard* digest (schema + row count —
  the fingerprint-collision safety net), and ends with a 16-byte
  blake2b checksum of the payload.

Any mismatch — bad magic, unknown version, truncated payload, checksum
failure, wrong kind, wrong guard — raises :class:`CacheCodecError`,
which the store converts into a cache miss followed by recomputation
("corruption-safe load-or-recompute").
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Dict, List, Tuple

from repro.errors import CacheCodecError

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "encode_value",
    "decode_value",
    "encode_artifact",
    "decode_artifact",
    "guard_digest",
]

MAGIC = b"RPROCACH"
FORMAT_VERSION = 1

_CHECKSUM_SIZE = 16


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise CacheCodecError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CacheCodecError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def _sort_key(item: Any) -> Tuple[str, str]:
    # A total order over the mixed key types dicts/sets may hold.
    return (type(item).__name__, repr(item))


def encode_value(value: Any) -> bytes:
    """Encode one artefact value (ints, strings, containers) to bytes."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _encode_into(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(ord("N"))
    elif value is True:
        out.append(ord("T"))
    elif value is False:
        out.append(ord("F"))
    elif isinstance(value, int):
        if value >= 0:
            out.append(ord("i"))
            _write_varint(out, value)
        else:
            out.append(ord("I"))
            _write_varint(out, -value)
    elif isinstance(value, float):
        out.append(ord("f"))
        out += struct.pack(">d", value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8", "surrogatepass")
        out.append(ord("s"))
        _write_varint(out, len(encoded))
        out += encoded
    elif isinstance(value, bytes):
        out.append(ord("b"))
        _write_varint(out, len(value))
        out += value
    elif isinstance(value, (list, tuple)):
        out.append(ord("l") if isinstance(value, list) else ord("t"))
        _write_varint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, (set, frozenset)):
        out.append(ord("e"))
        _write_varint(out, len(value))
        for item in sorted(value, key=_sort_key):
            _encode_into(out, item)
    elif isinstance(value, dict):
        out.append(ord("d"))
        _write_varint(out, len(value))
        for key in sorted(value, key=_sort_key):
            _encode_into(out, key)
            _encode_into(out, value[key])
    else:
        raise CacheCodecError(
            f"cannot serialize {type(value).__name__} into a cache artefact"
        )


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`; rejects trailing bytes."""
    value, offset = _decode_from(data, 0)
    if offset != len(data):
        raise CacheCodecError(
            f"{len(data) - offset} trailing byte(s) after artefact payload"
        )
    return value


def _decode_from(data: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(data):
        raise CacheCodecError("truncated artefact payload")
    tag = data[offset]
    offset += 1
    if tag == ord("N"):
        return None, offset
    if tag == ord("T"):
        return True, offset
    if tag == ord("F"):
        return False, offset
    if tag == ord("i"):
        return _read_varint(data, offset)
    if tag == ord("I"):
        value, offset = _read_varint(data, offset)
        return -value, offset
    if tag == ord("f"):
        if offset + 8 > len(data):
            raise CacheCodecError("truncated float")
        return struct.unpack(">d", data[offset:offset + 8])[0], offset + 8
    if tag in (ord("s"), ord("b")):
        length, offset = _read_varint(data, offset)
        if offset + length > len(data):
            raise CacheCodecError("truncated string payload")
        raw = data[offset:offset + length]
        offset += length
        if tag == ord("s"):
            return raw.decode("utf-8", "surrogatepass"), offset
        return raw, offset
    if tag in (ord("l"), ord("t")):
        count, offset = _read_varint(data, offset)
        items: List[Any] = []
        for _ in range(count):
            item, offset = _decode_from(data, offset)
            items.append(item)
        return (items if tag == ord("l") else tuple(items)), offset
    if tag == ord("e"):
        count, offset = _read_varint(data, offset)
        members = set()
        for _ in range(count):
            item, offset = _decode_from(data, offset)
            members.add(item)
        return members, offset
    if tag == ord("d"):
        count, offset = _read_varint(data, offset)
        mapping: Dict[Any, Any] = {}
        for _ in range(count):
            key, offset = _decode_from(data, offset)
            item, offset = _decode_from(data, offset)
            mapping[key] = item
        return mapping, offset
    raise CacheCodecError(f"unknown artefact tag 0x{tag:02x}")


def guard_digest(schema_names: Tuple[str, ...], num_rows: int) -> bytes:
    """The 16-byte collision guard: schema identity + row count.

    Stored inside every entry (both tiers) and re-checked on every
    lookup, so a fingerprint collision between two relations of
    different shape can never surface a foreign artefact.  Same-shape
    collisions are left to the 128-bit content hash (~2⁻⁶⁴ birthday
    risk at astronomically more relations than any deployment mines).
    """
    payload = ("\x1f".join(schema_names) + f"|{num_rows}").encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).digest()


def encode_artifact(kind: str, guard: bytes, value: Any) -> bytes:
    """Serialize one artefact into the framed on-disk representation."""
    if len(guard) != 16:
        raise CacheCodecError("guard digest must be 16 bytes")
    payload = encode_value(value)
    kind_bytes = kind.encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack(">H", FORMAT_VERSION)
    _write_varint(out, len(kind_bytes))
    out += kind_bytes
    out += guard
    _write_varint(out, len(payload))
    out += payload
    out += hashlib.blake2b(payload, digest_size=_CHECKSUM_SIZE).digest()
    return bytes(out)


def decode_artifact(data: bytes, kind: str, guard: bytes) -> Any:
    """Decode a framed artefact, verifying magic, version, kind, guard
    and checksum.  Raises :class:`CacheCodecError` on any mismatch."""
    if data[:len(MAGIC)] != MAGIC:
        raise CacheCodecError("bad magic (not a repro cache artefact)")
    offset = len(MAGIC)
    if offset + 2 > len(data):
        raise CacheCodecError("truncated header")
    (version,) = struct.unpack(">H", data[offset:offset + 2])
    offset += 2
    if version != FORMAT_VERSION:
        raise CacheCodecError(
            f"unsupported cache format version {version} "
            f"(this build writes {FORMAT_VERSION})"
        )
    kind_length, offset = _read_varint(data, offset)
    if offset + kind_length > len(data):
        raise CacheCodecError("truncated kind")
    stored_kind = data[offset:offset + kind_length].decode("utf-8")
    offset += kind_length
    if stored_kind != kind:
        raise CacheCodecError(
            f"artefact kind mismatch: stored {stored_kind!r}, "
            f"expected {kind!r}"
        )
    if offset + 16 > len(data):
        raise CacheCodecError("truncated guard")
    stored_guard = data[offset:offset + 16]
    offset += 16
    if stored_guard != guard:
        raise CacheCodecError(
            "guard mismatch: the cached artefact belongs to a relation of "
            "a different shape (fingerprint collision averted)"
        )
    payload_length, offset = _read_varint(data, offset)
    if offset + payload_length + _CHECKSUM_SIZE > len(data):
        raise CacheCodecError("truncated payload")
    payload = data[offset:offset + payload_length]
    offset += payload_length
    checksum = data[offset:offset + _CHECKSUM_SIZE]
    if hashlib.blake2b(payload, digest_size=_CHECKSUM_SIZE).digest() != checksum:
        raise CacheCodecError("payload checksum mismatch (corrupted entry)")
    return decode_value(payload)
