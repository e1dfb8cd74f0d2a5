"""Wire protocol of the discovery service (``repro serve``).

Everything the daemon speaks is plain HTTP + JSON; this module is the
single place where library objects become JSON documents and request
bodies become validated Python values, shared by the server
(:mod:`repro.service.server`) and the client
(:mod:`repro.service.client`).

Design rules:

- **Names, not bitmasks.**  Attribute sets cross the wire as attribute
  *name* lists (the same convention as :mod:`repro.serialize`), so
  responses stay meaningful to clients that never saw the schema object.
- **Typed errors, never a wrong answer.**  Every failure the library
  can produce is a :class:`~repro.errors.ReproError` subclass; the
  server maps it to :func:`error_document` — ``{"error": {"type", ...,
  "message": ...}}`` — with the HTTP status of :func:`http_status_for`.
  Unexpected exceptions become a 500 ``InternalError`` document; the
  one thing the service never does is answer 200 with a cover it is not
  sure about (the reliability layer either recovers or raises).
- **Versioned.**  Every response carries ``protocol`` =
  :data:`PROTOCOL_VERSION`; clients should reject documents from a
  newer major protocol.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.attributes import AttributeSet
from repro.core.relation import Relation
from repro.errors import (
    ArmstrongExistenceError,
    ReproError,
    ServiceError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "SERVICE_NAME",
    "MINER_OPTION_KEYS",
    "parse_body",
    "parse_rows",
    "miner_options",
    "error_document",
    "http_status_for",
    "EncodedDocument",
    "merged",
    "encode_response",
    "cover_document",
    "keys_document",
    "relation_document",
]

#: Bumped on incompatible changes to the request/response documents.
PROTOCOL_VERSION = 1
SERVICE_NAME = "repro-service"

#: ``options`` keys a registration may carry, mapped to the
#: :class:`~repro.core.depminer.DepMiner` keyword they configure.
MINER_OPTION_KEYS = {
    "backend": "backend",
    "jobs": "jobs",
    "algorithm": "agree_algorithm",
    "transversal": "transversal_algorithm",
    "max_couples": "max_couples",
    "max_lhs_size": "max_lhs_size",
    "sql_nulls": "nulls_equal",  # inverted: nulls_equal = not sql_nulls
    "shard_timeout": "shard_timeout",
}


# -- requests ----------------------------------------------------------------

def parse_body(raw: bytes) -> Dict[str, Any]:
    """Decode a JSON request body into a dict (empty body → ``{}``)."""
    if not raw:
        return {}
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(
            f"request body is not valid JSON: {error}"
        ) from None
    if not isinstance(document, dict):
        raise ServiceError(
            f"request body must be a JSON object, "
            f"got {type(document).__name__}"
        )
    return document


def parse_rows(payload: Dict[str, Any], key: str = "rows") -> List[tuple]:
    """Validate an inline ``rows`` field: a list of scalar lists."""
    rows = payload.get(key)
    if not isinstance(rows, list):
        raise ServiceError(f"{key!r} must be a JSON array of rows")
    parsed = []
    for index, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise ServiceError(
                f"{key}[{index}] must be an array, "
                f"got {type(row).__name__}"
            )
        for value in row:
            if value is not None and \
                    not isinstance(value, (str, int, float, bool)):
                raise ServiceError(
                    f"{key}[{index}] holds a {type(value).__name__}; "
                    f"cell values must be strings, numbers, booleans "
                    f"or null"
                )
        parsed.append(tuple(row))
    return parsed


def miner_options(payload: Optional[Dict[str, Any]],
                  defaults: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a registration's ``options`` into DepMiner keywords.

    *defaults* (the server's ``--backend``/``--jobs`` configuration)
    fills anything the client did not send; unknown keys are rejected
    loudly rather than silently ignored, so typos never mine with the
    wrong configuration.
    """
    payload = dict(payload or {})
    unknown = sorted(set(payload) - set(MINER_OPTION_KEYS))
    if unknown:
        raise ServiceError(
            f"unknown miner option(s) {', '.join(map(repr, unknown))}; "
            f"supported: {', '.join(sorted(MINER_OPTION_KEYS))}"
        )
    options = dict(defaults)
    for key, value in payload.items():
        if key == "sql_nulls":
            if not isinstance(value, bool):
                raise ServiceError("'sql_nulls' must be a boolean")
            options["nulls_equal"] = not value
        elif key in ("jobs", "max_couples", "max_lhs_size"):
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int)):
                raise ServiceError(f"{key!r} must be an integer or null")
            if value is not None:
                options[MINER_OPTION_KEYS[key]] = value
        elif key == "shard_timeout":
            if value is not None and not isinstance(value, (int, float)):
                raise ServiceError(
                    "'shard_timeout' must be a number or null"
                )
            if value is not None:
                options[MINER_OPTION_KEYS[key]] = float(value)
        else:
            if not isinstance(value, str):
                raise ServiceError(f"{key!r} must be a string")
            options[MINER_OPTION_KEYS[key]] = value
    return options


# -- errors ------------------------------------------------------------------

def http_status_for(error: BaseException) -> int:
    """The HTTP status a raised exception maps to."""
    status = getattr(error, "http_status", None)
    if status is not None:
        return int(status)
    if isinstance(error, ArmstrongExistenceError):
        return 409  # the relation conflicts with the construction asked for
    if isinstance(error, ReproError):
        return 400
    return 500


def error_document(error: BaseException) -> Dict[str, Any]:
    """The structured JSON error body (typed, never a wrong answer)."""
    document: Dict[str, Any] = {
        "protocol": PROTOCOL_VERSION,
        "error": {
            "type": type(error).__name__
            if isinstance(error, ReproError) else "InternalError",
            "message": str(error) or type(error).__name__,
            "repro_error": isinstance(error, ReproError),
        },
    }
    failing = getattr(error, "failing_attributes", None)
    if failing:
        document["error"]["failing_attributes"] = [
            getattr(a, "names", a) for a in failing
        ]
    return document


# -- responses ---------------------------------------------------------------

class EncodedDocument(dict):
    """A response part that carries its own UTF-8 JSON encoding.

    A session builds each read document once per mining result and
    serves it many times; :func:`encode_response` splices
    :attr:`encoded` into every response instead of serializing the
    document again.  The bytes do not follow mutations, so treat the
    dict as read-only.
    """

    __slots__ = ("encoded",)

    def __init__(self, document: Dict[str, Any]):
        super().__init__(document)
        self.encoded = json.dumps(self).encode("utf-8")


class _Merged(dict):
    """A response whose leading members are an :class:`EncodedDocument`'s."""

    __slots__ = ("base",)


def merged(base: EncodedDocument, **members: Any) -> Dict[str, Any]:
    """``{**base, **members}``, encoded by splicing *base*'s bytes."""
    document = _Merged(base)
    document.base = base
    document.update(members)
    return document


def encode_response(document: Dict[str, Any]) -> bytes:
    """``json.dumps(document)`` as UTF-8, reusing memoized encodings.

    A member whose value is an :class:`EncodedDocument`, and every
    member a :func:`merged` response takes from its base, is written
    from bytes encoded earlier; only the rest — the per-request parts
    such as ``session``, ``counters`` and ``protocol`` — is encoded here.
    """
    base = document.base if isinstance(document, _Merged) else None
    parts = [base.encoded[1:-1]] if base else []
    for key, value in document.items():
        if base is not None and key in base:
            continue
        encoded = (value.encoded if isinstance(value, EncodedDocument)
                   else json.dumps(value).encode("utf-8"))
        parts.append(json.dumps(key).encode("utf-8") + b": " + encoded)
    return b"{" + b", ".join(parts) + b"}"


def cover_document(result) -> Dict[str, Any]:
    """The FD cover (plus cheap summary stats) of a mining result.

    A cover repeats a few lhs sets over many FDs, so each distinct lhs
    resolves its attribute names once and its FDs share that list.
    """
    names = result.schema.names
    lhs_names: Dict[int, List[str]] = {}
    fds = []
    for fd in result.fds:
        mask = fd.lhs.mask
        lhs = lhs_names.get(mask)
        if lhs is None:
            lhs = lhs_names[mask] = list(fd.lhs.names)
        fds.append({"lhs": lhs, "rhs": names[fd.rhs_index]})
    return {
        "fds": fds,
        "count": len(result.fds),
        "num_rows": result.num_rows,
        "attributes": list(names),
        "stats": {key: value for key, value in result.stats.items()
                  if isinstance(value, int)},
        "phase_seconds": {name: round(seconds, 6) for name, seconds
                          in result.phase_seconds.items()},
    }


def keys_document(keys: Sequence[AttributeSet]) -> Dict[str, Any]:
    """Minimal candidate keys as attribute-name lists."""
    return {
        "keys": [list(key.names) for key in keys],
        "count": len(keys),
    }


def relation_document(relation: Relation,
                      max_rows: Optional[int] = None) -> Dict[str, Any]:
    """A relation (e.g. an Armstrong sample) as attributes + row arrays."""
    rows = list(relation.rows())
    truncated = max_rows is not None and len(rows) > max_rows
    if truncated:
        rows = rows[:max_rows]
    return {
        "attributes": list(relation.schema.names),
        "rows": [list(row) for row in rows],
        "num_rows": len(relation),
        "truncated": truncated,
    }


def split_csv_source(payload: Dict[str, Any]) -> Tuple[Optional[str],
                                                       Optional[str]]:
    """The (csv_path, csv_text) pair of a registration body, validated."""
    csv_path = payload.get("csv_path")
    csv_text = payload.get("csv_text")
    if csv_path is not None and not isinstance(csv_path, str):
        raise ServiceError("'csv_path' must be a string path")
    if csv_text is not None and not isinstance(csv_text, str):
        raise ServiceError("'csv_text' must be a string of CSV data")
    return csv_path, csv_text
