"""Streaming columnar ingestion: CSV bytes → the ``int64`` code matrix.

:func:`repro.storage.csv_io.read_csv` materializes a full Python
``Table`` — one ``str``/``int``/``float`` object per cell, several
per-cell passes for null mapping, unescaping and type inference — and
``encode_relation`` then re-walks all of it into the code matrix.  On
wide, long relations that ingestion toll dominates the whole columnar
run.  :func:`ingest_csv` goes straight from CSV text to the factorized
form instead:

- the file is read in fixed-size **row chunks** (``chunk_rows``), each
  converted once into a 2-D NumPy unicode array, so the per-row Python
  working set stays bounded and per-cell work happens in C;
- every column is **dictionary-encoded**: an all-ASCII-digit column is
  parsed by a vectorized digit-place evaluation (no string sort at
  all), any other column is deduplicated with one ``np.unique`` and the
  null-token / escape / numeric-inference rules are applied to the
  *distinct tokens only* — semantics identical to ``read_csv`` +
  ``encode_column``, pinned by the differential suite in
  ``tests/test_ingest.py``;
- the relation **fingerprint** can be accumulated from the codes in the
  same pass (``fingerprint=True``), so a configured cache serves a full
  hit before any Python ``Relation`` exists;
- the :class:`Relation` itself is built **lazily** — only when a
  non-columnar consumer asks (:meth:`CodedRelation.to_relation`).

Error behaviour mirrors ``read_csv`` exactly: missing/empty files,
ragged rows (with the line number of the offending row) and duplicate
header names raise :class:`~repro.errors.StorageError`; duplicate
headers are rejected from the *first* chunk, before any data is parsed.
Real IO errors are wrapped via the ``storage.read`` fault site.
"""

from __future__ import annotations

import csv
from itertools import chain, islice
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.attributes import Schema
from repro.core.relation import Relation
from repro.errors import StorageError
from repro.obs import Tracer, get_logger
from repro.reliability.faults import fault_point, wrap_text_stream
from repro.storage.csv_io import (
    DEFAULT_NULL_TOKENS,
    _cast_float,
    _cast_int,
    _check_header,
    _unescape,
)

__all__ = ["CodedRelation", "ingest_csv", "coded_from_relation",
           "DEFAULT_CHUNK_ROWS"]

logger = get_logger(__name__)

#: Default rows per chunk for the streaming reader.
DEFAULT_CHUNK_ROWS = 4096

#: Digit count safely representable in the vectorized ``int64`` cast.
_MAX_FAST_INT_DIGITS = 18

_POW10 = 10 ** np.arange(_MAX_FAST_INT_DIGITS + 1, dtype=np.int64)

# ``np.strings`` is the NumPy 2.x home of the vectorized string ufuncs;
# ``np.char`` carries the same names on older releases.
_np_strings = getattr(np, "strings", np.char)


class CodedRelation:
    """A relation held as its factorized columnar form.

    The mining pipeline only ever needs the ``(width, num_rows)`` code
    matrix; the per-column ``uniques`` (decoded values in
    first-occurrence order, exactly as
    :func:`repro.columnar.encode.encode_column` would produce them)
    are kept for the round trip.  A Python :class:`Relation` is built
    lazily, once, on the first :meth:`to_relation` call.
    """

    __slots__ = ("schema", "codes", "name", "nulls_equal", "_uniques",
                 "_uniques_lists", "_relation", "_distinct",
                 "_fingerprints")

    def __init__(self, schema: Schema, codes: "np.ndarray",
                 uniques: Sequence[Any], nulls_equal: bool = True,
                 name: Optional[str] = None):
        if codes.shape[0] != len(schema):
            raise ValueError(
                f"code matrix has {codes.shape[0]} rows, "
                f"schema has {len(schema)} attributes"
            )
        self.schema = schema
        self.codes = codes
        self.name = name
        self.nulls_equal = nulls_equal
        # Per column: either a Python list (generic path) or an int64
        # array (fast path); lists are materialized on demand.
        self._uniques = list(uniques)
        self._uniques_lists: List[Optional[List[Any]]] = [
            column if isinstance(column, list) else None
            for column in self._uniques
        ]
        self._relation: Optional[Relation] = None
        self._distinct: dict = {}
        self._fingerprints: dict = {}

    # -- shape ---------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return int(self.codes.shape[1])

    def __len__(self) -> int:
        return self.num_rows

    # -- decoding ------------------------------------------------------------

    def uniques(self, attribute: int) -> List[Any]:
        """Decoded distinct slots of one column (``uniques[code]`` order).

        Under ``nulls_equal=False`` every null *cell* owns a slot, so
        the list may repeat ``None`` — exactly like ``encode_column``.
        """
        cached = self._uniques_lists[attribute]
        if cached is None:
            cached = self._uniques[attribute].tolist()
            self._uniques_lists[attribute] = cached
        return cached

    def distinct_values(self, attribute: int) -> List[Any]:
        """``πA(r)`` in first-seen order (``None`` at most once)."""
        cached = self._distinct.get(attribute)
        if cached is None:
            seen: dict = {}
            for value in self.uniques(attribute):
                if value not in seen:
                    seen[value] = None
            cached = self._distinct[attribute] = list(seen)
        return cached

    def distinct_count(self, attribute: int) -> int:
        """``|πA(r)|`` — what Proposition 1 budgets against."""
        return len(self.distinct_values(attribute))

    def to_relation(self) -> Relation:
        """Materialize (and memoize) the Python :class:`Relation`."""
        if self._relation is None:
            columns = []
            for attribute in range(len(self.schema)):
                decoder = np.asarray(self.uniques(attribute), dtype=object)
                columns.append(decoder[self.codes[attribute]].tolist())
            self._relation = Relation.from_columns(self.schema, columns)
        return self._relation

    @property
    def materialized(self) -> bool:
        """Whether :meth:`to_relation` has already been paid for."""
        return self._relation is not None

    # -- fingerprint ---------------------------------------------------------

    def fingerprint(self, nulls_equal: Optional[bool] = None):
        """The :class:`~repro.cache.fingerprint.RelationFingerprint` of
        the rows, folded from the codes once per null semantics.

        The returned object is the memoized one: a caller that goes on
        folding rows into it must :meth:`copy` it first.
        """
        if nulls_equal is None:
            nulls_equal = self.nulls_equal
        fingerprint = self._fingerprints.get(nulls_equal)
        if fingerprint is None:
            from repro.cache.fingerprint import RelationFingerprint

            fingerprint = RelationFingerprint(self.schema, nulls_equal)
            # Decoded (Python-typed) uniques: value digests are
            # type-tagged, so np.int64 slots must become plain ints.
            fingerprint.update_codes(
                self.codes,
                [self.uniques(a) for a in range(len(self.schema))],
            )
            self._fingerprints[nulls_equal] = fingerprint
        return fingerprint

    def fingerprint_key(self, nulls_equal: Optional[bool] = None) -> str:
        """The cache fingerprint, computed from codes (memoized).

        Identical to ``fingerprint_relation(self.to_relation(), ...)``
        without ever materializing the relation (the equality is a
        hypothesis property in ``tests/test_ingest.py``).
        """
        return self.fingerprint(nulls_equal).key

    def __repr__(self) -> str:
        return (
            f"CodedRelation(width={len(self.schema)}, rows={self.num_rows}, "
            f"nulls_equal={self.nulls_equal})"
        )


def coded_from_relation(relation: Relation,
                        nulls_equal: bool = True) -> CodedRelation:
    """Factorize an in-memory :class:`Relation` into a
    :class:`CodedRelation` (the classic ``encode_relation`` path, with
    the uniques retained for decoding)."""
    from repro.columnar.encode import encode_column

    width = len(relation.schema)
    codes = np.empty((width, len(relation)), dtype=np.int64)
    uniques: List[List[Any]] = []
    for attribute in range(width):
        codes[attribute], column_uniques = encode_column(
            relation.column(attribute), nulls_equal=nulls_equal
        )
        uniques.append(column_uniques)
    coded = CodedRelation(
        relation.schema, codes, uniques, nulls_equal=nulls_equal
    )
    coded._relation = relation
    return coded


# -- the streaming reader ----------------------------------------------------


def ingest_csv(path: Union[str, Path], name: Optional[str] = None,
               delimiter: str = ",", has_header: bool = True,
               infer_types: bool = True,
               null_tokens: Sequence[str] = DEFAULT_NULL_TOKENS,
               nulls_equal: bool = True,
               chunk_rows: int = DEFAULT_CHUNK_ROWS,
               fingerprint: bool = False,
               tracer: Optional[Tracer] = None) -> CodedRelation:
    """Stream a CSV file directly into a :class:`CodedRelation`.

    Parameters mirror :func:`repro.storage.csv_io.read_csv` (same null
    tokens, same canonical numeric inference, same error messages) plus:

    chunk_rows:
        Rows per streaming chunk — bounds the per-chunk Python row
        working set; factorization state is per-chunk-distinct, not
        per-cell.
    nulls_equal:
        Null semantics are resolved *at ingest* (fresh code per null
        cell under ``False``), exactly as ``encode_column`` would.
    fingerprint:
        Also fold the relation fingerprint (``ingest.fingerprint``
        span) so a configured cache can serve a full hit before any
        ``Relation`` is materialized.
    tracer:
        Optional span collector: ``ingest.read``, ``ingest.factorize``
        and (with ``fingerprint=True``) ``ingest.fingerprint``.
    """
    path = Path(path)
    if not path.exists():
        raise StorageError(f"CSV file not found: {path}")
    if chunk_rows < 1:
        raise StorageError(f"chunk_rows must be >= 1, got {chunk_rows}")
    tracer = tracer if tracer is not None else Tracer()
    null_set = set(null_tokens)
    with tracer.span("ingest.read", phase=True, path=str(path),
                     chunk_rows=chunk_rows) as read_span:
        header, chunks = _read_chunks(
            path, delimiter, has_header, chunk_rows
        )
    width = len(header)
    num_rows = sum(chunk.shape[0] for chunk in chunks)
    with tracer.span("ingest.factorize", phase=True, width=width,
                     rows=num_rows):
        codes = np.empty((width, num_rows), dtype=np.int64)
        uniques: List[Any] = []
        for attribute in range(width):
            column = _column_view(chunks, attribute)
            codes[attribute], column_uniques = _factorize_column(
                column, null_set, infer_types, nulls_equal
            )
            uniques.append(column_uniques)
    coded = CodedRelation(
        Schema(header), codes, uniques, nulls_equal=nulls_equal,
        name=name if name is not None else path.stem,
    )
    if fingerprint:
        with tracer.span("ingest.fingerprint", phase=True):
            coded.fingerprint_key(nulls_equal)
    logger.debug(
        "ingested %s: %d attributes over %d rows in %d chunk(s) (%.3fs "
        "read)", path, width, num_rows, len(chunks), read_span.duration,
    )
    return coded


def _read_chunks(path: Path, delimiter: str, has_header: bool,
                 chunk_rows: int) -> Tuple[List[str], List["np.ndarray"]]:
    """Chunked CSV read → (header, list of 2-D unicode chunk arrays).

    Blank lines are skipped (without advancing the reported line
    number, matching ``read_csv``); ragged rows raise with the same
    ``path:line: expected W fields`` message; duplicate header names
    are rejected before the first data chunk is converted.
    """
    try:
        fault_point("storage.read", path=str(path))
        with path.open(newline="") as raw:
            handle = wrap_text_stream("storage.read", raw, path=str(path))
            reader = csv.reader(handle, delimiter=delimiter)
            first = next((row for row in reader if row), None)
            if first is None:
                raise StorageError(f"CSV file {path} is empty")
            if has_header:
                header = first
                data = reader
                start = 2
            else:
                header = [f"col{i + 1}" for i in range(len(first))]
                data = chain([first], reader)
                start = 1
            _check_header(header, path)
            width = len(header)
            chunks: List[np.ndarray] = []
            consumed = 0  # non-blank data rows already converted
            while True:
                chunk = list(islice(data, chunk_rows))
                if not chunk:
                    break
                array = _chunk_array(chunk, width, path, start + consumed)
                consumed += len(chunk) - _blank_rows(chunk)
                if array.shape[0]:
                    chunks.append(array)
    except OSError as error:
        raise StorageError(f"cannot read {path}: {error}") from error
    return header, chunks


def _blank_rows(chunk: List[List[str]]) -> int:
    return sum(1 for row in chunk if not row)


def _chunk_array(chunk: List[List[str]], width: int, path: Path,
                 line_number: int) -> "np.ndarray":
    """One chunk as a 2-D unicode array, validating row widths.

    The clean case (no blank lines, rectangular) converts in a single C
    call; anything else falls back to a per-row scan that reports the
    exact offending line, numbered the way ``read_csv`` numbers it
    (blank lines do not advance the count).
    """
    try:
        array = np.asarray(chunk)
    except ValueError:
        array = None
    if array is not None and array.ndim == 2 and array.dtype.kind == "U" \
            and array.shape[1] == width:
        return array
    cleaned: List[List[str]] = []
    for row in chunk:
        if not row:
            continue
        if len(row) != width:
            raise StorageError(
                f"{path}:{line_number + len(cleaned)}: expected {width} "
                f"fields, got {len(row)}"
            )
        cleaned.append(row)
    if not cleaned:
        return np.empty((0, width), dtype="U1")
    return np.asarray(cleaned)


def _column_view(chunks: List["np.ndarray"], attribute: int) -> "np.ndarray":
    """Column *attribute* across all chunks, as one contiguous array."""
    if not chunks:
        return np.empty(0, dtype="U1")
    if len(chunks) == 1:
        return np.ascontiguousarray(chunks[0][:, attribute])
    parts = [chunk[:, attribute] for chunk in chunks]
    return np.concatenate(parts)


# -- per-column factorization ------------------------------------------------


def _factorize_column(column: "np.ndarray", null_set: set,
                      infer_types: bool, nulls_equal: bool):
    """Factorize one raw-token column into ``(codes, uniques)``.

    Bit-identical to ``encode_column`` applied to the column that
    ``read_csv`` would have produced — null mapping, one-backslash
    unescape, canonical all-int / all-float / strings inference, dense
    codes in first-occurrence order, fresh codes per null cell under
    ``nulls_equal=False``.
    """
    if column.shape[0] == 0:
        return np.empty(0, dtype=np.int64), []
    if infer_types:
        fast = _fast_int_values(column, null_set)
        if fast is not None:
            return _codes_of_values(fast)
    return _factorize_generic(column, null_set, infer_types, nulls_equal)


def _fast_int_values(column: "np.ndarray",
                     null_set: set) -> Optional["np.ndarray"]:
    """The vectorized cast: all-ASCII-digit columns → ``int64`` values.

    Returns ``None`` whenever anything requires the generic path: a
    non-digit character (signs, decimal points, escapes, null tokens —
    all non-digit), a token longer than 18 digits, an empty token, or a
    null-token set that could claim a digit string.
    """
    if any(token.isascii() and token.isdigit() for token in null_set):
        return None  # a digit token might be a null — let the slow path decide
    column = np.ascontiguousarray(column)
    item_chars = column.dtype.itemsize // 4
    if item_chars == 0:
        return None
    u32 = column.view(np.uint32).reshape(column.shape[0], item_chars)
    digits = (u32 - 48) < 10  # uint32 wraparound rejects chars below '0'
    lengths = _np_strings.str_len(column)
    if int(lengths.max(initial=0)) > _MAX_FAST_INT_DIGITS \
            or int(lengths.min(initial=1)) == 0:
        return None
    inside = np.arange(item_chars) < lengths[:, None]
    if not bool((digits == inside).all()):
        return None  # digits exactly fill the token, NUL padding outside
    exponents = np.clip(lengths[:, None] - 1 - np.arange(item_chars), 0, None)
    places = np.where(inside, u32.astype(np.int64) - 48, 0)
    return (places * _POW10[exponents]).sum(axis=1)


def _codes_of_values(values: "np.ndarray"):
    """Dense first-occurrence codes of an ``int64`` value array.

    One stable argsort: run starts give the distinct values, and —
    because the sort is stable — the first row of each run is the
    value's first occurrence, which fixes the code order.
    """
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    num = values.shape[0]
    starts = np.empty(num, dtype=bool)
    starts[0] = True
    starts[1:] = ranked[1:] != ranked[:-1]
    first_rows = order[starts]
    by_first = np.argsort(first_rows, kind="stable")
    num_distinct = first_rows.shape[0]
    rank = np.empty(num_distinct, dtype=np.int64)
    rank[by_first] = np.arange(num_distinct)
    inverse = np.empty(num, dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return rank[inverse], ranked[starts][by_first]


def _factorize_generic(column: "np.ndarray", null_set: set,
                       infer_types: bool, nulls_equal: bool):
    """The general path: dedup once, decode distinct tokens in Python."""
    uniq, inverse = np.unique(column, return_inverse=True)
    inverse = inverse.reshape(-1)
    # First-occurrence row of every distinct raw token.
    order = np.argsort(inverse, kind="stable")
    ranked = inverse[order]
    starts = np.empty(inverse.shape[0], dtype=bool)
    starts[0] = True
    starts[1:] = ranked[1:] != ranked[:-1]
    first_rows = np.empty(uniq.shape[0], dtype=np.int64)
    first_rows[ranked[starts]] = order[starts]
    # Null mapping, unescape and numeric inference on distinct tokens.
    tokens = uniq.tolist()
    mapped = [
        None if token in null_set else _unescape(token) for token in tokens
    ]
    if infer_types:
        mapped = _infer_distinct(mapped)
    if nulls_equal:
        return _codes_nulls_equal(mapped, first_rows, inverse)
    return _codes_sql_nulls(mapped, first_rows, inverse)


def _infer_distinct(mapped: List[Any]) -> List[Any]:
    """``_parse_column`` restricted to distinct tokens: all-int, else
    all-float, else the strings (nulls untouched)."""
    non_null = [token for token in mapped if token is not None]
    for caster in (_cast_int, _cast_float):
        try:
            parsed = {token: caster(token) for token in set(non_null)}
        except (TypeError, ValueError):
            continue
        return [
            parsed[token] if token is not None else None for token in mapped
        ]
    return mapped


def _codes_nulls_equal(mapped: List[Any], first_rows: "np.ndarray",
                       inverse: "np.ndarray"):
    """Token codes under grouped-null semantics.

    Distinct tokens whose decoded values are equal (``"01"`` and
    ``"1"`` in an integer column, ``"\\\\x"`` and ``"x"``) merge into
    one code; visiting tokens by first occurrence keeps the code order
    exactly first-occurrence-of-value.
    """
    code_of_token = np.empty(len(mapped), dtype=np.int64)
    uniques: List[Any] = []
    seen: dict = {}
    for token_index in np.argsort(first_rows, kind="stable").tolist():
        value = mapped[token_index]
        if value in seen:
            code = seen[value]
        else:
            code = seen[value] = len(uniques)
            uniques.append(value)
        code_of_token[token_index] = code
    return code_of_token[inverse], uniques


def _codes_sql_nulls(mapped: List[Any], first_rows: "np.ndarray",
                     inverse: "np.ndarray"):
    """Token codes under SQL null semantics: fresh code per null cell.

    ``encode_column`` hands out codes in row order — a null cell takes
    the next code the moment it is seen, interleaved with first-seen
    values — so codes are ranked over the merged event sequence
    (value first occurrences ∪ null cells).
    """
    null_token = np.array([value is None for value in mapped], dtype=bool)
    null_cells = null_token[inverse]
    null_rows = np.flatnonzero(null_cells)
    seen: dict = {}
    value_first: List[int] = []
    token_value: List[int] = [-1] * len(mapped)
    for token_index in np.argsort(first_rows, kind="stable").tolist():
        if null_token[token_index]:
            continue
        value = mapped[token_index]
        if value in seen:
            token_value[token_index] = seen[value]
        else:
            token_value[token_index] = seen[value] = len(value_first)
            value_first.append(int(first_rows[token_index]))
    events = np.concatenate([
        np.asarray(value_first, dtype=np.int64), null_rows
    ])
    event_code = np.empty(events.shape[0], dtype=np.int64)
    event_code[np.argsort(events, kind="stable")] = \
        np.arange(events.shape[0])
    num_values = len(value_first)
    value_code = event_code[:num_values]
    padded = np.concatenate([value_code, np.asarray([-1], dtype=np.int64)])
    codes = padded[np.asarray(token_value, dtype=np.int64)[inverse]]
    codes[null_cells] = event_code[num_values:]
    uniques: List[Any] = [None] * events.shape[0]
    for value, value_id in seen.items():
        uniques[int(value_code[value_id])] = value
    return codes, uniques
