"""Content fingerprints for relations and pipeline-stage cache keys.

Every artefact of the Dep-Miner pipeline (``ag(r)``, the cmax families,
the FD cover) is a pure function of the input relation
and the stage configuration, so a stable content hash of both is a sound
cache key.  Two design points:

**Row-permutation invariance.**  ``ag(r)``, the maximal sets and the FD
cover are invariant under row permutation (the tests pin this down as a
hypothesis property), so the relation fingerprint combines per-row
digests with a *commutative* reduction (a 128-bit modular sum plus the
row count): ``r`` and any shuffle of ``r`` share one cache entry.  Row
digests themselves are built column-wise — a polynomial mix over the
per-column value digests, salted by attribute position — and passed
through a non-linear finalizer *before* the sum.  The finalizer is what
makes the *alignment* of values across columns (which does change the
FDs) stick: summing the raw polynomials would be linear, and linearity
collapses the total to a function of the per-column value multisets
alone, so relations differing only in row alignment would collide.
Duplicated rows contribute multiplicity through the sum.

**Stability.**  Value digests use :func:`hashlib.blake2b` over
type-tagged byte encodings rather than Python's salted ``hash()``, so
the on-disk tier survives interpreter restarts.  Values outside the
common CSV types (``None``/bool/int/float/str/bytes) fall back to their
``repr``; callers holding exotic value types with unstable reprs should
not share a disk cache across processes (the guard digest still protects
against schema/row-count confusion — see :mod:`repro.cache.store`).

:class:`RelationFingerprint` is incremental: the commutative reduction
means appending rows only requires digesting the *new* rows, which is
what keeps :class:`repro.cache.incremental.IncrementalMiner`'s
bookkeeping linear in the appended batch.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.attributes import Schema
from repro.core.relation import Relation

__all__ = [
    "RelationFingerprint",
    "fingerprint_relation",
    "fingerprint_from_codes",
    "stage_key",
    "PipelineKeys",
]

#: 128-bit accumulator space for the commutative row-digest sum.
_MOD = 1 << 128
_MASK = _MOD - 1
#: Odd multiplier for the column-position polynomial mix (splitmix-style).
_PRIME = 0x9E3779B97F4A7C15F39CC0605CEDC835 | 1
#: Odd multipliers for the murmur-style row-digest finalizer.
_MIX1 = 0x2545F4914F6CDD1D27D4EB2F165667C5 | 1
_MIX2 = 0xC2B2AE3D27D4EB4F9E3779B185EBCA87 | 1


def _mix(acc: int) -> int:
    """Non-linear 128-bit finalizer (murmur-style xorshift–multiply).

    Applied to each row's polynomial digest before the commutative sum;
    without it the sum is linear in the value digests and loses the
    cross-column alignment of values (see the module docstring).
    """
    acc ^= acc >> 65
    acc = (acc * _MIX1) & _MASK
    acc ^= acc >> 67
    acc = (acc * _MIX2) & _MASK
    acc ^= acc >> 65
    return acc


def _value_bytes(value: Any) -> bytes:
    """A stable, type-tagged byte encoding of one cell value."""
    if value is None:
        return b"N"
    if value is True:
        return b"T"
    if value is False:
        return b"F"
    if isinstance(value, str):
        return b"s" + value.encode("utf-8", "surrogatepass")
    if isinstance(value, bytes):
        return b"b" + value
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"f" + repr(value).encode("ascii")
    return b"r" + repr(value).encode("utf-8", "backslashreplace")


def _value_digest(value: Any) -> int:
    return int.from_bytes(
        hashlib.blake2b(_value_bytes(value), digest_size=16).digest(), "big"
    )


def _column_salt(index: int, name: str) -> int:
    payload = f"{index}:{name}".encode("utf-8")
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=16).digest(), "big"
    )


class RelationFingerprint:
    """Order-insensitive, incrementally updatable relation fingerprint.

    Feed rows (or whole column batches) in any order and in any number
    of batches; :attr:`key` only depends on the schema, the null
    semantics and the *multiset* of rows seen so far.
    """

    def __init__(self, schema: Schema, nulls_equal: bool = True):
        self._schema = schema
        self._nulls_equal = nulls_equal
        self._salts = [
            _column_salt(i, name) for i, name in enumerate(schema.names)
        ]
        # One memo dict per column: distinct values are digested once.
        self._memos: List[Dict[Any, int]] = [{} for _ in schema.names]
        self._count = 0
        self._sum = 0

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        """Rows folded in so far."""
        return self._count

    def update_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        """Fold an iterable of row tuples into the fingerprint."""
        salts = self._salts
        memos = self._memos
        width = len(salts)
        total = 0
        count = 0
        for row in rows:
            if len(row) != width:
                raise ValueError(
                    f"row has arity {len(row)}, schema has {width}"
                )
            acc = 0
            for index in range(width):
                value = row[index]
                memo = memos[index]
                digest = memo.get(value)
                if digest is None:
                    digest = memo[value] = _value_digest(value)
                acc = (acc * _PRIME + (digest ^ salts[index])) & _MASK
            total = (total + _mix(acc)) & _MASK
            count += 1
        self._sum = (self._sum + total) & _MASK
        self._count += count

    def update_columns(self, columns: Sequence[Sequence[Any]]) -> None:
        """Fold a batch given column-wise (the :class:`Relation` layout).

        Column-wise iteration digests each distinct value of a column
        once per batch, which is the fast path for the low-cardinality
        columns the synthetic workloads produce.
        """
        salts = self._salts
        memos = self._memos
        if len(columns) != len(salts):
            raise ValueError(
                f"expected {len(salts)} columns, got {len(columns)}"
            )
        if not columns:
            return
        batch = len(columns[0])
        accs = [0] * batch
        for index, column in enumerate(columns):
            if len(column) != batch:
                raise ValueError("ragged column batch")
            memo = memos[index]
            salt = salts[index]
            for row, value in enumerate(column):
                digest = memo.get(value)
                if digest is None:
                    digest = memo[value] = _value_digest(value)
                accs[row] = (accs[row] * _PRIME + (digest ^ salt)) & _MASK
        self._sum = (self._sum + sum(map(_mix, accs))) & _MASK
        self._count += batch

    def update_codes(self, codes: Sequence[Sequence[int]],
                     uniques: Sequence[Sequence[Any]]) -> None:
        """Fold a factorized batch (the columnar ingest layout).

        ``codes`` holds one dense code sequence per column and
        ``uniques`` the decoded value of each code, exactly as
        :func:`repro.columnar.encode.encode_column` produces them.
        Each distinct value is digested once (off its ``uniques`` slot)
        and rows are mixed by code lookup, so the result equals
        :meth:`update_rows` over the decoded rows without ever
        materializing them.  Works on plain sequences — NumPy arrays
        are accepted but not required.
        """
        salts = self._salts
        if len(codes) != len(salts) or len(uniques) != len(salts):
            raise ValueError(
                f"expected {len(salts)} coded columns, "
                f"got {len(codes)} codes / {len(uniques)} uniques"
            )
        if not salts:
            return
        batch: Optional[int] = None
        accs: List[int] = []
        for index in range(len(salts)):
            column = codes[index]
            column = column.tolist() if hasattr(column, "tolist") \
                else list(column)
            if batch is None:
                batch = len(column)
                accs = [0] * batch
            elif len(column) != batch:
                raise ValueError("ragged coded column batch")
            salt = salts[index]
            memo = self._memos[index]
            digests = []
            for value in uniques[index]:
                digest = memo.get(value)
                if digest is None:
                    digest = memo[value] = _value_digest(value)
                digests.append(digest ^ salt)
            for row, code in enumerate(column):
                accs[row] = (accs[row] * _PRIME + digests[code]) & _MASK
        self._sum = (self._sum + sum(map(_mix, accs))) & _MASK
        self._count += batch or 0

    @property
    def key(self) -> str:
        """The content key: a hex blake2b digest of schema + row multiset."""
        header = "\x1f".join(self._schema.names).encode("utf-8")
        payload = b"relfp-v1|%s|%d|%d|%d" % (
            header,
            1 if self._nulls_equal else 0,
            self._count,
            self._sum,
        )
        return hashlib.blake2b(payload, digest_size=16).hexdigest()

    def copy(self) -> "RelationFingerprint":
        """An independent snapshot (memo dicts are shared copy-on-write)."""
        clone = RelationFingerprint(self._schema, self._nulls_equal)
        clone._memos = [dict(memo) for memo in self._memos]
        clone._count = self._count
        clone._sum = self._sum
        return clone

    def __repr__(self) -> str:
        return (
            f"RelationFingerprint(width={len(self._schema)}, "
            f"rows={self._count}, key={self.key})"
        )


def fingerprint_relation(relation: Relation,
                         nulls_equal: bool = True) -> str:
    """The content key of *relation* (see :class:`RelationFingerprint`)."""
    fingerprint = RelationFingerprint(relation.schema, nulls_equal)
    fingerprint.update_columns(
        [relation.column(i) for i in range(len(relation.schema))]
    )
    return fingerprint.key


def fingerprint_from_codes(codes: Sequence[Sequence[int]],
                           uniques: Sequence[Sequence[Any]],
                           schema: Schema,
                           nulls_equal: bool = True) -> str:
    """The content key straight from a factorized code matrix.

    Equal to ``fingerprint_relation`` of the decoded relation — the
    hypothesis suite pins the equality and the shared row-permutation
    invariance — but computed without materializing any row, which is
    what lets a streaming ingest serve cache full-hits before a
    :class:`~repro.core.relation.Relation` exists.
    """
    fingerprint = RelationFingerprint(schema, nulls_equal)
    fingerprint.update_codes(codes, uniques)
    return fingerprint.key


def stage_key(relation_key: str, stage: str, **config: Any) -> str:
    """Key of one pipeline stage: relation content + stage configuration.

    Configuration items are folded in sorted order so keyword order
    never matters; values are rendered with ``repr`` (stage configs are
    primitives: algorithm names, integers, ``None``, booleans).
    """
    parts = [f"stage-v1|{stage}|{relation_key}"]
    for name in sorted(config):
        parts.append(f"{name}={config[name]!r}")
    return hashlib.blake2b(
        "|".join(parts).encode("utf-8"), digest_size=16
    ).hexdigest()


class PipelineKeys:
    """The per-stage cache keys of one ``DepMiner`` configuration.

    Keys deliberately over-approximate the invalidation rules — e.g.
    ``jobs``, the agree algorithm and the mining ``backend`` are folded
    into the agree-set key even though every algorithm, backend and job
    count produce identical ``ag(r)`` — so a cached artefact is only
    ever reused under the exact configuration that produced it (see
    ``docs/caching.md``).
    """

    __slots__ = ("relation", "agree", "cover")

    def __init__(self, relation_key: str, *, nulls_equal: bool,
                 agree_algorithm: str, max_couples, jobs: int,
                 transversal_algorithm: str, max_lhs_size,
                 backend: str = "python"):
        self.relation = relation_key
        self.agree = stage_key(
            relation_key, "agree", nulls_equal=nulls_equal,
            algorithm=agree_algorithm, max_couples=max_couples, jobs=jobs,
            backend=backend,
        )
        self.cover = stage_key(
            relation_key, "cover", nulls_equal=nulls_equal,
            algorithm=agree_algorithm, max_couples=max_couples, jobs=jobs,
            method=transversal_algorithm, max_lhs_size=max_lhs_size,
            backend=backend,
        )

    @classmethod
    def for_miner(cls, relation_key: str, miner) -> "PipelineKeys":
        """The stage keys of a :class:`~repro.core.depminer.DepMiner`."""
        return cls(
            relation_key,
            nulls_equal=miner.nulls_equal,
            agree_algorithm=miner.agree_algorithm,
            max_couples=miner.max_couples,
            jobs=miner.jobs,
            transversal_algorithm=miner.transversal_algorithm,
            max_lhs_size=miner.max_lhs_size,
            backend=getattr(miner, "backend", "python"),
        )

    def __repr__(self) -> str:
        return f"PipelineKeys(relation={self.relation})"
