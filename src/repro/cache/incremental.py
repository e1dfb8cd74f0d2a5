"""Incremental append-only re-mining (the cache's delta path).

Appending rows to a relation only ever *adds* tuple couples: every new
couple contains at least one appended row, and the agree set of an old
couple never changes.  ``IncrementalMiner`` exploits this:

- the stripped partitions are updated **in place** — per-attribute
  value → rows group maps absorb the appended rows, and only groups a
  new row touches change;
- the agree-set sweep resolves **only the delta couples** (new × old
  plus new × new pairs that share at least one equivalence class), an
  O(new × total) enumeration instead of the O(total²)-bounded cold
  sweep;
- the delta masks are merged with the previous ``ag(r)`` (``∅``
  membership is monotone under appends, and a never-visited delta pair
  signals it exactly as in the cold algorithms);
- only the comparatively cheap cmax/transversal tail re-derives, via
  :meth:`repro.core.depminer.DepMiner.derive_from_agree_sets`.

The output is identical to a cold ``DepMiner.run`` on the concatenated
relation — the differential/hypothesis tests assert agree sets, cmax
families and FD covers are equal for arbitrary append sequences.  When
the wrapped miner carries an :class:`~repro.cache.store.ArtifactStore`,
each append also publishes the grown relation's ``ag(r)`` and cover
under its content keys, so a later cold run over the same data is a
warm hit: it finds the cover first.  No stripped partitions are
published; neither backend would read them under a grown key.

Parallelism: the delta couples resolve in-process at every ``jobs``
value, on both backends — an append's delta is at most appended rows ×
|r| couples, too few to repay a pool dispatch.  The re-derived tail
still fans out per RHS attribute when ``jobs > 1``.

Concurrency: appends are serialized on a per-instance mutex (the
long-lived service keeps one ``IncrementalMiner`` per session and feeds
it from worker threads); a re-entrant ``append`` on the same thread
raises :class:`~repro.errors.CacheError`.

With a columnar-backend miner the delta enters as **code-matrix
slices**: per-attribute encoder dicts (seeded from the initial
relation's factorization — reused verbatim from a
:class:`~repro.columnar.ingest.CodedRelation` when the null semantics
match) assign codes to appended rows, each batch appends one
``(width, new)`` int64 slice, and the delta couples resolve through
the vectorized :func:`repro.columnar.agree.resolve_couples` instead of
the per-couple Python resolution.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from itertools import combinations
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.agree_sets import (
    build_class_index_tables,
    resolve_couples_with_identifiers,
    resolve_couples_with_tables,
)
from repro.core.depminer import DepMiner, DepMinerResult
from repro.core.relation import Relation
from repro.errors import CacheError, ReproError
from repro.obs import NULL_METRICS, Tracer, get_logger
from repro.partitions.database import StrippedPartitionDatabase
from repro.partitions.partition import StrippedPartition

__all__ = ["IncrementalMiner"]

logger = get_logger(__name__)


class IncrementalMiner:
    """Append-only incremental wrapper around a :class:`DepMiner`.

    >>> from repro.core.attributes import Schema
    >>> from repro.core.relation import Relation
    >>> relation = Relation.from_rows(
    ...     Schema.of_width(3), [(0, 1, 2), (0, 1, 0)]
    ... )
    >>> inc = IncrementalMiner(relation, build_armstrong="none")
    >>> result = inc.append([(1, 0, 2)])  # == a cold run on all 3 rows
    >>> inc.num_rows
    3

    Parameters
    ----------
    relation:
        The initial relation — a :class:`Relation` or a
        :class:`~repro.columnar.ingest.CodedRelation` from the
        streaming ingest path; it is cold-mined once at construction
        time (through the wrapped miner, so a configured cache can
        already short-circuit that run, and a coded relation feeds the
        columnar backend without re-encoding).
    miner:
        An optional pre-configured :class:`DepMiner`; every keyword
        option is forwarded to a fresh one otherwise.
    """

    def __init__(self, relation, miner: Optional[DepMiner] = None,
                 **miner_options: Any):
        if miner is not None and miner_options:
            raise ReproError(
                "pass either a pre-built miner or DepMiner options, not both"
            )
        self.miner = miner if miner is not None else DepMiner(**miner_options)
        from repro.cache.fingerprint import RelationFingerprint

        coded = None if isinstance(relation, Relation) else relation
        source = relation  # what the cold mine runs on (coded stays coded)
        if coded is not None:
            relation = coded.to_relation()
        self._schema = relation.schema
        self._width = len(self._schema)
        self._columns: List[List[Any]] = [
            list(relation.column(i)) for i in range(self._width)
        ]
        self._num_rows = len(relation)
        # The in-place partition state: one value → sorted row list per
        # attribute.  Under SQL null semantics ``None`` never joins a
        # class, so null rows are simply not grouped.
        self._groups: List[Dict[Any, List[int]]] = [
            {} for _ in range(self._width)
        ]
        for attribute, column in enumerate(self._columns):
            groups = self._groups[attribute]
            for row, value in enumerate(column):
                if value is None and not self.miner.nulls_equal:
                    continue
                groups.setdefault(value, []).append(row)
        if coded is not None:
            # The ingest's fingerprint, copied: appends fold rows into
            # ours and must never move the coded relation's memoized key.
            self._fingerprint = coded.fingerprint(
                self.miner.nulls_equal
            ).copy()
        else:
            self._fingerprint = RelationFingerprint(
                self._schema, self.miner.nulls_equal
            )
            self._fingerprint.update_columns(self._columns)
        # append() mutates the value -> rows maps, the columns and the
        # fingerprint across many non-atomic steps; the mutex serializes
        # overlapping appends (concurrent service sessions) and the
        # owner check turns a re-entrant call — which would deadlock on
        # the non-reentrant lock — into a typed error.
        self._append_lock = threading.Lock()
        self._append_owner: Optional[int] = None
        self._init_codes(coded)
        self._result = self.miner.run(source)
        self._agree: Set[int] = set(self._result.agree_sets)
        self._stats: Dict[str, int] = dict(self._result.stats)

    # -- introspection -------------------------------------------------------

    @property
    def result(self) -> DepMinerResult:
        """The result of the most recent mine (initial or last append)."""
        return self._result

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def relation_key(self) -> str:
        """The content fingerprint of the current (grown) relation."""
        return self._fingerprint.key

    def relation(self) -> Relation:
        """The current relation (initial rows plus every appended batch)."""
        return Relation.from_columns(self._schema, self._columns)

    # -- the delta path ------------------------------------------------------

    def append(self, rows: Sequence[Sequence[Any]]) -> DepMinerResult:
        """Append *rows* and re-mine; returns the updated result.

        Equivalent to ``DepMiner.run`` on the concatenated relation, but
        only the delta couples are swept and only the derivation tail is
        recomputed.

        Thread-safe: overlapping calls from different threads are
        serialized on a per-instance mutex (each sees the state the
        previous append left, exactly as if the batches had arrived in
        that order).  A *re-entrant* call — ``append`` invoked from
        within an append on the same thread, e.g. from a progress
        callback — raises :class:`~repro.errors.CacheError` instead of
        deadlocking.
        """
        if self._append_owner == threading.get_ident():
            raise CacheError(
                "re-entrant IncrementalMiner.append: append() was called "
                "from within an append on the same thread (e.g. from a "
                "progress or metrics callback); queue the rows and append "
                "them after the current call returns"
            )
        with self._append_lock:
            self._append_owner = threading.get_ident()
            try:
                return self._append_locked(rows)
            finally:
                self._append_owner = None

    def _append_locked(self, rows: Sequence[Sequence[Any]]) -> DepMinerResult:
        rows = [tuple(row) for row in rows]
        for row in rows:
            if len(row) != self._width:
                raise ReproError(
                    f"appended row has arity {len(row)}, "
                    f"schema has {self._width}"
                )
        if not rows:
            return self._result

        miner = self.miner
        metrics = miner.metrics if miner.metrics is not None else NULL_METRICS
        tracer = miner.tracer if miner.tracer is not None else Tracer()
        n_old = self._num_rows
        n_new = len(rows)

        with tracer.span("incremental.append", new_rows=n_new,
                         total_rows=n_old + n_new):
            touched = self._absorb(rows)
            with tracer.span("incremental.delta_sweep") as sweep_span:
                delta_couples = self._delta_couples(touched, n_old)
                delta_masks = self._resolve_delta(sorted(delta_couples))
            # Every possible delta pair holds >= 1 new row; one that was
            # never visited shares no equivalence class, i.e. disagrees
            # on every attribute (the cold algorithms' ∅ test, restricted
            # to the delta).  ∅ membership is monotone under appends, so
            # the merge below can only ever add it.
            total_delta = n_new * n_old + n_new * (n_new - 1) // 2
            if len(delta_couples) < total_delta:
                delta_masks.add(0)
            metrics.inc("incremental.delta_couples", len(delta_couples))
            metrics.inc("incremental.rows_appended", n_new)
            logger.debug(
                "append of %d rows onto %d: %d delta couples "
                "(of %d possible) -> %d delta masks (%.3fs)",
                n_new, n_old, len(delta_couples), total_delta,
                len(delta_masks), sweep_span.duration,
            )

            self._agree |= delta_masks
            self._stats["num_couples"] = (
                self._stats.get("num_couples", 0) + len(delta_couples)
            )
            self._stats["num_agree_sets"] = len(self._agree)
            relation = self.relation()
            relation_key = self._fingerprint.key
        self._result = miner.derive_from_agree_sets(
            self._agree, self._schema, self._num_rows,
            relation=relation, stats=self._stats,
            relation_key=relation_key,
        )
        return self._result

    # -- internals -----------------------------------------------------------

    def _init_codes(self, coded) -> None:
        """Seed the columnar delta state (encoders + code matrix).

        Only for a columnar-backend miner with NumPy present; the
        pure-Python delta path keeps ``_code_chunks`` at ``None``.  A
        matching :class:`CodedRelation` donates its factorization
        verbatim; otherwise the columns are encoded once here.
        """
        self._code_chunks = None
        if self.miner.backend != "columnar":
            return
        from repro.columnar import numpy_available

        if not numpy_available():
            return
        import numpy as np

        nulls_equal = self.miner.nulls_equal
        if coded is not None and coded.nulls_equal == nulls_equal:
            codes = np.asarray(coded.codes, dtype=np.int64)
            uniques = [coded.uniques(a) for a in range(self._width)]
        else:
            from repro.columnar.encode import encode_column

            per_column = [
                encode_column(column, nulls_equal=nulls_equal)
                for column in self._columns
            ]
            codes = (
                np.vstack([c for c, _ in per_column])
                if per_column
                else np.empty((0, self._num_rows), dtype=np.int64)
            )
            uniques = [list(u) for _, u in per_column]
        self._encoders: List[Dict[Any, int]] = []
        self._next_code: List[int] = []
        for values in uniques:
            encoder: Dict[Any, int] = {}
            for code, value in enumerate(values):
                if value is None and not nulls_equal:
                    continue  # SQL nulls: every null cell keeps a fresh code
                encoder.setdefault(value, code)
            self._encoders.append(encoder)
            self._next_code.append(len(values))
        self._code_chunks = [codes]

    def _absorb_codes(self, rows: List[Tuple[Any, ...]]) -> None:
        """Encode *rows* through the persistent per-attribute encoders
        and append the resulting ``(width, new)`` code-matrix slice."""
        if self._code_chunks is None:
            return
        import numpy as np

        nulls_equal = self.miner.nulls_equal
        chunk = np.empty((self._width, len(rows)), dtype=np.int64)
        for offset, row in enumerate(rows):
            for attribute, value in enumerate(row):
                if value is None and not nulls_equal:
                    code = self._next_code[attribute]
                    self._next_code[attribute] += 1
                else:
                    encoder = self._encoders[attribute]
                    code = encoder.get(value)
                    if code is None:
                        code = self._next_code[attribute]
                        encoder[value] = code
                        self._next_code[attribute] += 1
                chunk[attribute, offset] = code
        self._code_chunks.append(chunk)

    def _codes(self):
        """The grown code matrix; chunks consolidate on first use."""
        import numpy as np

        if len(self._code_chunks) > 1:
            self._code_chunks = [
                np.concatenate(self._code_chunks, axis=1)
            ]
        return self._code_chunks[0]

    def _absorb(self, rows: List[Tuple[Any, ...]]) -> List[Set[Any]]:
        """Fold *rows* into the columns, groups and fingerprint.

        Returns, per attribute, the set of group values the new rows
        joined — the only places delta couples can come from.  Group
        row lists stay sorted because appended indices only grow.
        """
        nulls_equal = self.miner.nulls_equal
        touched: List[Set[Any]] = [set() for _ in range(self._width)]
        base = self._num_rows
        for offset, row in enumerate(rows):
            row_index = base + offset
            for attribute, value in enumerate(row):
                self._columns[attribute].append(value)
                if value is None and not nulls_equal:
                    continue
                self._groups[attribute].setdefault(value, []).append(row_index)
                touched[attribute].add(value)
        self._num_rows = base + len(rows)
        self._fingerprint.update_rows(rows)
        self._absorb_codes(rows)
        return touched

    def _delta_couples(self, touched: List[Set[Any]],
                       first_new: int) -> Set[Tuple[int, int]]:
        """Candidate couples holding >= 1 new row, each exactly once.

        Only groups a new row joined can produce them; within such a
        group every (old member, new member) and (new, new) pair is
        enumerated — O(new × group) per attribute, O(new × total)
        overall.  Couples shared by several attributes dedupe through
        the set, mirroring the cold stream's dedup-before-resolve
        contract (which is what keeps the distinct count, and thus the
        ``∅`` detection, sound).
        """
        couples: Set[Tuple[int, int]] = set()
        for attribute, values in enumerate(touched):
            groups = self._groups[attribute]
            for value in values:
                members = groups[value]
                if len(members) < 2:
                    continue
                split = bisect_left(members, first_new)
                old_part = members[:split]
                new_part = members[split:]
                for fresh in new_part:
                    for old in old_part:
                        couples.add((old, fresh))
                couples.update(combinations(new_part, 2))
        return couples

    def _current_spdb(self) -> StrippedPartitionDatabase:
        """``r̂`` of the grown relation, straight from the group maps."""
        partitions = {
            attribute: StrippedPartition(
                [
                    members for members in groups.values()
                    if len(members) > 1
                ],
                self._num_rows,
            )
            for attribute, groups in enumerate(self._groups)
        }
        return StrippedPartitionDatabase(
            self._schema, partitions, self._num_rows
        )

    def _resolve_delta(self, couples: List[Tuple[int, int]]) -> Set[int]:
        """Agree-set masks of the delta couples, resolved in-process.

        Reuses the exact resolution functions of the cold pipeline, so
        the delta path inherits its determinism guarantees.  Only the
        pure-Python resolution reads stripped partitions.
        """
        if not couples:
            return set()
        if self._code_chunks is not None:
            # Columnar backend: the delta resolves against the grown code
            # matrix with the sweep's resolution (at most appended rows ×
            # |r| couples), same masks as the Python paths.
            import numpy as np

            from repro.columnar.agree import resolve_couples
            from repro.columnar.grouping import class_matrix

            pairs = np.asarray(couples, dtype=np.int64)
            return resolve_couples(class_matrix(self._codes()),
                                   pairs[:, 0], pairs[:, 1])
        spdb = self._current_spdb()
        if self.miner.agree_algorithm == "identifiers":
            return resolve_couples_with_identifiers(
                couples, spdb.equivalence_class_identifiers()
            )
        return resolve_couples_with_tables(
            couples, build_class_index_tables(spdb)
        )

    def __repr__(self) -> str:
        return (
            f"IncrementalMiner(width={self._width}, rows={self._num_rows}, "
            f"agree_sets={len(self._agree)})"
        )
