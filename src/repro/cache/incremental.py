"""Incremental append-only re-mining (the cache's delta path).

Appending rows to a relation only ever *adds* tuple couples: every new
couple contains at least one appended row, and the agree set of an old
couple never changes.  ``IncrementalMiner`` exploits this:

- the equivalence classes are kept **in place** as per-attribute
  value → rows group maps; appended rows join them, and only groups a
  new row touches change;
- the delta sweep enumerates **only the delta couples** (new × old plus
  new × new pairs that share at least one group), an O(new × total)
  enumeration instead of the O(total²)-bounded cold sweep, and records
  each couple's agree set as it goes: the attributes on which its two
  rows share a group (Lemma 2);
- the delta masks are merged with the previous ``ag(r)`` (``∅``
  membership is monotone under appends, and a never-visited delta pair
  signals it exactly as in the cold algorithms);
- steps 2–4 re-derive only the attributes the append moved, via
  :meth:`repro.core.depminer.DepMiner.derive_from_agree_sets`: by
  Lemma 3, an added agree set ``Y`` changes ``max(dep(r), A)`` only
  when ``A ∉ Y`` and no current maximal set of ``A`` covers ``Y``.
  Every other attribute's max/cmax/lhs families and, when none moved,
  the FDs carry over from the last successful derivation, which the
  miner keeps privately beside its ``ag(r)``.  The added masks are
  measured against the ``ag(r)`` that derivation came from, so an
  append whose tail raised leaves its masks to the next one.

Both backends take this one delta path; neither the backend nor the
agree algorithm changes how an append finds its couples.  The output
is identical to a cold ``DepMiner.run`` on the concatenated relation —
the differential/hypothesis tests assert agree sets, cmax families and
FD covers are equal for arbitrary append sequences, on both backends.
When the wrapped miner carries an
:class:`~repro.cache.store.ArtifactStore`, each append also publishes
the grown relation's ``ag(r)`` and cover under its content keys, so a
later cold run over the same data is a warm hit: it finds the cover
first.

Parallelism: an append runs in-process at every ``jobs`` value.  Its
delta is at most appended rows × |r| couples, and its tail searches
only the attributes it moved — both too little to repay a pool
dispatch.  Only the initial cold mine fans out when ``jobs > 1``.

Concurrency: appends are serialized on a per-instance mutex (the
long-lived service keeps one ``IncrementalMiner`` per session and feeds
it from worker threads); a re-entrant ``append`` on the same thread
raises :class:`~repro.errors.CacheError`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.depminer import DepMiner, DepMinerResult, DerivedCover
from repro.core.relation import Relation
from repro.errors import CacheError, ReproError
from repro.obs import NULL_METRICS, Tracer, get_logger

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
        # The in-place equivalence classes: one value → sorted row list
        # per attribute.  Under SQL null semantics ``None`` never joins a
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
        self._result = self.miner.run(source)
        self._agree: Set[int] = set(self._result.agree_sets)
        # Steps 2–4 of the last successful mine, over its own copy of
        # ag(r); appends re-derive from it, never from a handed-out
        # result a caller may have mutated.
        self._derived = DerivedCover.of(self._result)
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
        only the delta couples are swept and only the attributes whose
        maximal sets they move are re-derived.

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
                couple_masks = self._delta_masks(touched, n_old)
                delta_masks = set(couple_masks.values())
            # Every possible delta pair holds >= 1 new row; one that was
            # never visited shares no equivalence class, i.e. disagrees
            # on every attribute (the cold algorithms' ∅ test, restricted
            # to the delta).  ∅ membership is monotone under appends, so
            # the merge below can only ever add it.
            total_delta = n_new * n_old + n_new * (n_new - 1) // 2
            if len(couple_masks) < total_delta:
                delta_masks.add(0)
            metrics.inc("incremental.delta_couples", len(couple_masks))
            metrics.inc("incremental.rows_appended", n_new)
            logger.debug(
                "append of %d rows onto %d: %d delta couples "
                "(of %d possible) -> %d delta masks (%.3fs)",
                n_new, n_old, len(couple_masks), total_delta,
                len(delta_masks), sweep_span.duration,
            )

            self._agree |= delta_masks
            self._stats["num_couples"] = (
                self._stats.get("num_couples", 0) + len(couple_masks)
            )
            self._stats["num_agree_sets"] = len(self._agree)
            relation = self.relation()
            relation_key = self._fingerprint.key
        result = miner.derive_from_agree_sets(
            self._agree, self._derived, self._schema, self._num_rows,
            relation=relation, stats=self._stats,
            relation_key=relation_key,
        )
        self._derived = DerivedCover.of(result)
        self._result = result
        return result

    # -- internals -----------------------------------------------------------

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
        return touched

    def _delta_masks(self, touched: List[Set[Any]],
                     first_new: int) -> Dict[Tuple[int, int], int]:
        """The agree set of every delta couple, keyed by ``(i, j)``.

        Only groups a new row joined can produce a couple holding a new
        row; within such a group every (earlier member, new member)
        pair ORs in the group's attribute — O(new × group) per
        attribute, O(new × total) overall.  A couple's mask is then
        exactly the attributes on which its two rows share a group,
        i.e. share an equivalence class: its agree set (Lemma 2).  SQL
        nulls are never grouped, so this holds under both null
        semantics.  Each couple is one key, so ``len`` of the result is
        the distinct delta-couple count the ``∅`` test needs.
        """
        masks: Dict[Tuple[int, int], int] = {}
        for attribute, values in enumerate(touched):
            bit = 1 << attribute
            groups = self._groups[attribute]
            for value in values:
                members = groups[value]
                for position in range(bisect_left(members, first_new),
                                      len(members)):
                    fresh = members[position]
                    for earlier in members[:position]:
                        couple = (earlier, fresh)
                        masks[couple] = masks.get(couple, 0) | bit
        return masks

    def __repr__(self) -> str:
        return (
            f"IncrementalMiner(width={self._width}, rows={self._num_rows}, "
            f"agree_sets={len(self._agree)})"
        )
