"""The Dep-Miner pipeline (Algorithm 1 of the paper).

``DepMiner`` wires the five steps together, mirroring Figure 1:

1. ``AGREE_SET`` — agree sets from the stripped partition database
   (Algorithm 2 with the couples enumeration, or Algorithm 3 with the
   identifier sets — the paper's *Dep-Miner* vs *Dep-Miner 2* variants);
2. ``CMAX_SET`` — maximal sets per attribute and their complements;
3. ``LEFT_HAND_SIDE`` — minimal transversals, levelwise;
4. ``FD_OUTPUT`` — the minimal non-trivial FD cover;
5. ``ARMSTRONG_RELATION`` — the real-world Armstrong relation (plus the
   classical integer-valued one), built from the very same maximal sets,
   which is why the paper gets it "without additional execution time".

The result object exposes every intermediate artefact — agree sets,
maximal sets, complements, lhs families — both as raw bitmasks (for
programmatic use) and as schema-aware :class:`AttributeSet` views, plus
per-phase wall-clock timings consumed by the benchmark harness.

Observability: every phase runs inside a :class:`repro.obs.Tracer` span
(pass your own ``tracer=`` to collect them, or read ``result.trace`` /
``DepMiner.last_trace``), artefact cardinalities go to an optional
:class:`repro.obs.MetricsRegistry`, and the long inner loops report to
an optional progress callback.  ``phase_seconds`` is *derived from the
span durations* — the dict keys and value semantics are unchanged from
earlier releases (see ``docs/observability.md`` for the compatibility
guarantee) — and because spans close even when a phase raises, partial
timings survive error paths such as :class:`ArmstrongExistenceError`
(read them from ``DepMiner.last_trace``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.agree_sets import agree_sets, check_agree_options
from repro.core.armstrong import (
    classical_armstrong,
    real_world_armstrong,
    real_world_existence_deficits,
)
from repro.core.attributes import AttributeSet, Schema
from repro.core.lhs import fd_output, left_hand_sides
from repro.core.maximal_sets import (
    complement_maximal_sets,
    max_set_union,
    maximal_sets,
)
from repro.core.relation import Relation
from repro.errors import ArmstrongExistenceError, ReproError
from repro.fd.fd import FD
from repro.hypergraph.transversals import resolve_transversal
from repro.obs import (
    NULL_METRICS,
    MetricsRegistry,
    ProgressCallback,
    Tracer,
    get_logger,
)
from repro.parallel.executor import (
    PersistentPool,
    ShardedExecutor,
    resolve_jobs,
    resolve_shard_timeout,
    resolve_start_method,
)
from repro.partitions.database import StrippedPartitionDatabase

__all__ = ["DepMiner", "DepMinerResult", "discover_fds", "discover"]

logger = get_logger(__name__)


@dataclass
class DepMinerResult:
    """Everything Dep-Miner produces for one input relation."""

    schema: Schema
    num_rows: int
    agree_sets: Set[int]
    max_sets: Dict[int, List[int]]
    cmax_sets: Dict[int, List[int]]
    lhs_sets: Dict[int, List[int]]
    fds: List[FD]
    max_union: List[int]
    armstrong: Optional[Relation]
    classical_armstrong: Optional[Relation]
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    stats: Dict[str, int] = field(default_factory=dict)
    trace: Optional[Tracer] = None

    # -- schema-aware views -------------------------------------------------

    def agree_sets_view(self) -> List[AttributeSet]:
        """``ag(r)`` as :class:`AttributeSet` objects, sorted."""
        return [self.schema.from_mask(m) for m in sorted(self.agree_sets)]

    def max_sets_view(self) -> Dict[str, List[AttributeSet]]:
        """``max(dep(r), A)`` keyed by attribute name."""
        return {
            self.schema.name_of(a): [self.schema.from_mask(m) for m in masks]
            for a, masks in self.max_sets.items()
        }

    def cmax_sets_view(self) -> Dict[str, List[AttributeSet]]:
        """``cmax(dep(r), A)`` keyed by attribute name."""
        return {
            self.schema.name_of(a): [self.schema.from_mask(m) for m in masks]
            for a, masks in self.cmax_sets.items()
        }

    def lhs_view(self) -> Dict[str, List[AttributeSet]]:
        """``lhs(dep(r), A)`` keyed by attribute name."""
        return {
            self.schema.name_of(a): [self.schema.from_mask(m) for m in masks]
            for a, masks in self.lhs_sets.items()
        }

    @property
    def armstrong_size(self) -> Optional[int]:
        """Tuples of the real-world Armstrong relation (None if not built)."""
        return len(self.armstrong) if self.armstrong is not None else None

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def summary(self) -> str:
        """One-paragraph human-readable summary (used by the CLI)."""
        lines = [
            f"relation: {len(self.schema)} attributes, {self.num_rows} tuples",
            f"agree sets: {len(self.agree_sets)}",
            f"maximal sets (union): {len(self.max_union)}",
            f"minimal FDs: {len(self.fds)}",
        ]
        if self.armstrong is not None:
            lines.append(
                f"real-world Armstrong relation: {len(self.armstrong)} tuples"
            )
        lines.append(f"time: {self.total_seconds:.3f}s")
        return "\n".join(lines)


class DepMiner:
    """Configurable Dep-Miner runner.

    Parameters
    ----------
    agree_algorithm:
        ``"couples"`` (Algorithm 2 — the paper's *Dep-Miner*) or
        ``"identifiers"`` (Algorithm 3 — *Dep-Miner 2*).  The NumPy
        fast path is ``backend="columnar"``.
    max_couples:
        Memory threshold for the couples algorithm (chunked processing);
        ``None`` keeps every couple in memory.
    transversal_algorithm:
        ``"kernel"`` (the default on both backends: the reduction +
        incremental-coverage kernel of :mod:`repro.hypergraph.kernel`),
        ``"levelwise"`` (the paper's Algorithm 5 verbatim — pick this
        to reproduce the paper's exact search) or ``"berge"``
        (sequential baseline), all reached through
        :func:`~repro.hypergraph.transversals.minimal_transversals`.
        Every algorithm produces bit-for-bit the same FD cover; they
        differ only in speed.
    build_armstrong:
        Whether step 5 runs.  ``"real-world"`` (default) builds the
        value-preserving relation when Proposition 1 allows it and falls
        back to the classical construction otherwise; ``"classical"``
        builds only the integer-valued one; ``"none"`` skips the step;
        ``"strict"`` builds the real-world relation and *raises*
        :class:`ArmstrongExistenceError` when it does not exist.
    nulls_equal:
        ``True`` (default) groups ``None`` values together (partition
        semantics); ``False`` switches to SQL ``NULL <> NULL``.
    max_lhs_size:
        Optional cap on the lhs size for very wide schemas; the output
        is then every minimal FD with at most that many lhs attributes
        (sound but incomplete).  Kernel and levelwise algorithms
        only.
    cache:
        Optional :class:`repro.cache.ArtifactStore`.  ``run`` then
        fingerprints the relation (column-wise, row-order-insensitive)
        and memoizes two pipeline artefacts — ``ag(r)`` and the full
        cover bundle — under content-addressed stage keys, so re-mining
        the same relation (or any row permutation of it) skips straight
        to the cached artefacts.  The mined output is identical with or
        without a cache (the differential tests assert it); only ``run``
        consults the cache (``run_on_partitions`` has no relation to
        fingerprint).  See ``docs/caching.md``.
    jobs:
        Worker processes for the sharded execution layer
        (:mod:`repro.parallel`).  ``1`` (default) is today's serial
        path; ``None``/``0`` uses every core.  Any value produces
        bit-for-bit identical output — with ``jobs > 1`` the python
        backend's agree-set couples are resolved in chunks by a process
        pool (the columnar agree sweep stays in-process) and the
        ``CMAX_SET`` + transversal tail fans out per RHS attribute
        (fused into the ``lhs`` phase span; the ``cmax`` span then
        covers only parent-side shard preparation).  Pooled maps run
        on one lazily-built, reusable worker pool per miner — reused
        across ``run()`` calls, which is what makes repeated
        daemon-style requests cheap — with the heavy shared context
        published zero-copy through the shared-memory arena whenever
        :mod:`multiprocessing.shared_memory` is usable.
    shard_timeout:
        Optional per-shard timeout in seconds for ``jobs > 1``
        (:class:`repro.parallel.ShardTimeoutError` aborts the run).
    mp_context:
        Multiprocessing start method for the worker pool: ``"fork"``,
        ``"spawn"`` (or any method the platform offers).  ``None``
        (default) prefers fork where available.  An unavailable method
        raises :class:`repro.parallel.MpContextError` immediately.
    pool:
        An externally-owned :class:`repro.parallel.PersistentPool` to
        run on (the service shares one across sessions).  Worker count
        must match ``jobs``.  Without it the miner lazily builds and
        owns its own; :meth:`close` releases it.
    tracer:
        Optional :class:`repro.obs.Tracer` collecting the phase spans;
        when omitted each run uses a fresh private tracer, retrievable
        afterwards (even after an exception) as ``DepMiner.last_trace``.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` receiving artefact
        counters (couples enumerated, level sizes, FD counts, …).
    progress:
        Optional callback ``(stage, done, total) -> None | bool`` invoked
        from the long inner loops; returning ``False`` aborts the run
        with :class:`repro.obs.ProgressAborted`.
    backend:
        ``"python"`` (default) runs the classic row-at-a-time pipeline;
        ``"columnar"`` runs :mod:`repro.columnar` — integer-coded NumPy
        columns, lexsort grouping, batch agree-set intersection and
        lane-packed cmax derivation — with bit-for-bit the same cover
        (the oracle-conformance suite asserts it; see
        ``docs/columnar.md``).  The columnar backend resolves couples
        with its own vectorized agree step — one sweep over the distinct
        stripped partitions, in batches of at most
        :data:`repro.columnar.agree.BATCH_COUPLES` couples — so it
        accepts only ``agree_algorithm="couples"`` and no
        ``max_couples``; its transversal search is the Python backend's.
        When NumPy is missing the miner logs a warning and falls back to
        ``"python"``; :func:`repro.columnar.require_numpy` is the
        strict, typed (:class:`repro.columnar.ColumnarUnavailableError`)
        probe.

    Every option is checked here, after the NumPy fallback has settled
    the backend: a bad value, or one the backend cannot honour, raises
    :class:`ReproError` at construction rather than inside ``run()``.
    """

    #: The default transversal algorithm (the layered kernel; see
    #: :mod:`repro.hypergraph.kernel` and ``docs/algorithms.md``).
    DEFAULT_TRANSVERSAL = "kernel"

    def __init__(self, agree_algorithm: str = "couples",
                 max_couples: Optional[int] = None,
                 transversal_algorithm: str = DEFAULT_TRANSVERSAL,
                 build_armstrong: str = "real-world",
                 nulls_equal: bool = True,
                 max_lhs_size: Optional[int] = None,
                 cache=None,
                 jobs: int = 1,
                 shard_timeout: Optional[float] = None,
                 mp_context: Optional[str] = None,
                 pool: Optional[PersistentPool] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 progress: Optional[ProgressCallback] = None,
                 backend: str = "python"):
        if build_armstrong not in ("real-world", "classical", "none", "strict"):
            raise ReproError(
                f"build_armstrong must be 'real-world', 'classical', "
                f"'none' or 'strict'; got {build_armstrong!r}"
            )
        if backend not in ("python", "columnar"):
            raise ReproError(
                f"backend must be 'python' or 'columnar'; got {backend!r}"
            )
        if backend == "columnar":
            from repro.columnar import numpy_available

            if not numpy_available():
                logger.warning(
                    "backend='columnar' needs NumPy; falling back to the "
                    "pure-Python backend (install the repro[fast] extra)"
                )
                backend = "python"
        check_agree_options(agree_algorithm, max_couples)
        if backend == "columnar" and (agree_algorithm != "couples"
                                      or max_couples is not None):
            # Its own agree sweep, whose batches are bounded by
            # repro.columnar.agree.BATCH_COUPLES; the python backend
            # honours both options.
            raise ReproError(
                f"the columnar backend accepts only agree_algorithm="
                f"'couples' and max_couples=None; got "
                f"agree_algorithm={agree_algorithm!r}, "
                f"max_couples={max_couples!r} (use backend='python')"
            )
        self.backend = backend
        self.agree_algorithm = agree_algorithm
        self.max_couples = max_couples
        self.transversal_algorithm = resolve_transversal(
            transversal_algorithm, max_lhs_size
        )
        self.build_armstrong = build_armstrong
        self.nulls_equal = nulls_equal
        # Optional lhs-size cap for very wide schemas: the transversal
        # search stops at that level, so the output is every minimal FD
        # with |lhs| <= max_lhs_size (sound but incomplete).
        self.max_lhs_size = max_lhs_size
        self.cache = cache
        self.jobs = resolve_jobs(jobs)
        self.shard_timeout = resolve_shard_timeout(shard_timeout)
        # Validate eagerly: a bad --mp-context should fail at
        # construction, not in the middle of a mining run.
        self.mp_context = resolve_start_method(mp_context)
        if pool is not None and pool.jobs != self.jobs:
            raise ReproError(
                f"external pool has {pool.jobs} worker(s) but the miner "
                f"wants jobs={self.jobs}"
            )
        self._pool = pool
        self._owns_pool = False
        self.tracer = tracer
        self.metrics = metrics
        self.progress = progress
        #: The tracer of the most recent ``run``/``run_on_partitions``
        #: call.  Holds the partial span tree when a phase raised.
        self.last_trace: Optional[Tracer] = None

    def _begin_trace(self) -> Tracer:
        tracer = self.tracer if self.tracer is not None else Tracer()
        self.last_trace = tracer
        return tracer

    def _make_executor(self, tracer: Tracer,
                       metrics: MetricsRegistry) -> Optional[ShardedExecutor]:
        """The run's sharded executor (``None`` on the serial path).

        One executor per run, shared by the agree-set chunks and the
        per-attribute lhs fan-out; ``jobs=1`` keeps every call serial.
        Every executor runs on the *miner's* one
        :class:`~repro.parallel.PersistentPool` (built lazily on the
        first pooled map, injected into incremental-append resolution
        too), so repeated ``run()`` calls stop paying pool spin-up.
        """
        if self.jobs <= 1:
            return None
        if self._pool is None or self._pool.closed:
            self._pool = PersistentPool(self.jobs, mp_context=self.mp_context)
            self._owns_pool = True
        return ShardedExecutor(
            jobs=self.jobs, shard_timeout=self.shard_timeout,
            mp_context=self.mp_context, pool=self._pool,
            tracer=tracer, metrics=metrics, progress=self.progress,
        )

    @property
    def pool(self) -> Optional[PersistentPool]:
        """The miner's persistent worker pool (``None`` until a pooled
        map builds the lazily-owned one, or the injected one)."""
        return self._pool

    def close(self) -> None:
        """Release the owned worker pool (no-op for injected pools and
        serial miners; safe to call repeatedly)."""
        if self._owns_pool and self._pool is not None:
            self._pool.close()

    def run(self, relation) -> DepMinerResult:
        """Execute the full pipeline on *relation*.

        *relation* is a :class:`Relation` or — from the streaming ingest
        path — a :class:`repro.columnar.ingest.CodedRelation`.  A coded
        relation feeds the columnar backend directly (no ``Relation`` is
        materialized unless the Armstrong step needs domain values); the
        pure-Python backend materializes it first.

        The one runner of both backends.  With a :attr:`cache` it
        fingerprints the relation and reuses the deepest cached
        artefact: the cover bundle (only the Armstrong step re-runs),
        then ``ag(r)`` (skips the strip and the agree sweep); whatever
        was recomputed is written back (see ``docs/caching.md``).
        Otherwise the backend's agree step runs — the stripped
        partitions and the couple sweep here, the phases of
        :mod:`repro.columnar.pipeline` on the columnar backend — and
        both hand ``ag(r)`` to the shared steps 2–5.  The output is
        identical with or without a cache.
        """
        tracer = self._begin_trace()
        metrics = self.metrics if self.metrics is not None else NULL_METRICS
        mark = tracer.mark()

        attrs = {"width": len(relation.schema), "rows": len(relation),
                 "backend": self.backend}
        if self.cache is not None:
            attrs["cached"] = True
        with tracer.span("depminer.run", **attrs):
            if self.backend == "python" and \
                    not isinstance(relation, Relation):
                relation = relation.to_relation()
            schema = relation.schema
            num_rows = len(relation)
            stats: Dict[str, int] = {}
            keys = guard = None
            if self.cache is not None:
                from repro.cache.artifacts import unpack_agree, unpack_cover
                from repro.cache.fingerprint import fingerprint_relation

                with tracer.span("cache.fingerprint"):
                    relation_key = (
                        fingerprint_relation(relation, self.nulls_equal)
                        if isinstance(relation, Relation)
                        # a columnar CodedRelation: from its codes
                        else relation.fingerprint_key(self.nulls_equal)
                    )
                    keys, guard = self.stage_keys(
                        relation_key, schema, num_rows
                    )
                with tracer.span("cache.lookup", stage="cover"):
                    bundle = self.cache.get(
                        "cover", keys.cover, guard, metrics=metrics
                    )
                if bundle is not None:
                    agree, max_sets, cmax, lhs_sets, fds, stats = \
                        unpack_cover(bundle, schema)
                    metrics.inc("cache.full_hit")
                    metrics.gauge("agree.sets", len(agree))
                    metrics.gauge("fd.count", len(fds))
                    logger.debug(
                        "cover cache hit for %s: %d FDs reused",
                        keys.cover, len(fds),
                    )
                    return self._finalize(
                        agree, max_sets, cmax, lhs_sets, fds, schema,
                        num_rows, relation, stats, tracer, metrics, mark,
                    )
                with tracer.span("cache.lookup", stage="agree"):
                    entry = self.cache.get(
                        "agree", keys.agree, guard, metrics=metrics
                    )
                if entry is not None:
                    agree, stats = unpack_agree(entry)
                    metrics.gauge("agree.sets", len(agree))
                    return self._complete(
                        agree, schema, num_rows, relation, stats, tracer,
                        metrics, self._make_executor(tracer, metrics),
                        mark, keys, guard,
                    )

            executor = self._make_executor(tracer, metrics)
            if self.backend == "columnar":
                from repro.columnar.pipeline import columnar_agree_phases

                agree = columnar_agree_phases(
                    relation, self.nulls_equal, self.jobs, tracer, metrics,
                    stats,
                )
            else:
                spdb = self._strip(relation, tracer, metrics)
                agree = self._agree_phase(
                    spdb, tracer, metrics, stats, executor
                )
            if keys is not None:
                from repro.cache.artifacts import pack_agree

                self.cache.put(
                    "agree", keys.agree, guard, pack_agree(agree, stats),
                    metrics=metrics,
                )
            return self._complete(
                agree, schema, num_rows, relation, stats, tracer, metrics,
                executor, mark, keys, guard,
            )

    def stage_keys(self, relation_key: str, schema: Schema, num_rows: int):
        """The cache's ``(PipelineKeys, guard)`` pair for a relation.

        *relation_key* is the relation's content fingerprint; the stage
        keys fold in this miner's options and the guard the schema and
        row count (see ``docs/caching.md``).
        """
        from repro.cache.codec import guard_digest
        from repro.cache.fingerprint import PipelineKeys

        return (PipelineKeys.for_miner(relation_key, self),
                guard_digest(schema.names, num_rows))

    def _strip(self, relation: Relation, tracer: Tracer,
               metrics: MetricsRegistry) -> StrippedPartitionDatabase:
        """The python backend's strip phase: ``r̂`` of *relation*."""
        with tracer.span("strip", phase=True) as strip_span:
            spdb = StrippedPartitionDatabase.from_relation(
                relation, nulls_equal=self.nulls_equal, metrics=metrics
            )
        logger.debug(
            "stripped %d attributes over %d rows into %d classes (%.3fs)",
            len(relation.schema), len(relation), spdb.total_classes(),
            strip_span.duration,
        )
        return spdb

    def run_on_partitions(self, spdb: StrippedPartitionDatabase,
                          relation: Optional[Relation] = None) -> DepMinerResult:
        """Execute steps 1–5 on a pre-built stripped partition database.

        *relation* is only needed for the real-world Armstrong step (its
        values come from the initial relation): without it
        ``"real-world"`` degrades to the classical construction and
        ``"strict"`` raises :class:`ReproError`.  The cache is never
        consulted (there is no relation to fingerprint).
        """
        tracer = self._begin_trace()
        mark = tracer.mark()
        metrics = self.metrics if self.metrics is not None else NULL_METRICS
        stats: Dict[str, int] = {}
        executor = self._make_executor(tracer, metrics)
        agree = self._agree_phase(spdb, tracer, metrics, stats, executor)
        return self._complete(
            agree, spdb.schema, spdb.num_rows, relation, stats, tracer,
            metrics, executor, mark,
        )

    def derive_from_agree_sets(self, agree, schema: Schema, num_rows: int,
                               relation: Optional[Relation] = None,
                               stats: Optional[Dict[str, int]] = None,
                               relation_key: Optional[str] = None) -> DepMinerResult:
        """Steps 2–5 from a precomputed ``ag(r)`` (bitmask iterable).

        The entry point of :class:`repro.cache.IncrementalMiner`, which
        merges cached base agree sets with the delta of an append and
        re-derives the (comparatively cheap) cmax/transversal tail.
        When *relation_key* (the relation's content fingerprint) is
        given and a :attr:`cache` is configured, the supplied ``ag(r)``
        and the derived cover are stored under that relation's stage
        keys, so a later cold ``run`` on the same data is a warm hit.
        """
        tracer = self._begin_trace()
        metrics = self.metrics if self.metrics is not None else NULL_METRICS
        mark = tracer.mark()
        agree = set(agree)
        stats = dict(stats) if stats else {}
        stats["num_agree_sets"] = len(agree)
        with tracer.span("depminer.derive", width=len(schema),
                         rows=num_rows):
            metrics.gauge("agree.sets", len(agree))
            executor = self._make_executor(tracer, metrics)
            keys = guard = None
            if self.cache is not None and relation_key is not None:
                from repro.cache.artifacts import pack_agree

                keys, guard = self.stage_keys(relation_key, schema, num_rows)
                self.cache.put(
                    "agree", keys.agree, guard, pack_agree(agree, stats),
                    metrics=metrics,
                )
            return self._complete(
                agree, schema, num_rows, relation, stats, tracer, metrics,
                executor, mark, keys, guard,
            )

    def _agree_phase(self, spdb: StrippedPartitionDatabase, tracer: Tracer,
                     metrics: MetricsRegistry, stats: Dict[str, int],
                     executor: Optional[ShardedExecutor]):
        """Step 1: ``ag(r)`` from the stripped partitions (serial/sharded)."""
        metrics.gauge("partition.stripped_classes", spdb.total_classes())
        with tracer.span("agree_sets", phase=True,
                         algorithm=self.agree_algorithm,
                         jobs=self.jobs) as agree_span:
            mc = spdb.maximal_classes()
            stats["num_maximal_classes"] = len(mc)
            stats["largest_maximal_class"] = max(
                (len(cls) for cls in mc), default=0
            )
            metrics.gauge("agree.maximal_classes", len(mc))
            if executor is not None:
                from repro.parallel.shards import parallel_agree_sets

                agree = parallel_agree_sets(
                    spdb, executor, algorithm=self.agree_algorithm,
                    max_couples=self.max_couples, mc=mc, stats=stats,
                )
            else:
                agree = agree_sets(
                    spdb,
                    algorithm=self.agree_algorithm,
                    max_couples=self.max_couples,
                    mc=mc,
                    stats=stats,
                    metrics=metrics,
                    progress=self.progress,
                )
            stats["num_agree_sets"] = len(agree)
            metrics.gauge("agree.sets", len(agree))
        logger.debug(
            "agree sets: %d from %d couples across %d maximal classes "
            "(%s, %.3fs)", len(agree), stats.get("num_couples", 0),
            stats["num_maximal_classes"], self.agree_algorithm,
            agree_span.duration,
        )
        return agree

    def _complete(self, agree, schema: Schema, num_rows: int,
                  relation: Optional[Relation], stats: Dict[str, int],
                  tracer: Tracer, metrics: MetricsRegistry,
                  executor: Optional[ShardedExecutor], mark: int,
                  keys=None, guard: Optional[bytes] = None) -> DepMinerResult:
        """Steps 2–4 (cmax, lhs, FD output), the cover write-back under
        the stage *keys* of a cached run, then step 5.

        Shared by both backends; the columnar one derives the serial
        cmax from lane-packed masks (:mod:`repro.columnar.cmax`).
        """
        if executor is not None:
            # Fused parallel tail: each worker derives max(dep(r), A),
            # complements it and searches the transversals for its own
            # RHS attribute.  The cmax phase span then covers only the
            # parent-side shard preparation; the per-attribute work is
            # accounted inside the lhs phase (see docs/parallel.md).
            from repro.parallel.shards import parallel_cmax_lhs

            with tracer.span("cmax", phase=True, jobs=self.jobs):
                agree_list = sorted(agree)
            with tracer.span("lhs", phase=True,
                             method=self.transversal_algorithm,
                             jobs=self.jobs, fused_cmax=True) as lhs_span:
                max_sets, cmax, lhs_sets = parallel_cmax_lhs(
                    agree_list, schema, executor,
                    method=self.transversal_algorithm,
                    max_size=self.max_lhs_size,
                )
                metrics.gauge(
                    "cmax.edges", sum(len(edges) for edges in cmax.values())
                )
        else:
            if self.backend == "columnar":
                from repro.columnar.cmax import maximal_sets_packed

                with tracer.span("cmax", phase=True, backend="columnar"):
                    max_sets, cmax = maximal_sets_packed(agree, schema)
            else:
                with tracer.span("cmax", phase=True):
                    with tracer.span("maximal_sets"):
                        max_sets = maximal_sets(agree, schema)
                    with tracer.span("complements"):
                        cmax = complement_maximal_sets(max_sets, schema)
            metrics.gauge(
                "cmax.edges", sum(len(edges) for edges in cmax.values())
            )

            with tracer.span("lhs", phase=True,
                             method=self.transversal_algorithm) as lhs_span:
                lhs_sets = left_hand_sides(
                    cmax, schema, method=self.transversal_algorithm,
                    max_size=self.max_lhs_size,
                    metrics=metrics, progress=self.progress,
                    tracer=tracer,
                )
        logger.debug(
            "lhs families computed via %s (%.3fs)",
            self.transversal_algorithm, lhs_span.duration,
        )

        with tracer.span("fd_output", phase=True):
            fds = fd_output(lhs_sets, schema)
            metrics.gauge("fd.count", len(fds))
        logger.info(
            "mined %d minimal FDs over %d attributes and %d rows "
            "(%.3fs total so far)", len(fds), len(schema),
            num_rows, sum(tracer.phase_seconds(mark).values()),
        )

        if keys is not None:
            from repro.cache.artifacts import pack_cover

            self.cache.put(
                "cover", keys.cover, guard,
                pack_cover(agree, max_sets, cmax, lhs_sets, fds, stats),
                metrics=metrics,
            )
        return self._finalize(
            agree, max_sets, cmax, lhs_sets, fds, schema, num_rows,
            relation, stats, tracer, metrics, mark,
        )

    def _finalize(self, agree, max_sets, cmax, lhs_sets, fds,
                  schema: Schema, num_rows: int,
                  relation: Optional[Relation], stats: Dict[str, int],
                  tracer: Tracer, metrics: MetricsRegistry,
                  mark: int) -> DepMinerResult:
        """Step 5 (Armstrong) and result assembly — runs even on a full
        cover hit, since Armstrong tuples draw values from *relation*."""
        union = max_set_union(max_sets)
        armstrong = None
        classical = None
        mode = self.build_armstrong
        with tracer.span("armstrong", phase=True, mode=mode):
            if mode != "none":
                armstrong, classical = self.armstrong_relations(
                    schema, union, relation, mode, tracer
                )
                if armstrong is not None:
                    metrics.gauge("armstrong.tuples", len(armstrong))

        stats["num_fds"] = len(fds)
        stats["num_maximal_sets"] = len(union)
        return DepMinerResult(
            schema=schema,
            num_rows=num_rows,
            agree_sets=agree,
            max_sets=max_sets,
            cmax_sets=cmax,
            lhs_sets=lhs_sets,
            fds=fds,
            max_union=union,
            armstrong=armstrong,
            classical_armstrong=classical,
            phase_seconds=tracer.phase_seconds(mark),
            stats=stats,
            trace=tracer,
        )

    def armstrong_relations(self, schema: Schema, max_union: List[int],
                            relation, mode: str, tracer: Tracer):
        """Step 5: ``(real-world relation or None, classical relation)``.

        The one place step 5 is decided, shared by :meth:`run` and the
        service's Armstrong endpoint.  *mode* is ``"real-world"`` (build
        the value-preserving relation when Proposition 1 allows it),
        ``"strict"`` (build it or raise
        :class:`ArmstrongExistenceError`) or ``"classical"`` (the
        integer-valued relation only, which every mode builds).
        *relation* — a :class:`Relation` or a columnar
        :class:`repro.columnar.ingest.CodedRelation` — supplies the
        values; without it ``"real-world"`` gives no real-world relation
        and ``"strict"`` raises :class:`ReproError`.  Each construction
        runs in an ``armstrong.build`` span of *tracer*.

        The columnar backend runs :mod:`repro.columnar.armstrong`,
        vectorized and bit-identical to the row-wise constructions; it
        reads domains off a coded relation without materializing it.
        """
        if mode not in ("real-world", "strict", "classical"):
            raise ReproError(
                f"Armstrong mode must be 'real-world', 'strict' or "
                f"'classical'; got {mode!r}"
            )
        if self.backend == "columnar":
            from repro.columnar.armstrong import (
                classical_armstrong_columnar as build_classical,
                existence_deficits as deficits_of,
                real_world_armstrong_columnar as build_real_world,
            )
        else:
            build_classical, deficits_of, build_real_world = (
                classical_armstrong, real_world_existence_deficits,
                real_world_armstrong,
            )
        with tracer.span("armstrong.build", construction="classical"):
            classical = build_classical(schema, max_union)
        if mode == "classical":
            return None, classical
        if relation is None:
            if mode == "strict":
                raise ReproError(
                    "strict real-world Armstrong generation needs the "
                    "initial relation, not just its partitions"
                )
            return None, classical
        if mode == "real-world" and deficits_of(relation, max_union):
            return None, classical
        with tracer.span("armstrong.build", construction="real-world"):
            return build_real_world(relation, max_union), classical


def discover(relation: Relation, **options) -> DepMinerResult:
    """One-call Dep-Miner: ``discover(r)`` runs the full pipeline.

    Keyword options are forwarded to :class:`DepMiner`.
    """
    return DepMiner(**options).run(relation)


def discover_fds(relation: Relation, **options) -> List[FD]:
    """Convenience wrapper returning only the minimal non-trivial FDs."""
    options.setdefault("build_armstrong", "none")
    return DepMiner(**options).run(relation).fds
