"""The end-to-end columnar run behind ``DepMiner(backend="columnar")``.

Stage for stage the same pipeline as the pure-Python path — and the
same *phase span names* (``strip``, ``agree_sets``, ``cmax``, ``lhs``,
``fd_output``, ``armstrong``), so ``phase_seconds`` keeps its
compatibility guarantee — with the row-at-a-time inner loops replaced
by the array primitives of this package:

- ``strip`` — :func:`~repro.columnar.encode.encode_relation` (child
  span ``columnar.encode``) + :func:`~repro.columnar.grouping.class_matrix`
  (``columnar.group``);
- ``agree_sets`` — :func:`~repro.columnar.agree.candidate_couples`
  (``columnar.couples``) + :func:`~repro.columnar.agree.resolve_couples`
  (``columnar.resolve``); with ``jobs > 1`` the couple arrays are
  sliced into ranges and resolved by the sharded executor
  (:func:`repro.parallel.shards.parallel_columnar_couples`);
- ``cmax`` — :func:`~repro.columnar.cmax.maximal_sets_packed` on the
  lane-packed masks (serial path; the ``jobs > 1`` path reuses the
  fused per-RHS ``parallel_cmax_lhs`` tail of the Python backend);
- ``lhs`` — the existing transversal search; the default ``"kernel"``
  algorithm is resolved to the kernel's lane-packed ``"vectorized"``
  backend (explicit choices are honoured unchanged);
- ``fd_output`` / ``armstrong`` — shared with the Python path verbatim.

Caching mirrors ``DepMiner._run_cached``: cover bundle first, then
``ag(r)``, then a cold run; the ``backend`` participates in the agree
and cover stage keys (see :class:`repro.cache.fingerprint.PipelineKeys`)
so columnar artefacts are never confused with Python-path ones.  The
stripped-partition tier is skipped — the columnar run never
materialises partition objects.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.columnar import require_numpy
from repro.columnar.agree import candidate_couples, resolve_couples
from repro.columnar.cmax import maximal_sets_packed
from repro.columnar.encode import encode_relation
from repro.columnar.grouping import class_matrix, num_stripped_classes
from repro.core.lhs import fd_output, left_hand_sides
from repro.core.relation import Relation
from repro.obs import MetricsRegistry, Tracer, get_logger

__all__ = ["run_columnar", "resolved_transversal_algorithm"]

logger = get_logger(__name__)

#: Sentinel distinguishing "no executor created yet" from "serial run".
_UNSET = object()


def resolved_transversal_algorithm(miner) -> str:
    """The transversal algorithm the columnar backend actually runs.

    The default ``"kernel"`` choice becomes the kernel's lane-packed
    ``"vectorized"`` backend — the cmax stage already produces packed
    bitmask families, so they feed straight into the NumPy kernel.  Any
    explicitly chosen algorithm (``levelwise``, ``berge``, …) is
    honoured unchanged; every algorithm yields the identical cover.
    """
    if miner.transversal_algorithm == "kernel":
        return "vectorized"
    return miner.transversal_algorithm


def run_columnar(miner, relation, tracer: Tracer,
                 metrics: MetricsRegistry, mark: int):
    """Execute the full columnar pipeline for *miner* on *relation*.

    *relation* is a :class:`Relation` or a
    :class:`repro.columnar.ingest.CodedRelation`.  A coded relation
    skips the ``columnar.encode`` re-walk (its code matrix feeds the
    grouping stage directly when the null semantics match) and is
    fingerprinted from the codes, so a warm cover hit is served without
    ever materializing a ``Relation`` — the Armstrong step reads
    domains off the code matrix too.
    """
    require_numpy()
    coded = None if isinstance(relation, Relation) else relation
    schema = relation.schema
    num_rows = len(relation)
    stats: Dict[str, int] = {}
    keys = None
    guard: Optional[bytes] = None
    store = miner.cache

    if store is not None:
        from repro.cache.artifacts import unpack_agree, unpack_cover
        from repro.cache.codec import guard_digest
        from repro.cache.fingerprint import PipelineKeys, fingerprint_relation

        with tracer.span("cache.fingerprint"):
            if coded is not None:
                relation_key = coded.fingerprint_key(miner.nulls_equal)
            else:
                relation_key = fingerprint_relation(
                    relation, miner.nulls_equal
                )
            keys = PipelineKeys.for_miner(relation_key, miner)
            guard = guard_digest(schema.names, num_rows)
        with tracer.span("cache.lookup", stage="cover"):
            bundle = store.get("cover", keys.cover, guard, metrics=metrics)
        if bundle is not None:
            agree, max_sets, cmax, lhs_sets, fds, stats = unpack_cover(
                bundle, schema
            )
            metrics.inc("cache.full_hit")
            metrics.gauge("agree.sets", len(agree))
            metrics.gauge("fd.count", len(fds))
            logger.debug(
                "columnar cover cache hit for %s: %d FDs reused",
                keys.cover, len(fds),
            )
            return miner._finalize(
                agree, max_sets, cmax, lhs_sets, fds, schema, num_rows,
                relation, stats, tracer, metrics, mark,
            )
        with tracer.span("cache.lookup", stage="agree"):
            entry = store.get("agree", keys.agree, guard, metrics=metrics)
        if entry is not None:
            agree, stats = unpack_agree(entry)
            metrics.gauge("agree.sets", len(agree))
            return _complete(
                miner, agree, schema, num_rows, relation, stats, tracer,
                metrics, mark, keys, guard,
            )

    with tracer.span("strip", phase=True, backend="columnar") as strip_span:
        if coded is not None and coded.nulls_equal == miner.nulls_equal:
            # Ingest already factorized under these null semantics; the
            # code matrix is the encode stage's output, verbatim.
            codes = coded.codes
        else:
            if coded is not None:
                # Semantics mismatch (e.g. ingested nulls_equal=True,
                # mined with SQL nulls): re-encode from the values.
                relation = coded.to_relation()
            with tracer.span("columnar.encode"):
                codes = encode_relation(
                    relation, nulls_equal=miner.nulls_equal
                )
        with tracer.span("columnar.group"):
            ec = class_matrix(codes)
        stripped = num_stripped_classes(ec)
        metrics.gauge("partition.stripped_classes", stripped)
    logger.debug(
        "columnar strip: %d attributes over %d rows into %d classes "
        "(%.3fs)", len(schema), num_rows, stripped, strip_span.duration,
    )

    executor = miner._make_executor(tracer, metrics)
    with tracer.span("agree_sets", phase=True, algorithm="columnar",
                     jobs=miner.jobs) as agree_span:
        with tracer.span("columnar.couples"):
            left, right = candidate_couples(ec)
        visited = int(left.shape[0])
        stats["num_couples"] = visited
        with tracer.span("columnar.resolve"):
            if executor is not None:
                from repro.parallel.shards import parallel_columnar_couples

                agree = parallel_columnar_couples(
                    ec, left, right, executor, stats=stats
                )
            else:
                metrics.inc("agree.couples_enumerated", visited)
                agree = resolve_couples(ec, left, right)
        if visited < num_rows * (num_rows - 1) // 2:
            agree.add(0)
        stats["num_agree_sets"] = len(agree)
        metrics.gauge("agree.sets", len(agree))
    logger.debug(
        "columnar agree sets: %d from %d couples (%.3fs)",
        len(agree), visited, agree_span.duration,
    )

    if store is not None:
        from repro.cache.artifacts import pack_agree

        store.put(
            "agree", keys.agree, guard, pack_agree(agree, stats),
            metrics=metrics,
        )
    return _complete(
        miner, agree, schema, num_rows, relation, stats, tracer, metrics,
        mark, keys, guard, executor=executor,
    )


def _complete(miner, agree, schema, num_rows, relation, stats,
              tracer: Tracer, metrics: MetricsRegistry, mark: int,
              keys, guard, executor=_UNSET):
    """Steps 2–4 of the columnar run, plus the cover write-back."""
    if executor is _UNSET:
        executor = miner._make_executor(tracer, metrics)
    method = resolved_transversal_algorithm(miner)
    if executor is not None:
        from repro.parallel.shards import parallel_cmax_lhs

        with tracer.span("cmax", phase=True, jobs=miner.jobs):
            agree_list = sorted(agree)
        with tracer.span("lhs", phase=True, method=method, jobs=miner.jobs,
                         fused_cmax=True) as lhs_span:
            max_sets, cmax, lhs_sets = parallel_cmax_lhs(
                agree_list, schema, executor, method=method,
                max_size=miner.max_lhs_size,
            )
            metrics.gauge(
                "cmax.edges", sum(len(edges) for edges in cmax.values())
            )
    else:
        with tracer.span("cmax", phase=True, backend="columnar"):
            max_sets, cmax = maximal_sets_packed(agree, schema)
            metrics.gauge(
                "cmax.edges", sum(len(edges) for edges in cmax.values())
            )
        with tracer.span("lhs", phase=True, method=method) as lhs_span:
            lhs_sets = left_hand_sides(
                cmax, schema, method=method, max_size=miner.max_lhs_size,
                metrics=metrics, progress=miner.progress, tracer=tracer,
            )
    logger.debug(
        "columnar lhs families computed via %s (%.3fs)",
        method, lhs_span.duration,
    )

    with tracer.span("fd_output", phase=True):
        fds = fd_output(lhs_sets, schema)
        metrics.gauge("fd.count", len(fds))
    logger.info(
        "mined %d minimal FDs over %d attributes and %d rows "
        "(columnar backend)", len(fds), len(schema), num_rows,
    )

    if keys is not None and miner.cache is not None:
        from repro.cache.artifacts import pack_cover

        miner.cache.put(
            "cover", keys.cover, guard,
            pack_cover(agree, max_sets, cmax, lhs_sets, fds, stats),
            metrics=metrics,
        )
    return miner._finalize(
        agree, max_sets, cmax, lhs_sets, fds, schema, num_rows, relation,
        stats, tracer, metrics, mark,
    )
