"""The end-to-end columnar run behind ``DepMiner(backend="columnar")``.

Stage for stage the same pipeline as the pure-Python path — and the
same *phase span names* (``strip``, ``agree_sets``, ``cmax``, ``lhs``,
``fd_output``, ``armstrong``), so ``phase_seconds`` keeps its
compatibility guarantee — with the row-at-a-time inner loops replaced
by the array primitives of this package:

- ``strip`` — :func:`~repro.columnar.encode.encode_relation` (child
  span ``columnar.encode``) + :func:`~repro.columnar.grouping.class_matrix`
  (``columnar.group``);
- ``agree_sets`` — :func:`~repro.columnar.agree.columnar_agree_sets`
  (child span ``columnar.sweep``): one streamed sweep over the distinct
  stripped partitions in batches of at most
  :data:`~repro.columnar.agree.BATCH_COUPLES` couples, in-process at
  every ``jobs`` value;
- ``cmax`` / ``lhs`` / ``fd_output`` — ``DepMiner._complete``, the
  steps 2–4 tail both backends share: on this backend its serial
  ``cmax`` is :func:`~repro.columnar.cmax.maximal_sets_packed` on the
  lane-packed masks (the ``jobs > 1`` path is the fused per-RHS
  ``parallel_cmax_lhs`` tail), and ``lhs`` runs the miner's
  ``transversal_algorithm`` as given — the pure kernel by default, the
  NumPy ``"vectorized"`` lanes only when named;
- ``armstrong`` — the vectorized constructions of
  :mod:`repro.columnar.armstrong`.

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
from repro.columnar.agree import columnar_agree_sets
from repro.columnar.encode import encode_relation
from repro.columnar.grouping import class_matrix, num_stripped_classes
from repro.core.relation import Relation
from repro.obs import MetricsRegistry, Tracer, get_logger

__all__ = ["run_columnar"]

logger = get_logger(__name__)


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
            return miner._complete(
                agree, schema, num_rows, relation, stats, tracer, metrics,
                miner._make_executor(tracer, metrics), mark,
                _keys=keys, _guard=guard,
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

    with tracer.span("agree_sets", phase=True, algorithm="columnar",
                     jobs=miner.jobs) as agree_span:
        sweep: Dict[str, int] = {}
        with tracer.span("columnar.sweep") as sweep_span:
            agree = columnar_agree_sets(ec, stats=sweep)
            if tracer.enabled:
                sweep_span.attrs.update(sweep)
        visited = sweep["couples"]
        stats["num_couples"] = visited
        metrics.inc("agree.couples_enumerated", visited)
        stats["num_agree_sets"] = len(agree)
        metrics.gauge("agree.sets", len(agree))
    logger.debug(
        "columnar agree sets: %d from %d couples over %d distinct "
        "partitions in %d batches (%.3fs)", len(agree), visited,
        sweep["distinct_partitions"], sweep["batches"], agree_span.duration,
    )

    if store is not None:
        from repro.cache.artifacts import pack_agree

        store.put(
            "agree", keys.agree, guard, pack_agree(agree, stats),
            metrics=metrics,
        )
    return miner._complete(
        agree, schema, num_rows, relation, stats, tracer, metrics,
        miner._make_executor(tracer, metrics), mark,
        _keys=keys, _guard=guard,
    )

