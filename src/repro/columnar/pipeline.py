"""The columnar backend's agree step behind ``DepMiner(backend="columnar")``.

``DepMiner.run`` is the one runner of both backends: it fingerprints
the relation, tries the cache's cover and agree tiers, and hands
``ag(r)`` to the steps 2–5 tail both backends share.  This module
supplies only the columnar backend's step 1, as two phases under the
same *phase span names* as the pure-Python path (so ``phase_seconds``
keeps its compatibility guarantee), with the row-at-a-time inner loops
replaced by the array primitives of this package:

- ``strip`` — :func:`~repro.columnar.encode.encode_relation` (child
  span ``columnar.encode``) + :func:`~repro.columnar.grouping.class_matrix`
  (``columnar.group``);
- ``agree_sets`` — :func:`~repro.columnar.agree.columnar_agree_sets`
  (child span ``columnar.sweep``): one streamed sweep over the distinct
  stripped partitions in batches of at most
  :data:`~repro.columnar.agree.BATCH_COUPLES` couples, in-process at
  every ``jobs`` value.

The columnar run never materializes partition objects.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.columnar import require_numpy
from repro.columnar.agree import columnar_agree_sets
from repro.columnar.encode import encode_relation
from repro.columnar.grouping import class_matrix, num_stripped_classes
from repro.core.relation import Relation
from repro.obs import MetricsRegistry, Tracer, get_logger

__all__ = ["columnar_agree_phases"]

logger = get_logger(__name__)


def columnar_agree_phases(relation, nulls_equal: bool, jobs: int,
                          tracer: Tracer, metrics: MetricsRegistry,
                          stats: Dict[str, int]) -> Set[int]:
    """``ag(r)`` of *relation*: the columnar ``strip`` and ``agree_sets``
    phases.

    *relation* is a :class:`Relation` or a
    :class:`repro.columnar.ingest.CodedRelation`; a coded relation
    ingested under *nulls_equal* skips the ``columnar.encode`` re-walk
    (its code matrix feeds the grouping stage directly).  *jobs* is
    only recorded on the ``agree_sets`` span: the sweep runs in-process
    at every value.  The couple and agree-set counts go into *stats*.
    """
    require_numpy()
    coded = None if isinstance(relation, Relation) else relation
    with tracer.span("strip", phase=True, backend="columnar") as strip_span:
        if coded is not None and coded.nulls_equal == nulls_equal:
            # Ingest already factorized under these null semantics; the
            # code matrix is the encode stage's output, verbatim.
            codes = coded.codes
        else:
            if coded is not None:
                # Semantics mismatch (e.g. ingested nulls_equal=True,
                # mined with SQL nulls): re-encode from the values.
                relation = coded.to_relation()
            with tracer.span("columnar.encode"):
                codes = encode_relation(relation, nulls_equal=nulls_equal)
        with tracer.span("columnar.group"):
            ec = class_matrix(codes)
        stripped = num_stripped_classes(ec)
        metrics.gauge("partition.stripped_classes", stripped)
    logger.debug(
        "columnar strip: %d attributes over %d rows into %d classes "
        "(%.3fs)", len(relation.schema), len(relation), stripped,
        strip_span.duration,
    )

    with tracer.span("agree_sets", phase=True, algorithm="columnar",
                     jobs=jobs) as agree_span:
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
    return agree
