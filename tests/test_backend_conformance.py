"""Backend conformance: python and columnar covers are bit-for-bit equal.

The grid sweep over the brute-force-validated corpus lives in
``tests/test_differential_miners.py``; this module covers the cases
brute force cannot reach and the cross-cutting concerns of the
columnar backend:

* the structured 70-attribute **lane-boundary relation** — agree-set
  masks straddle bit 63, so every uint64-packed stage (columnar agree
  resolution, packed cmax, the lane-packed transversal kernel) must
  reassemble multi-lane masks correctly.  The serial python backend is
  the oracle (itself brute-force-validated on narrow schemas);
* the full backend ∈ {python, columnar} × jobs ∈ {1, 2} × cache on/off
  grid on that wide relation, including warm cache replays;
* trace conformance — the columnar pipeline emits the same phase spans
  (strip, agree_sets, cmax, lhs, fd_output) as the python one, tagged
  ``backend="columnar"``, so ``phase_seconds`` consumers never notice
  the backend swap;
* cache-key separation — artifacts written by one backend are keyed by
  that backend, so switching backends over the same store re-mines
  rather than replaying the other backend's artifacts (and still
  produces the identical cover).
"""

from __future__ import annotations

import pytest

from repro.cache import ArtifactStore
from repro.columnar import numpy_available
from repro.core.depminer import DepMiner
from repro.obs import Tracer
from tests.oracle import (
    WIDE_ATTRS,
    assert_backend_grid_agrees,
    canonical_cover,
    python_oracle_cover,
    wide_lane_boundary_relation,
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="columnar backend needs NumPy"
)

PHASES = ("strip", "agree_sets", "cmax", "lhs", "fd_output")


class TestWideLaneBoundary:
    """The >63-attribute relation every packed kernel must survive."""

    def test_masks_straddle_the_lane_boundary(self):
        relation = wide_lane_boundary_relation()
        assert len(relation.schema) == WIDE_ATTRS > 63
        result = DepMiner(backend="python", build_armstrong="none").run(
            relation
        )
        assert any(mask >> 63 for mask in result.agree_sets), (
            "the wide fixture must produce agree sets crossing bit 63 "
            "or it does not pin the lane boundary at all"
        )
        assert result.fds, "a non-trivial cover is expected"

    def test_backend_grid_agrees_on_wide_relation(self):
        relation = wide_lane_boundary_relation()
        assert_backend_grid_agrees(relation)

    @needs_numpy
    def test_columnar_agree_sets_match_python(self):
        relation = wide_lane_boundary_relation()
        python = DepMiner(backend="python", build_armstrong="none").run(
            relation
        )
        columnar = DepMiner(backend="columnar",
                            build_armstrong="none").run(relation)
        assert columnar.agree_sets == python.agree_sets
        assert columnar.cmax_sets == python.cmax_sets
        assert columnar.lhs_sets == python.lhs_sets


@needs_numpy
class TestColumnarTraceConformance:
    def test_columnar_emits_the_same_phase_spans(self):
        relation = wide_lane_boundary_relation()
        tracer = Tracer()
        DepMiner(backend="columnar", build_armstrong="none",
                 tracer=tracer).run(relation)
        spans = {span.name: span for span in tracer.spans}
        for phase in PHASES:
            assert phase in spans, f"columnar run missing {phase} span"
            assert spans[phase].attrs.get("phase") is True
        assert spans["strip"].attrs.get("backend") == "columnar"
        assert spans["agree_sets"].attrs.get("algorithm") == "columnar"

    def test_phase_seconds_cover_the_pipeline(self):
        relation = wide_lane_boundary_relation()
        result = DepMiner(backend="columnar",
                          build_armstrong="none").run(relation)
        for phase in PHASES:
            assert phase in result.phase_seconds


@needs_numpy
class TestBackendCacheSeparation:
    def test_backends_do_not_share_artifacts(self):
        relation = wide_lane_boundary_relation()
        oracle = python_oracle_cover(relation)
        store = ArtifactStore()
        first = DepMiner(backend="columnar", cache=store,
                         build_armstrong="none").run(relation)
        assert canonical_cover(first.fds) == oracle
        misses_after_columnar = store.stats["cache.miss"]
        # The python backend over the same store must re-mine (its keys
        # differ), not replay columnar-keyed artifacts …
        second = DepMiner(backend="python", cache=store,
                          build_armstrong="none").run(relation)
        assert canonical_cover(second.fds) == oracle
        assert store.stats["cache.miss"] > misses_after_columnar
        # … while a warm columnar rerun replays from the store.
        hits_before = store.stats.get("cache.memory_hit", 0)
        third = DepMiner(backend="columnar", cache=store,
                         build_armstrong="none").run(relation)
        assert canonical_cover(third.fds) == oracle
        assert store.stats["cache.memory_hit"] > hits_before
