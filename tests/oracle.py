"""Reusable cross-miner conformance harness (not itself a test module).

The differential and conformance suites all ask the same question —
*does this miner configuration produce the canonical minimal cover?* —
over the same corpus of relations.  This module owns the shared pieces:

* the seeded random **sweep** (``SWEEP``) — workloads narrow enough for
  the brute-force oracle;
* the **corpus** of bundled and degenerate relations
  (:func:`corpus_relations`) — paper example, bundled datasets,
  constant / key-only / single-row / all-distinct shapes;
* the structured **wide relation** (:func:`wide_lane_boundary_relation`)
  whose agree-set masks straddle bit 63, pinning the uint64
  lane-overflow boundary of the packed kernels (70 attributes is
  deliberately past the single-lane limit of 63);
* :func:`canonical_cover` — the comparison key every assertion uses;
* :func:`assert_all_miners_agree` — the classic four-implementation
  differential check (DepMiner variants, TANE, FDEP vs brute force);
* :func:`backend_grid` / :func:`assert_backend_grid_agrees` — the
  backend ∈ {python, columnar} × jobs ∈ {1, 2} × cache on/off sweep.
  Cached cells run twice through the same store, so the warm-hit
  replay path is conformance-checked too.

``tests/test_differential_miners.py`` drives the brute-force-oracle
half; ``tests/test_backend_conformance.py`` drives the backend grid
(using the serial python backend as the oracle where brute force is
intractable, e.g. the 70-attribute wide relation).
"""

from __future__ import annotations

import random

import pytest

from repro.cache import ArtifactStore
from repro.columnar import numpy_available
from repro.core.attributes import Schema
from repro.core.depminer import DepMiner
from repro.core.relation import Relation
from repro.datagen.synthetic import generate_relation
from repro.datasets import (
    course_schedule_relation,
    paper_example_relation,
    supplier_parts_relation,
)
from repro.fd.bruteforce import bruteforce_minimal_fds

# (num_attributes, num_tuples, correlation) — kept narrow enough for the
# brute-force oracle and small enough that the whole sweep stays fast.
WORKLOADS = [
    (3, 12, None),
    (4, 20, None),
    (4, 30, 0.5),
    (5, 25, None),
    (5, 40, 0.3),
    (5, 15, 0.7),
    (6, 30, 0.3),
    (6, 20, None),
]
SEEDS = range(6)
SWEEP = [
    pytest.param(attrs, rows, corr, seed,
                 id=f"a{attrs}-r{rows}-c{corr}-s{seed}")
    for attrs, rows, corr in WORKLOADS
    for seed in SEEDS
]

#: Attributes in the wide lane-boundary relation — past the 63-bit
#: single-lane capacity of every uint64-packed code path.
WIDE_ATTRS = 70


def canonical_cover(fds):
    return sorted((fd.lhs.mask, fd.rhs_index) for fd in fds)


def python_oracle_cover(relation):
    """The serial pure-Python cover — the oracle when brute force can't.

    Brute-force subset enumeration is exponential in the schema width,
    so the wide lane-boundary relation uses the (independently
    brute-force-validated on narrow schemas) serial python backend as
    its reference instead.
    """
    result = DepMiner(backend="python", build_armstrong="none").run(relation)
    return canonical_cover(result.fds)


# -- corpus ------------------------------------------------------------------

def corpus_relations():
    """``(label, relation)`` pairs every conformance sweep must cover.

    All narrow enough for the brute-force oracle; the degenerate shapes
    pin the boundary conditions (∅ agree set, every couple agreeing,
    one tuple, no couples at all).
    """
    yield "paper-example", paper_example_relation()
    yield "course-schedule", course_schedule_relation()
    yield "supplier-parts", supplier_parts_relation()
    yield "constant", Relation.from_rows(
        Schema(["A", "B", "C"]), [(1, 1, 1)] * 5
    )
    yield "key-only", Relation.from_rows(
        Schema(["A", "B", "C"]), [(i, i % 2, i % 3) for i in range(9)]
    )
    yield "single-row", Relation.from_rows(
        Schema(["A", "B", "C"]), [(1, 2, 3)]
    )
    yield "all-distinct", Relation.from_rows(
        Schema(["A", "B", "C"]), [(i, -i, i * i) for i in range(7)]
    )


def wide_lane_boundary_relation(num_rows: int = 14, seed: int = 0):
    """A 70-attribute relation whose agree-set masks cross bit 63.

    A *fully random* wide relation is useless here — its minimal cover
    is combinatorially enormous (minimal transversals of dense
    hypergraphs over 70 vertices).  This one is structured so mining
    stays trivial while the masks still straddle the uint64 lane
    boundary: six low random columns, a band of constant columns
    spanning bits 6–63, a copy of column 0 at bit 64 and a random
    binary column at bit 65.  Every agreeing couple therefore produces
    a mask with bits set on both sides of bit 63.
    """
    rng = random.Random(seed)
    rows = []
    for _ in range(num_rows):
        low = [rng.randint(0, 2) for _ in range(6)]
        rows.append(tuple(low + [7] * 58 + [low[0], rng.randint(0, 1)]
                          + [7] * 4))
    schema = Schema([f"A{index:02d}" for index in range(WIDE_ATTRS)])
    return Relation.from_rows(schema, rows)


# -- DepMiner configuration grids --------------------------------------------

def depminer_variants(relation):
    """Every classic DepMiner configuration that must match the oracle."""
    yield "couples", DepMiner(agree_algorithm="couples",
                              build_armstrong="none")
    yield "couples-chunked", DepMiner(agree_algorithm="couples",
                                      max_couples=3,
                                      build_armstrong="none")
    yield "identifiers", DepMiner(agree_algorithm="identifiers",
                                  build_armstrong="none")
    yield "couples-jobs2", DepMiner(agree_algorithm="couples", jobs=2,
                                    build_armstrong="none")
    yield "identifiers-jobs2", DepMiner(agree_algorithm="identifiers",
                                        jobs=2, build_armstrong="none")


def backend_grid(backends=("python", "columnar"), jobs_values=(1, 2),
                 cache_values=(False, True)):
    """``(label, miner_factory)`` cells of the backend conformance grid.

    Columnar cells are emitted only when NumPy is importable — on the
    NumPy-free CI lane the grid quietly narrows to the python backend
    (``DepMiner`` itself would fall back anyway; skipping here keeps the
    cell labels honest).  Each factory builds a fresh miner; cached
    cells share one in-memory :class:`ArtifactStore` per factory so a
    second run through the same factory exercises the warm-hit replay.
    """
    for backend in backends:
        if backend == "columnar" and not numpy_available():
            continue
        for jobs in jobs_values:
            for cached in cache_values:
                label = (f"{backend}-jobs{jobs}-"
                         f"{'cache' if cached else 'nocache'}")
                store = ArtifactStore() if cached else None

                def factory(backend=backend, jobs=jobs, store=store):
                    return DepMiner(backend=backend, jobs=jobs,
                                    cache=store, build_armstrong="none")

                yield label, factory


# -- assertions --------------------------------------------------------------

def assert_all_miners_agree(relation):
    """The four-implementation differential check, brute force as oracle."""
    from repro.fdep import Fdep
    from repro.tane.armstrong_ext import tane_with_armstrong

    oracle = canonical_cover(bruteforce_minimal_fds(relation))
    assert canonical_cover(tane_with_armstrong(relation).fds) == oracle, (
        "TANE diverged from the brute-force oracle"
    )
    assert canonical_cover(Fdep().run(relation).fds) == oracle, (
        "FDEP diverged from the brute-force oracle"
    )
    for label, miner in depminer_variants(relation):
        cover = canonical_cover(miner.run(relation).fds)
        assert cover == oracle, (
            f"DepMiner[{label}] diverged from the brute-force oracle"
        )
    return oracle


def assert_backend_grid_agrees(relation, oracle=None, **grid_kwargs):
    """Every backend × jobs × cache cell reproduces the oracle cover.

    *oracle* defaults to the serial python-backend cover.  Cached cells
    run twice through the same store: the first run populates it (miss +
    put), the second must replay the identical cover from the hit.
    """
    if oracle is None:
        oracle = python_oracle_cover(relation)
    for label, factory in backend_grid(**grid_kwargs):
        miner = factory()
        cover = canonical_cover(miner.run(relation).fds)
        assert cover == oracle, (
            f"DepMiner[{label}] diverged from the oracle cover"
        )
        if miner.cache is not None:
            warm = canonical_cover(factory().run(relation).fds)
            assert warm == oracle, (
                f"DepMiner[{label}] warm cache replay diverged from "
                f"the oracle cover"
            )
    return oracle
