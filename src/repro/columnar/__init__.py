"""``repro.columnar`` — the integer-coded NumPy mining backend.

The pure-Python pipeline walks tuples one at a time; this package runs
the same Dep-Miner stages column-at-a-time on integer-coded arrays:

- :mod:`repro.columnar.encode` — factorize every column once at ingest
  into dense ``int64`` codes (``encode_column``/``encode_relation``);
- :mod:`repro.columnar.grouping` — stripped partitions as
  group-index/first-occurrence arrays via stable lexsort grouping; the
  paper's ``ec(t)`` tables become one tuples×attributes class-id matrix;
- :mod:`repro.columnar.agree` — one streamed sweep over the distinct
  stripped partitions: within-class couples enumerated once per
  partition in bounded batches (``BATCH_COUPLES``), each kept only from
  its lowest agreeing partition, and resolved by vectorized batch
  intersection of the per-tuple class-identifier arrays;
- :mod:`repro.columnar.cmax` — ``max``/``cmax`` derivation on
  lane-packed ``uint64`` bitmasks, feeding the lane-packed transversal
  kernel of :mod:`repro.hypergraph.kernel`;
- :mod:`repro.columnar.pipeline` — the backend's agree step (the
  ``strip`` and ``agree_sets`` phases) that ``DepMiner.run`` calls for
  ``backend="columnar"``;
- :mod:`repro.columnar.ingest` — chunked streaming CSV → code matrix
  (:func:`ingest_csv` / :class:`CodedRelation`): factorization, type
  inference and the relation fingerprint in one pass, with the Python
  ``Relation`` materialized lazily only when a row-wise consumer asks;
- :mod:`repro.columnar.armstrong` — the Armstrong constructions as
  NumPy broadcasts over the max-union bitsets, bit-identical to
  :mod:`repro.core.armstrong`.

The backend is extensionally identical to the pure-Python path — the
oracle-conformance suite (``tests/oracle.py``) holds the covers equal
bit for bit.  Without NumPy, :class:`ColumnarUnavailableError` is the
typed failure mode; ``DepMiner`` catches the condition up front and
falls back to ``backend="python"`` with a logged warning (see
``docs/columnar.md``).
"""

from __future__ import annotations

import importlib

from repro.errors import ReproError

__all__ = [
    "ColumnarUnavailableError",
    "numpy_available",
    "require_numpy",
    "load_mining_input",
    "encode_column",
    "encode_relation",
    "grouped_runs",
    "class_ids",
    "class_matrix",
    "num_stripped_classes",
    "to_stripped_partition",
    "candidate_couples",
    "resolve_couples",
    "columnar_agree_sets",
    "maximal_sets_packed",
    "columnar_agree_phases",
    "CodedRelation",
    "ingest_csv",
    "coded_from_relation",
    "classical_armstrong_columnar",
    "real_world_armstrong_columnar",
    "is_armstrong_for_columnar",
]


class ColumnarUnavailableError(ReproError):
    """The columnar backend was requested but NumPy is not installed."""


try:
    import numpy as _np  # noqa: F401  (availability probe only)
except ImportError:  # pragma: no cover - exercised by the NumPy-free CI lane
    _np = None


def numpy_available() -> bool:
    """True when NumPy is importable (the backend's only dependency)."""
    return _np is not None


def require_numpy() -> None:
    """Raise the typed error unless NumPy is importable."""
    if not numpy_available():
        raise ColumnarUnavailableError(
            "the columnar backend needs NumPy; install the repro[fast] "
            "extra or use DepMiner(backend='python')"
        )


def load_mining_input(path, backend: str, nulls_equal: bool = True,
                      fingerprint: bool = False, tracer=None):
    """CSV → what ``DepMiner(backend=...).run`` mines.

    The columnar backend (with NumPy) gets the streaming ingest: a
    :class:`CodedRelation` factorized chunk by chunk under
    *nulls_equal*, fingerprinted in the same pass when *fingerprint*
    is set (a cached run then needs no second walk), with no
    ``Relation`` built up front.  Otherwise the classic
    :func:`repro.storage.csv_io.relation_from_csv`.
    """
    if backend == "columnar" and numpy_available():
        from repro.columnar.ingest import ingest_csv

        return ingest_csv(path, nulls_equal=nulls_equal,
                          fingerprint=fingerprint, tracer=tracer)
    from repro.storage.csv_io import relation_from_csv

    return relation_from_csv(path)


#: Lazy re-exports: the submodules import NumPy at module level, so they
#: are only loaded on first attribute access (after `require_numpy`).
_LAZY = {
    "encode_column": "repro.columnar.encode",
    "encode_relation": "repro.columnar.encode",
    "grouped_runs": "repro.columnar.grouping",
    "class_ids": "repro.columnar.grouping",
    "class_matrix": "repro.columnar.grouping",
    "num_stripped_classes": "repro.columnar.grouping",
    "to_stripped_partition": "repro.columnar.grouping",
    "candidate_couples": "repro.columnar.agree",
    "resolve_couples": "repro.columnar.agree",
    "columnar_agree_sets": "repro.columnar.agree",
    "maximal_sets_packed": "repro.columnar.cmax",
    "columnar_agree_phases": "repro.columnar.pipeline",
    "CodedRelation": "repro.columnar.ingest",
    "ingest_csv": "repro.columnar.ingest",
    "coded_from_relation": "repro.columnar.ingest",
    "classical_armstrong_columnar": "repro.columnar.armstrong",
    "real_world_armstrong_columnar": "repro.columnar.armstrong",
    "is_armstrong_for_columnar": "repro.columnar.armstrong",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.columnar' has no attribute {name!r}")
    require_numpy()
    return getattr(importlib.import_module(module), name)
