"""repro — Dep-Miner: efficient discovery of functional dependencies and
real-world Armstrong relations.

A full reproduction of S. Lopes, J.-M. Petit, L. Lakhal, *"Efficient
Discovery of Functional Dependencies and Armstrong Relations"* (EDBT
2000), including the TANE baseline the paper compares against, the FD
theory toolkit the approach builds on, the synthetic benchmark database,
and a harness regenerating every table and figure of the evaluation.

Quickstart::

    from repro import Relation, Schema, discover

    schema = Schema(["empnum", "depnum", "year", "depname", "mgr"])
    r = Relation.from_rows(schema, [...])
    result = discover(r)
    for fd in result.fds:
        print(fd)
    print(result.armstrong.to_text())

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the system
inventory.
"""

from repro.core.agree_sets import (
    agree_sets,
    agree_sets_from_couples,
    agree_sets_from_identifiers,
    naive_agree_sets,
)
from repro.core.armstrong import (
    armstrong_size,
    classical_armstrong,
    is_armstrong_for,
    minimum_armstrong_size_bounds,
    real_world_armstrong,
    real_world_armstrong_exists,
    real_world_existence_deficits,
)
from repro.core.attributes import AttributeSet, Schema
from repro.core.depminer import DepMiner, DepMinerResult, discover, discover_fds
from repro.core.lhs import fd_output, left_hand_sides
from repro.core.maximal_sets import (
    complement_maximal_sets,
    max_set_union,
    maximal_sets,
)
from repro.core.ranking import FDEvidence, fd_evidence, rank_fds
from repro.core.relation import Relation
from repro.core.keys_mining import discover_keys
from repro.core.sampling import SamplingResult, discover_with_sampling
from repro.explain import (
    ArmstrongExplanation,
    CoverDiff,
    diff_covers,
    explain_armstrong,
)
from repro.errors import (
    ArmstrongExistenceError,
    BenchmarkError,
    RelationError,
    ReproError,
    SchemaError,
    SchemaMismatchError,
    StorageError,
)
from repro.fd.fd import FD, parse_fd
from repro.fdep import Fdep, FdepResult
from repro.hypergraph.hypergraph import SimpleHypergraph
from repro.obs import (
    MetricsRegistry,
    ProgressAborted,
    Span,
    Tracer,
    configure_logging,
    get_logger,
)
from repro.partitions.database import StrippedPartitionDatabase
from repro.partitions.partition import StrippedPartition
from repro.report import ProfileReport, profile_relation
from repro.serialize import (
    fds_from_json,
    fds_to_json,
    result_to_dict,
    result_to_json,
)
from repro.tane.tane import Tane, TaneResult
from repro.validate import ValidationReport, validate_result

__version__ = "1.0.0"

__all__ = [
    "AttributeSet",
    "Schema",
    "Relation",
    "StrippedPartition",
    "StrippedPartitionDatabase",
    "SimpleHypergraph",
    "FD",
    "parse_fd",
    "DepMiner",
    "DepMinerResult",
    "discover",
    "discover_fds",
    "discover_with_sampling",
    "SamplingResult",
    "discover_keys",
    "fd_evidence",
    "rank_fds",
    "FDEvidence",
    "Fdep",
    "FdepResult",
    "profile_relation",
    "ProfileReport",
    "fds_to_json",
    "fds_from_json",
    "result_to_json",
    "result_to_dict",
    "validate_result",
    "ValidationReport",
    "explain_armstrong",
    "ArmstrongExplanation",
    "diff_covers",
    "CoverDiff",
    "Tane",
    "TaneResult",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "ProgressAborted",
    "get_logger",
    "configure_logging",
    "agree_sets",
    "agree_sets_from_couples",
    "agree_sets_from_identifiers",
    "naive_agree_sets",
    "maximal_sets",
    "complement_maximal_sets",
    "max_set_union",
    "left_hand_sides",
    "fd_output",
    "classical_armstrong",
    "is_armstrong_for",
    "armstrong_size",
    "minimum_armstrong_size_bounds",
    "real_world_armstrong",
    "real_world_armstrong_exists",
    "real_world_existence_deficits",
    "ReproError",
    "SchemaError",
    "SchemaMismatchError",
    "RelationError",
    "ArmstrongExistenceError",
    "StorageError",
    "BenchmarkError",
    "__version__",
]
