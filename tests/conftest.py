"""Shared fixtures: the paper's worked example and helper factories.

Setting ``REPRO_TEST_JOBS=N`` (N > 1) re-runs the whole suite with every
:class:`~repro.core.depminer.DepMiner` defaulting to ``jobs=N``, so the
tier-1 tests double as a differential check of the sharded execution
layer (tests that pass an explicit ``jobs=`` keep their value).  CI runs
the suite both ways.
"""

from __future__ import annotations

import os

import pytest

from repro.core.attributes import Schema
from repro.core.relation import Relation
from repro.datasets import paper_example_relation

_TEST_JOBS = int(os.environ.get("REPRO_TEST_JOBS", "1"))

if _TEST_JOBS > 1:
    from repro.core.depminer import DepMiner as _DepMiner

    _serial_init = _DepMiner.__init__

    def _sharded_init(self, *args, **kwargs):
        kwargs.setdefault("jobs", _TEST_JOBS)
        _serial_init(self, *args, **kwargs)

    _DepMiner.__init__ = _sharded_init


@pytest.fixture
def paper_schema() -> Schema:
    """The A..E renaming of the employee/department schema."""
    return Schema(["A", "B", "C", "D", "E"])


@pytest.fixture
def paper_relation(paper_schema) -> Relation:
    """The 7-tuple relation of example 1, with short attribute names."""
    return paper_example_relation(short_names=True)


@pytest.fixture
def abcde(paper_schema):
    """Shorthand: compact-name -> AttributeSet over the paper schema."""

    def make(compact: str):
        if compact in ("", "0"):
            return paper_schema.empty()
        return paper_schema.attribute_set(list(compact))

    return make


def masks(schema, *compacts):
    """Compact attribute-set names -> sorted list of bitmasks."""
    out = []
    for compact in compacts:
        mask = 0
        for name in compact:
            mask |= 1 << schema.index_of(name)
        out.append(mask)
    return sorted(out)
