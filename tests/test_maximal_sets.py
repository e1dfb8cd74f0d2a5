"""Unit tests for maximal sets and their complements (CMAX_SET)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.attributes import Schema
from repro.core.maximal_sets import (
    complement_maximal_sets,
    grow_maximal_sets,
    max_set_union,
    maximal_sets,
)

from tests.conftest import masks


class TestMaximalSets:
    def test_keeps_only_maximal_candidates(self):
        schema = Schema.of_width(3)
        agree = set(masks(schema, "A", "AB", "B"))
        result = maximal_sets(agree, schema)
        # For C, candidates are {A, AB, B}; only AB is maximal.
        assert result[schema.index_of("C")] == masks(schema, "AB")

    def test_excludes_sets_containing_the_attribute(self):
        schema = Schema.of_width(2)
        agree = set(masks(schema, "A", "AB"))
        result = maximal_sets(agree, schema)
        # For A: no candidate avoids A -> constant-like, empty family.
        assert result[schema.index_of("A")] == []
        assert result[schema.index_of("B")] == masks(schema, "A")

    def test_empty_agree_set_can_be_the_maximum(self):
        schema = Schema.of_width(2)
        agree = {0}  # two tuples disagreeing on everything
        result = maximal_sets(agree, schema)
        assert result[0] == [0]
        assert result[1] == [0]

    def test_empty_agree_set_dominated_by_larger(self):
        schema = Schema.of_width(2)
        agree = {0} | set(masks(schema, "B"))
        result = maximal_sets(agree, schema)
        assert result[schema.index_of("A")] == masks(schema, "B")

    def test_no_agree_sets_at_all(self):
        schema = Schema.of_width(2)
        result = maximal_sets(set(), schema)
        assert result == {0: [], 1: []}


class TestComplements:
    def test_complement_edges(self):
        schema = Schema.of_width(3)
        max_sets = {0: masks(schema, "B"), 1: [], 2: masks(schema, "A", "B")}
        cmax = complement_maximal_sets(max_sets, schema)
        assert cmax[0] == masks(schema, "AC")
        assert cmax[1] == []
        assert sorted(cmax[2]) == masks(schema, "BC", "AC")

    def test_complement_of_empty_set_is_universe(self):
        schema = Schema.of_width(3)
        cmax = complement_maximal_sets({0: [0]}, schema)
        assert cmax[0] == [schema.universe_mask]

    def test_every_cmax_edge_contains_its_attribute(self, paper_relation):
        from repro.core.agree_sets import naive_agree_sets

        schema = paper_relation.schema
        agree = naive_agree_sets(paper_relation)
        cmax = complement_maximal_sets(maximal_sets(agree, schema), schema)
        for attribute, edges in cmax.items():
            for edge in edges:
                assert edge & (1 << attribute)


class TestDisagreeSetsPath:
    """The upper branch of the paper's Figure 1 must agree with the
    lower one on every input."""

    def test_disagree_sets_are_complements(self, paper_relation):
        from repro.core.agree_sets import naive_agree_sets
        from repro.core.maximal_sets import disagree_sets

        schema = paper_relation.schema
        agree = naive_agree_sets(paper_relation)
        disagree = disagree_sets(agree, schema)
        universe = schema.universe_mask
        assert set(disagree) == {universe & ~mask for mask in agree}

    def test_cmax_via_disagree_equals_cmax_via_max(self, paper_relation):
        from repro.core.agree_sets import naive_agree_sets
        from repro.core.maximal_sets import (
            cmax_from_disagree_sets,
            disagree_sets,
        )

        schema = paper_relation.schema
        agree = naive_agree_sets(paper_relation)
        via_max = complement_maximal_sets(
            maximal_sets(agree, schema), schema
        )
        via_disagree = cmax_from_disagree_sets(
            disagree_sets(agree, schema), schema
        )
        assert {a: sorted(m) for a, m in via_disagree.items()} == \
            {a: sorted(m) for a, m in via_max.items()}

    def test_equality_on_random_agree_families(self):
        import random

        from repro.core.maximal_sets import (
            cmax_from_disagree_sets,
            disagree_sets,
        )

        rng = random.Random(4)
        for _trial in range(30):
            width = rng.randint(1, 6)
            schema = Schema.of_width(width)
            universe = schema.universe_mask
            agree = {
                rng.randint(0, universe)
                for _ in range(rng.randint(0, 10))
            }
            via_max = complement_maximal_sets(
                maximal_sets(agree, schema), schema
            )
            via_disagree = cmax_from_disagree_sets(
                disagree_sets(agree, schema), schema
            )
            assert {a: sorted(m) for a, m in via_disagree.items()} == \
                {a: sorted(m) for a, m in via_max.items()}


class TestMaxUnion:
    def test_union_deduplicates(self):
        schema = Schema.of_width(3)
        max_sets = {
            0: masks(schema, "B"),
            1: masks(schema, "A"),
            2: masks(schema, "A", "B"),
        }
        assert max_set_union(max_sets) == masks(schema, "A", "B")

    def test_union_of_empty_families(self):
        assert max_set_union({0: [], 1: []}) == []

    def test_union_is_sorted(self):
        schema = Schema.of_width(4)
        max_sets = {0: masks(schema, "D", "B"), 1: masks(schema, "C")}
        union = max_set_union(max_sets)
        assert union == sorted(union)


class TestGrowMaximalSets:
    """Lemma 3 read incrementally: growing the families by added agree
    sets equals recomputing them over the union."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_grow_equals_recompute(self, data):
        width = data.draw(st.integers(min_value=1, max_value=6))
        universe = (1 << width) - 1
        family = st.sets(st.integers(min_value=0, max_value=universe),
                         max_size=12)
        old, added = data.draw(family), data.draw(family)
        schema = Schema.of_width(width)
        before = maximal_sets(old, schema)
        grown, changed = grow_maximal_sets(before, added)
        after = maximal_sets(old | added, schema)
        assert grown == after
        assert changed == [attribute for attribute in range(width)
                           if after[attribute] != before[attribute]]
        assert before == maximal_sets(old, schema)   # input untouched

    def test_universe_never_joins(self):
        schema = Schema.of_width(3)
        before = maximal_sets([0b001, 0b010], schema)
        grown, changed = grow_maximal_sets(before, [schema.universe_mask])
        assert (grown, changed) == (before, [])

    def test_empty_set_joins_only_an_empty_family(self):
        schema = Schema.of_width(2)
        before = maximal_sets([0b01], schema)    # attribute 0 is constant
        assert before == {0: [], 1: [0b01]}
        grown, changed = grow_maximal_sets(before, [0])
        assert grown == {0: [0], 1: [0b01]}
        assert changed == [0]

    def test_unchanged_family_keeps_its_list(self):
        before = {0: [0b110], 1: [0b101]}
        grown, changed = grow_maximal_sets(before, [0b100])
        assert changed == []
        assert grown[0] is before[0] and grown[1] is before[1]
