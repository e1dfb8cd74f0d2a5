"""Unit tests for LEFT_HAND_SIDE and FD_OUTPUT."""

from __future__ import annotations

from repro.core.attributes import Schema
from repro.core.lhs import fd_output, left_hand_sides
from repro.fd.fd import sort_fds

from tests.conftest import masks


class TestLeftHandSides:
    def test_constant_attribute_yields_empty_lhs(self):
        schema = Schema.of_width(2)
        lhs = left_hand_sides({0: [], 1: [0b11]}, schema)
        assert lhs[0] == [0]  # cmax empty -> only the empty transversal
        assert sorted(lhs[1]) == [0b01, 0b10]

    def test_matches_paper_families(self, paper_relation):
        from repro.core.agree_sets import naive_agree_sets
        from repro.core.maximal_sets import (
            complement_maximal_sets,
            maximal_sets,
        )

        schema = paper_relation.schema
        cmax = complement_maximal_sets(
            maximal_sets(naive_agree_sets(paper_relation), schema), schema
        )
        lhs = left_hand_sides(cmax, schema)
        assert sorted(lhs[schema.index_of("E")]) == masks(
            schema, "B", "C", "D", "E"
        )

    def test_methods_agree(self, paper_relation):
        from repro.core.agree_sets import naive_agree_sets
        from repro.core.maximal_sets import (
            complement_maximal_sets,
            maximal_sets,
        )

        schema = paper_relation.schema
        cmax = complement_maximal_sets(
            maximal_sets(naive_agree_sets(paper_relation), schema), schema
        )
        levelwise = left_hand_sides(cmax, schema, method="levelwise")
        berge = left_hand_sides(cmax, schema, method="berge")
        assert levelwise == berge


class TestFdOutput:
    def test_filters_trivial_lhs(self):
        schema = Schema.of_width(3)
        lhs = {
            0: [0b001, 0b110],  # {A} (trivial) and {B, C}
            1: [0b010],         # {B} (trivial)
            2: [0],             # empty lhs -> constant column
        }
        fds = fd_output(lhs, schema)
        rendered = {str(fd) for fd in fds}
        assert rendered == {"BC -> A", "∅ -> C"}

    def test_empty_input(self):
        schema = Schema.of_width(2)
        assert fd_output({0: [], 1: []}, schema) == []

    def test_output_is_sorted(self, paper_relation):
        from repro.core.depminer import discover_fds

        fds = discover_fds(paper_relation)
        keys = [(fd.rhs_index, len(fd.lhs), fd.lhs.mask) for fd in fds]
        assert keys == sorted(keys)

    def test_input_order_does_not_matter(self):
        # Antichains whose numeric order differs from the (size, mask)
        # order: {D} = 0b1000 comes before {B, C} = 0b0110.
        schema = Schema.of_width(4)
        forward = {
            0: [0b0001, 0b0110, 0b1000],
            1: [0b0010, 0b0101, 0b1000],
            3: [0],
        }
        backward = {
            attribute: list(reversed(forward[attribute]))
            for attribute in reversed(list(forward))
        }
        fds = fd_output(forward, schema)
        assert fd_output(backward, schema) == fds
        assert fds == sort_fds(fds)
        assert [str(fd) for fd in fds] == [
            "D -> A", "BC -> A", "D -> B", "AC -> B", "∅ -> D",
        ]
