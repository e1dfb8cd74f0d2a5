"""Tests of the benchmark's own code: inputs, statistics, failure counting.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

from common import ROOT  # noqa: E402  (puts the sources on sys.path)
import cells  # noqa: E402
from stats import Tally, percentile, tail, tail_percentile  # noqa: E402

from repro.core.agree_sets import naive_agree_sets  # noqa: E402


@pytest.mark.parametrize("workload", sorted(cells.CELLS))
def test_same_seed_gives_identical_csvs(tmp_path, workload):
    first = cells.write_cells(workload, 7, tmp_path / "a")
    second = cells.write_cells(workload, 7, tmp_path / "b")
    for left, right in zip(first, second):
        assert left.read_bytes() == right.read_bytes()
    other = cells.write_cells(workload, 8, tmp_path / "c")
    assert any(left.read_bytes() != right.read_bytes()
               for left, right in zip(first, other))


def test_same_seed_gives_identical_serve_pool(tmp_path):
    first = cells.write_serve_pool(7, tmp_path / "a")
    second = cells.write_serve_pool(7, tmp_path / "b")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
    assert len(first) == cells.SERVE_POOL


def test_same_seed_gives_identical_schedule_and_counts():
    one = cells.schedule(3, cells.CLIENTS, 4)
    two = cells.schedule(3, cells.CLIENTS, 4)
    assert one == two
    kinds = Counter(op.kind for ops in one for op in ops)
    per_block = dict(cells.BLOCK)
    assert kinds == {kind: count * 4 * cells.CLIENTS
                     for kind, count in per_block.items()}
    assert sum(per_block.values()) == 20
    assert one != cells.schedule(4, cells.CLIENTS, 4)


def test_every_block_registers_first_and_closes_last():
    for ops in cells.schedule(5, cells.CLIENTS, 3):
        for start in range(0, len(ops), 20):
            block = ops[start:start + 20]
            assert block[0].kind == "register"
            assert block[-1].kind == "close"
            assert all(op.kind not in ("register", "close")
                       for op in block[1:-1])
            appends = [op for op in block if op.kind == "append"]
            assert all(len(op.rows) == cells.APPEND_ROWS for op in appends)


def test_seeds_give_isomorphic_copies_with_the_same_cover():
    from repro.core.depminer import DepMiner

    base = cells.synthetic(6, 120, 0.5, seed=4)
    one = cells.disguise(base, 1, "cell")
    two = cells.disguise(base, 2, "cell")
    assert list(one.rows()) != list(two.rows())
    assert sorted(one.rows()) != sorted(base.rows())
    covers = {frozenset(str(fd) for fd in DepMiner().run(relation).fds)
              for relation in (base, one, two)}
    assert len(covers) == 1


def test_best_of_rounds_keeps_each_operations_fastest_round():
    from serveload import RoundResult, best_of_rounds

    first, second = RoundResult(), RoundResult()
    first.add("cover", 5.0, (0, 1))
    first.add("append", 40.0, (1, 2))
    second.add("cover", 3.0, (0, 1))
    second.add("append", 50.0, (1, 2))
    second.add("keys", 90.0, (1, 3))
    assert best_of_rounds([first, second]) == {
        (0, 1): ("cover", 3.0), (1, 2): ("append", 40.0),
        (1, 3): ("keys", 90.0),
    }


def test_lane_boundary_sets_bits_on_both_sides_of_bit_63():
    relation = cells.lane_boundary(40, seed=2)
    assert len(relation.schema) == cells.LANE_WIDTH
    agree = naive_agree_sets(relation)
    assert agree
    low = (1 << 63) - 1
    for mask in agree:
        assert mask & low, f"{mask:b} has no bit below 63"
        assert mask >> 63, f"{mask:b} has no bit above 62"


def test_near_constant_column_is_nearly_constant():
    relation = cells.near_constant(12, 2000, seed=1)
    column = relation.column(0)
    top = Counter(column).most_common(1)[0][1]
    assert top == 1998


def test_key_heavy_columns_are_permutations():
    relation = cells.key_heavy(5, 300, seed=1)
    for attribute in range(5):
        assert sorted(relation.column(attribute)) == list(range(300))


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50), (72, 86), (100, 90), (200, 95), (480, 97),
    (1000, 99),
])
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    pct = tail_percentile(count)
    assert pct == expected
    if pct is not None:
        values = list(range(count))
        beyond = [v for v in values if v > percentile(values, pct)]
        assert len(beyond) >= 10
        if pct < 99:
            above = [v for v in values if v > percentile(values, pct + 1)]
            assert len(above) < 10


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 19)
    assert tail([float(v) for v in range(1, 101)]) == (90, 90.0)


def test_tally_counts_failures_refusals_and_wrong_outputs():
    tally = Tally()
    tally.attempt(10)
    tally.miss("refused", "HTTP 503")
    tally.miss("failed", "raised")
    assert tally.check(True, "fine")
    assert not tally.check(False, "cover differs")
    assert tally.counts == {"failed": 1, "refused": 1, "wrong": 1}
    assert tally.failed == 3
    assert tally.fail_ratio == pytest.approx(0.3)
    tally.merge(5, {"failed": 0, "refused": 2, "wrong": 0}, ["x", "y"])
    assert (tally.attempted, tally.failed) == (15, 5)
    with pytest.raises(ValueError):
        tally.miss("slow", "not a cause")


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tall",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
