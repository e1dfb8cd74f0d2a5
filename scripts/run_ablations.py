"""Run the ablation comparisons and print a summary report.

A plain-timer companion to the pytest-benchmark suite: each ablation of
DESIGN.md is executed head-to-head on identical inputs and summarised as
one table, written to ``results/ablations.txt`` (and stdout).

    python scripts/run_ablations.py [--rows 1000] [--attrs 10] [--out results]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.columnar.agree import columnar_agree_sets
from repro.columnar.encode import encode_relation
from repro.columnar.grouping import class_matrix
from repro.core.agree_sets import (
    agree_sets_from_couples,
    agree_sets_from_identifiers,
    naive_agree_sets,
)
from repro.core.depminer import DepMiner
from repro.datagen.synthetic import generate_relation
from repro.fdep import Fdep
from repro.hypergraph.transversals import (
    minimal_transversals_berge,
    minimal_transversals_levelwise,
)
from repro.partitions.database import StrippedPartitionDatabase
from repro.tane.armstrong_ext import tane_with_armstrong
from repro.tane.tane import Tane


def timed(fn, *args, repeat: int = 3, **kwargs):
    best = float("inf")
    value = None
    for _ in range(repeat):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, value


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--rows", type=int, default=1000)
    parser.add_argument("--attrs", type=int, default=10)
    parser.add_argument("--correlation", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results")
    args = parser.parse_args()

    relation = generate_relation(
        args.attrs, args.rows, correlation=args.correlation, seed=args.seed
    )
    spdb = StrippedPartitionDatabase.from_relation(relation)
    lines = [
        f"Ablation summary — |R|={args.attrs}, |r|={args.rows}, "
        f"c={args.correlation:.0%}, seed={args.seed} "
        f"(best of 3, seconds)",
        "",
    ]

    def row(group, name, seconds, note=""):
        lines.append(f"{group:<22} {name:<28} {seconds:>9.4f}  {note}")

    # Agree-set algorithms.
    naive_s, reference = timed(naive_agree_sets, relation, repeat=1)
    row("agree-sets", "naive all-pairs", naive_s)
    for name, fn in (
        ("couples (Algorithm 2)", agree_sets_from_couples),
        ("identifiers (Algorithm 3)", agree_sets_from_identifiers),
    ):
        seconds, value = timed(fn, spdb)
        assert value == reference, name
        row("agree-sets", name, seconds)
    # The columnar agree step (the distinct-partition sweep) starts
    # from its own class-id matrix, as the stripped partitions
    # are the row-wise algorithms' input.
    ec = class_matrix(encode_relation(relation))
    seconds, value = timed(columnar_agree_sets, ec)
    assert value == reference, "columnar"
    row("agree-sets", "columnar (NumPy)", seconds)
    lines.append("")

    # Transversal strategies on the mined cmax families.
    mined = DepMiner(build_armstrong="none").run(relation)
    families = list(mined.cmax_sets.values())

    def run_transversals(algorithm):
        return [algorithm(edges, args.attrs) for edges in families]

    reference_tr = run_transversals(minimal_transversals_levelwise)
    for name, algorithm in (
        ("levelwise (Algorithm 5)", minimal_transversals_levelwise),
        ("Berge sequential", minimal_transversals_berge),
    ):
        seconds, value = timed(run_transversals, algorithm)
        assert value == reference_tr, name
        row("transversals", name, seconds)
    lines.append("")

    # Whole miners (identical covers asserted).
    expected = mined.fds
    for name, fn in (
        ("Dep-Miner", lambda: DepMiner(build_armstrong="none").run(relation).fds),
        ("Dep-Miner 2", lambda: DepMiner(
            build_armstrong="none", agree_algorithm="identifiers"
        ).run(relation).fds),
        ("Dep-Miner (columnar)", lambda: DepMiner(
            build_armstrong="none", backend="columnar"
        ).run(relation).fds),
        ("TANE", lambda: Tane().run(relation).fds),
        ("FDEP", lambda: Fdep().run(relation).fds),
    ):
        seconds, value = timed(fn)
        assert value == expected, name
        row("miners", name, seconds, f"{len(value)} FDs")
    lines.append("")

    # Armstrong "for free" vs TANE + extension.
    seconds, _ = timed(DepMiner().run, relation)
    row("armstrong", "Dep-Miner incl. Armstrong", seconds)
    seconds, _ = timed(tane_with_armstrong, relation)
    row("armstrong", "TANE + Tr(lhs) extension", seconds)

    report = "\n".join(lines)
    print(report)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ablations.txt").write_text(report + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
