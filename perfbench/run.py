"""The repository's benchmark: CSV → FD cover + Armstrong relation.

Usage::

    python3 perfbench/run.py --workload {tall,wide} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace
1`` runs the layer-by-layer decomposition instead (see ``layers.py``).
Every timed operation's output is checked, outside the timed region.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` (raised, refused or wrong operations) and ``metrics``.  The
lines before it give the same numbers per cell, with sample counts.

``--record-digests`` rewrites ``digests.json`` (the outputs expected
for the default seed) from a python-backend run of every workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    WORK,
    adopt_orphans,
    child_env,
    program_present,
    stop_children,
    text_digest,
)

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORKLOADS = ("tall", "wide")
DEFAULT_SEED = 0
ARMS = ("python", "columnar", "python-j2", "columnar-j2")

#: Set-up samples per run (their median is ``setup_s``).
SETUP_SAMPLES = 9
#: Cold ``repro discover`` processes per run (``cli_s`` is the fastest).
CLI_SAMPLES = 12
PROBE = (
    "import numpy, repro, repro.columnar.pipeline\n"
    "from repro.parallel.executor import PersistentPool\n"
    "pool = PersistentPool(2)\n"
    "pool.ensure()\n"
    "print('ready', flush=True)\n"
    "pool.close()\n"
)


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    return args


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# -- set-up ----------------------------------------------------------------------

def setup_sample() -> float:
    """Time one fresh set-up: an interpreter importing repro with NumPy
    and building the two-worker pool."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", PROBE], cwd=str(ROOT), env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        line = process.stdout.readline()
        seconds = time.perf_counter() - start
        process.wait(timeout=60)
    finally:
        process.stdout.close()
        if process.poll() is None:
            process.kill()
            process.wait()
    if line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return seconds


# -- mining arms -----------------------------------------------------------------

class Arms:
    """One backend's two mining arms in their own process (``mine.py``),
    driven one pass at a time so passes interleave with everything else
    the run measures."""

    def __init__(self, backend: str, cells: Sequence[Path], warmup: Path,
                 cli_cell: int, work: Path):
        self.backend = backend
        spec = work / f"mine-{backend}.json"
        spec.write_text(json.dumps({
            "backend": backend,
            "cells": [str(path) for path in cells],
            "warmup": str(warmup),
            "cli_cell": cli_cell,
        }), encoding="utf-8")
        self.stderr = open(work / f"mine-{backend}.err", "w+",
                           encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "mine.py"), str(spec)],
            cwd=str(ROOT), env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.stderr, text=True,
        )
        self._expect("ready")

    def _expect(self, word: str) -> None:
        line = self.process.stdout.readline().strip()
        if line != word:
            self.stderr.seek(0)
            raise RuntimeError(f"{self.backend} arms said {line!r}, not "
                               f"{word!r}:\n{self.stderr.read()[-2000:]}")

    def run_pass(self) -> None:
        self.process.stdin.write("pass\n")
        self.process.stdin.flush()
        self._expect("done")

    def finish(self) -> dict:
        output, _ = self.process.communicate("finish\n", timeout=120)
        return json.loads(output.strip().splitlines()[-1])

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)
        self.stderr.close()


def expected_cli_text(path: Path) -> str:
    """Digest of the cover ``repro discover`` must print for *path*."""
    from mine import load
    from repro.core.depminer import DepMiner
    from repro.fd.fd import fds_to_text

    result = DepMiner(backend="columnar", build_armstrong="none").run(
        load("columnar", path))
    return text_digest(fds_to_text(result.fds))


def cli_runs(path: Path, expected_text: str, tally) -> List[float]:
    """One cold ``repro discover --backend columnar --armstrong`` process
    (an empty list when it failed)."""
    tally.attempt()
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "discover", str(path),
         "--backend", "columnar", "--armstrong"],
        cwd=str(ROOT), env=child_env(), capture_output=True, text=True,
        timeout=120,
    )
    seconds = time.perf_counter() - start
    if completed.returncode != 0:
        tally.miss("failed", f"cli: exit {completed.returncode}")
        return []
    fds_text = completed.stdout.split("\n\n", 1)[0]
    tally.check(text_digest(fds_text) == expected_text,
                "cli: printed cover differs from the in-process one")
    tally.check("Armstrong relation" in completed.stdout,
                "cli: no Armstrong relation printed")
    return [seconds]


def check_arms(workload: str, seed: int, cells, reports: Dict[str, dict],
               tally) -> None:
    """All four arms agree per cell; at the default seed they also match
    the committed digests."""
    committed = {}
    if seed == DEFAULT_SEED and DIGESTS.is_file():
        committed = json.loads(DIGESTS.read_text(encoding="utf-8"))
        committed = committed.get(workload, {})
    for index, cell in enumerate(cells):
        seen = {
            arm: report["digests"][arm][index]
            for report in reports.values() for arm in report["digests"]
        }
        tally.check(len(set(seen.values())) == 1 and None not in seen.values(),
                    f"{cell.name}: arms disagree {seen}")
        if seed == DEFAULT_SEED:
            tally.check(committed.get(cell.name) == seen["python"],
                        f"{cell.name}: output differs from digests.json")


# -- the end-to-end run ------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float, work: Path,
               lines: List[str], tally) -> Dict[str, dict]:
    """The untraced run.  Each round is one pass of every arm; set-ups,
    CLI processes and serve blocks fall due in proportion to the time
    spent, so they spread evenly over the run and a slow spell of a
    shared host lands on every metric a little rather than on one wholly.

    The host's speed drifts by 20-30% within seconds, so a repeated
    operation reports its fastest sample (best of N, as ``timeit``
    does): interference only ever adds time, and the fastest of many
    samples is what the code costs when it gets the machine.  The serve
    schedule is replayed on ``SERVE_ROUNDS`` fresh daemons and each
    operation counts with its fastest round.
    """
    import cells as cellmod
    from serveload import (
        READS,
        RoundResult,
        Traffic,
        best_of_rounds,
        expected_pool_covers,
    )
    from stats import median, tail

    cells = cellmod.CELLS[workload]
    paths = cellmod.write_cells(workload, seed, work / "cells")
    pool = cellmod.write_serve_pool(seed, work / "pool")
    warmup = cellmod.write_warmup(work)
    expected = expected_pool_covers(pool)
    cli_cell = cellmod.CLI_CELL[workload]
    blocks = cellmod.SERVE_BLOCKS
    schedules = cellmod.schedule(seed, cellmod.CLIENTS, blocks)

    cli_text = expected_cli_text(paths[cli_cell])
    setup: List[float] = []
    cli: List[float] = []
    served = [RoundResult() for _ in range(cellmod.SERVE_ROUNDS)]
    due = {"setup": SETUP_SAMPLES, "cli": CLI_SAMPLES,
           "serve": len(served) * blocks}
    done = dict.fromkeys(due, 0)
    arms: List[Arms] = []
    traffic = None
    try:
        for backend in ("python", "columnar"):
            arms.append(Arms(backend, paths, warmup, cli_cell, work))

        def sample(kind: str) -> None:
            nonlocal traffic
            if kind == "setup":
                setup.append(setup_sample())
            elif kind == "cli":
                cli.extend(cli_runs(paths[cli_cell], cli_text, tally))
            else:
                number, block = divmod(done["serve"], blocks)
                if block == 0:
                    traffic = Traffic(pool, expected, schedules, tally,
                                      served[number]).__enter__()
                traffic.block(block)
                if block == blocks - 1:
                    traffic.finish()
                    traffic, closing = None, traffic
                    closing.__exit__(None, None, None)
            done[kind] += 1

        start = time.monotonic()
        while True:
            for arm in arms:
                arm.run_pass()
            share = (time.monotonic() - start) / seconds
            for kind, count in due.items():
                while done[kind] < min(count, math.ceil(count * share)):
                    sample(kind)
            if share >= 1.0 and done == due:
                break
        reports = {arm.backend: arm.finish() for arm in arms}
    finally:
        if traffic is not None:
            traffic.__exit__(None, None, None)
        for arm in arms:
            arm.close()
    for report in reports.values():
        tally.merge(report["attempted"], report["counts"], report["notes"])
    check_arms(workload, seed, cells, reports, tally)
    for report in reports.values():
        tally.check(report["cli_text"] == cli_text,
                    f"{report['backend']} arms print a different cover")

    # A pass's time is the sum of its cells' fastest samples.
    mine = {}
    for report in reports.values():
        for arm, per_cell in report["cell_seconds"].items():
            mine[arm] = sum(min(samples) for samples in per_cell)
            lines.append(f"mine {arm}: {mine[arm]:.4f} s, best of "
                         f"{len(per_cell[0])} samples per cell")
            for cell, samples in zip(cells, per_cell):
                lines.append(f"  {cell.name}: best {min(samples):.4f} s, "
                             f"median {median(samples):.4f} s")
    best = best_of_rounds(served)
    reads = [ms for kind, ms in best.values() if kind in READS]
    appends = [ms for kind, ms in best.values() if kind == "append"]
    # Fastest round of each block, summed over the schedule.
    wall_s = sum(min(result.block_walls[block] for result in served)
                 for block in range(blocks))
    every = {kind: [ms for result in served
                    for ms in result.latencies.get(kind, [])]
             for kind in (*READS, "append", "keys", "register")}
    all_reads = every["cover"] + every["armstrong"]
    read_pct, read_tail = tail(all_reads)
    append_pct, append_tail = tail(every["append"])
    lines.append(f"setup: {len(setup)} samples {sorted(setup)}")
    lines.append(f"cli: {len(cli)} samples {sorted(cli)}")
    lines.append(f"serve: {len(served)} rounds of {served[0].ops} "
                 f"operations; best-of-rounds read p50 over {len(reads)} "
                 f"operations, append p50 over {len(appends)}")
    lines.append("  per round: read p50 " + " ".join(
        f"{median([ms for kind in READS for ms in result.latencies[kind]]):.2f}"
        for result in served) + " ms; append p50 " + " ".join(
        f"{median(result.latencies['append']):.2f}" for result in served)
        + " ms; wall " + " ".join(f"{result.wall_s:.2f}" for result in served)
        + " s")
    # Tails, keys and registrations have too few samples per run to be
    # steady metrics; they are printed over every round, not compared.
    lines.append(f"read p{read_pct} {read_tail:.2f} ms of {len(all_reads)}; "
                 f"append p{append_pct} {append_tail:.2f} ms of "
                 f"{len(every['append'])}; keys p50 "
                 f"{median(every['keys']):.2f} ms of {len(every['keys'])}; "
                 f"register p50 {median(every['register']):.2f} ms of "
                 f"{len(every['register'])}")
    return {
        "setup_s": metric(median(setup), "s"),
        **{f"mine_s.{arm}": metric(mine[arm], "s") for arm in ARMS},
        "rss_peak_mb.python": metric(reports["python"]["rss_peak_mb"], "MiB"),
        "rss_peak_mb.columnar": metric(reports["columnar"]["rss_peak_mb"],
                                       "MiB"),
        "cli_s": metric(min(cli), "s"),
        "read_p50_ms": metric(median(reads), "ms"),
        "append_p50_ms": metric(median(appends), "ms"),
        "ops_per_s": metric(served[0].ops / wall_s, "1/s"),
    }


def record_digests(work: Path) -> int:
    """Mine every workload's default-seed cells once (python backend)
    and write their output digests to ``digests.json``."""
    import cells as cellmod
    from common import result_digest
    from mine import load
    from repro.core.depminer import DepMiner

    miner = DepMiner()
    recorded = {}
    for workload in WORKLOADS:
        paths = cellmod.write_cells(workload, DEFAULT_SEED, work / workload)
        recorded[workload] = {
            cell.name: result_digest(miner.run(load("python", path)))
            for cell, path in zip(cellmod.CELLS[workload], paths)
        }
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    if not program_present():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from stats import Tally

    # Every process the run starts, and every one those start, ends
    # before the run does — on SIGTERM too.
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_digests:
            return record_digests(work)
        tally = Tally()
        lines: List[str] = []
        if args.trace:
            from layers import trace_run

            metrics = trace_run(args.workload, args.seed, args.seconds,
                                work, lines, tally)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds,
                                 work, lines, tally)
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
    for line in lines + tally.notes:
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
