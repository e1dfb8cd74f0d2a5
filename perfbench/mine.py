"""Mining arms of one backend, run in a process of their own.

Usage: ``python3 perfbench/mine.py SPEC.json`` — the spec names the
backend, the CSV cells, a warm-up CSV and the cell whose printed cover
the CLI check needs.  After set-up (the serial arm and the ``-j2`` arm,
one ``DepMiner`` each, the ``-j2`` one on a pool warmed before timing)
the process prints ``ready``, then answers each ``pass`` line on stdin
with one pass of both arms and a ``done`` line, and ``finish`` with a
JSON report.  A pass is CSV → cover + Armstrong relation over every
cell; outputs are checked outside the timed region.  A process per
backend makes its peak RSS (itself plus its pool workers) the
backend's own.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    armstrong_of,
    peak_rss_mb,
    result_digest,
    text_digest,
)
from repro.core.depminer import DepMiner  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.fd.fd import fds_to_text  # noqa: E402
from repro.parallel.executor import PersistentPool  # noqa: E402

#: Times each cell is mined in a row within a pass.  The rest of the run
#: (the other arms, CLI processes, the daemon) leaves caches and the
#: allocator cold between passes; the repeat shows the cell's cost once
#: they are warm.
REPEATS = 2


def load(backend: str, path):
    if backend == "columnar":
        from repro.columnar.ingest import ingest_csv

        return ingest_csv(path)
    from repro.storage.csv_io import relation_from_csv

    return relation_from_csv(path)


def armstrong_valid(backend: str, result) -> bool:
    _, relation = armstrong_of(result)
    if backend == "columnar":
        from repro.columnar.armstrong import is_armstrong_for_columnar

        return is_armstrong_for_columnar(relation, result.max_union)
    from repro.core.armstrong import is_armstrong_for

    return is_armstrong_for(relation, result.max_union)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    backend = spec["backend"]
    cells = spec["cells"]
    pool = PersistentPool(2)
    pool.ensure()
    arms = {
        backend: DepMiner(backend=backend),
        f"{backend}-j2": DepMiner(backend=backend, jobs=2, pool=pool),
    }
    for miner in arms.values():  # lazy imports and first-map set-up
        miner.run(load(backend, spec["warmup"]))

    cell_seconds = {arm: [[] for _ in cells] for arm in arms}
    digests = {arm: [None] * len(cells) for arm in arms}
    cli_text = None
    attempted = 0
    counts = {"failed": 0, "refused": 0, "wrong": 0}
    notes = []

    def miss(cause, note):
        counts[cause] += 1
        notes.append(f"{cause}: {note}")

    print("ready", flush=True)
    for command in sys.stdin:
        if command.strip() != "pass":
            break
        for arm, miner in arms.items():
            for index, path in enumerate(cells):
                for _ in range(REPEATS):
                    attempted += 1
                    start = time.perf_counter()
                    try:
                        result = miner.run(load(backend, path))
                    except ReproError as error:
                        miss("failed", f"{arm} {Path(path).name}: {error}")
                        continue
                    cell_seconds[arm][index].append(
                        time.perf_counter() - start)
                    digest = result_digest(result)
                    if digests[arm][index] is None:
                        digests[arm][index] = digest
                        if not armstrong_valid(backend, result):
                            miss("wrong", f"{arm} {Path(path).name}: not an "
                                          f"Armstrong relation")
                        if index == spec["cli_cell"]:
                            cli_text = text_digest(fds_to_text(result.fds))
                    elif digest != digests[arm][index]:
                        miss("wrong", f"{arm} {Path(path).name}: output "
                                      f"changed between passes")
                    del result
        print("done", flush=True)

    rss = peak_rss_mb(include_children=True)
    pool.close()
    print(json.dumps({
        "backend": backend,
        "cell_seconds": cell_seconds,
        "digests": digests,
        "cli_text": cli_text,
        "rss_peak_mb": rss,
        "attempted": attempted,
        "counts": counts,
        "notes": notes[:20],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
