#!/usr/bin/env python
"""Validate the cache-smoke traces (the ``make cache-smoke`` checker).

Usage::

    python scripts/check_cache.py COLD.jsonl WARM.jsonl APPEND.jsonl

Reads three trace JSONL files produced by ``repro discover --cache-dir``
runs over the same relation and asserts the counters that prove the
cache actually worked, on either backend:

- the **cold** trace recorded exactly 2 artefact writes — agree sets
  and cover — and no hits;
- the **warm** trace recorded a ``cache.full_hit`` — the rerun was
  served entirely from the cover artefact — and a matching ``cache.hit``
  with zero writes;
- the **append** trace recorded ``incremental.rows_appended`` and a
  delta sweep (``incremental.delta_couples`` present), i.e. the appended
  rows took the incremental path rather than a cold re-mine, and exactly
  2 artefact writes: the initial mine is a full hit and the append
  publishes the grown relation's agree sets and cover.

Exits non-zero with one line per problem.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def counters(path: Path) -> dict:
    values = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("type") == "metric" and record.get("kind") == "counter":
            values[record["name"]] = record["value"]
    return values


def check(cold: dict, warm: dict, append: dict) -> list:
    problems = []

    def expect(trace, name, values, predicate, description):
        actual = values.get(name, 0)
        if not predicate(actual):
            problems.append(
                f"{trace}: counter {name}={actual}, expected {description}"
            )

    expect("cold", "cache.put", cold, lambda v: v == 2,
           "2 artefact writes (agree sets and cover)")
    expect("cold", "cache.hit", cold, lambda v: v == 0, "no hits")
    expect("warm", "cache.full_hit", warm, lambda v: v >= 1,
           ">= 1 (the warm-hit speedup counter)")
    expect("warm", "cache.hit", warm, lambda v: v >= 1, ">= 1")
    expect("warm", "cache.put", warm, lambda v: v == 0, "no writes")
    expect("append", "incremental.rows_appended", append, lambda v: v >= 1,
           ">= 1 appended row")
    expect("append", "incremental.delta_couples", append, lambda v: v >= 0,
           "a delta sweep record")
    expect("append", "cache.put", append, lambda v: v == 2,
           "2 artefact writes (agree sets and cover)")
    if "incremental.delta_couples" not in append:
        problems.append(
            "append: counter incremental.delta_couples missing — the "
            "appended rows did not take the incremental path"
        )
    return problems


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        description="Validate the cache-smoke traces."
    )
    parser.add_argument("traces", nargs=3, type=Path,
                        metavar="COLD|WARM|APPEND")
    args = parser.parse_args(argv)
    paths = args.traces
    for path in paths:
        if not path.is_file():
            print(f"{path}: no such file", file=sys.stderr)
            return 2
    problems = check(*(counters(path) for path in paths))
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        names = ", ".join(path.name for path in paths)
        print(f"cache smoke OK ({names})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
