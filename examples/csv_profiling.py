"""CSV profiling: the storage layer end-to-end.

The original system pointed Dep-Miner at Oracle / MS Access tables over
ODBC; here the equivalent path is CSV -> Database catalog -> relation
view -> mining.  The script writes a sample CSV, loads it, profiles columns,
mines FDs both on the full table and on a projected/filtered view, and
exports the Armstrong sample back to CSV.

    python examples/csv_profiling.py [directory]
"""

import sys
import tempfile
from pathlib import Path

from repro.datasets import supplier_parts_relation
from repro.storage import Database, relation_to_csv, write_csv
from repro.storage.table import Table


def main():
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(tempfile.mkdtemp(prefix="depminer-"))
    workdir.mkdir(parents=True, exist_ok=True)

    # Stage a CSV file (in reality this is an existing data export).
    source = workdir / "supplier_parts.csv"
    relation_to_csv(supplier_parts_relation(), source)
    print(f"staged {source}")

    # Load it into the catalog and profile the columns.
    db = Database("warehouse")
    table = db.load_csv(source)
    print(f"\nColumn profile of {table.name!r} ({len(table)} rows):")
    for name, stats in table.profile().items():
        print(
            f"  {name:<8} type={stats['type']:<6} "
            f"distinct={stats['distinct']:<3} nulls={stats['nulls']}"
        )

    # Mine the whole table.
    result = db.discover_fds("supplier_parts")
    print(f"\nMinimal FDs of the full table ({len(result.fds)}):")
    for fd in result.fds:
        print(f"  {fd}")

    # Mine a projected view: does the supplier part of the schema keep
    # the same structure?
    view = table.to_relation().project(["sno", "sname", "status", "city"])
    from repro import discover

    view_result = discover(view)
    print(f"\nMinimal FDs of the supplier view ({len(view_result.fds)}):")
    for fd in view_result.fds:
        print(f"  {fd}")

    # Export the Armstrong sample of the full table.
    if result.armstrong is not None:
        sample_path = workdir / "supplier_parts_armstrong.csv"
        write_csv(
            Table.from_relation("armstrong", result.armstrong), sample_path
        )
        print(
            f"\nwrote the {len(result.armstrong)}-tuple Armstrong sample "
            f"to {sample_path}"
        )
    else:
        print("\n(no real-world Armstrong relation exists for this table)")


if __name__ == "__main__":
    main()
