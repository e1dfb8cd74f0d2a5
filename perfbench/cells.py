"""Seeded inputs of the benchmark: the relation cells and the serve schedule.

Every input is a pure function of the workload seed, so two runs with the
same ``--seed`` mine byte-identical CSVs and replay the same operations.
The synthetic cells come from :mod:`repro.datagen.synthetic` (the paper's
§5.2 generator); the edge shapes below are the benchmark's own.

The relations and the serve schedule are built once from ``BASE_SEED``;
a run's seed picks an isomorphic copy of them (:func:`disguise`): rows in
another order and each column's values renamed.  Every seed then asks the
miners and the daemon for the same work on different bytes, so what
differs between runs is the host, not the input.  (Drawn afresh per
seed, a 10×1500 serve relation's cover ranges from 450 to 750 FDs.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.attributes import Schema
from repro.core.relation import Relation
from repro.datagen.synthetic import generate_columns, SyntheticSpec
from repro.storage.csv_io import relation_to_csv

#: Seed the relations and the serve schedule are built from.
BASE_SEED = 0

#: Attributes of the lane-boundary relation: masks cross bit 63.
LANE_WIDTH = 70

#: Width, rows and c of the relations the serve traffic registers.
SERVE_SHAPE = (10, 1500, 0.5)
SERVE_POOL = 4

#: Rows per append request, and the op mix of one 20-operation block:
#: 60% reads, 5% keys, 25% appends, 10% register/close.
APPEND_ROWS = 10
BLOCK = (("register", 1), ("cover", 6), ("armstrong", 6), ("keys", 1),
         ("append", 5), ("close", 1))
BLOCK_OPS = sum(count for _, count in BLOCK)
#: Closed-loop clients, blocks per client in one serve round, and the
#: rounds (each on a fresh daemon) an end-to-end run replays.
CLIENTS = 2
SERVE_BLOCKS = 2
SERVE_ROUNDS = 6


@dataclass(frozen=True)
class Cell:
    """One input relation: a name, a shape note and how to build it."""

    name: str
    kind: str
    width: int
    rows: int
    correlation: Optional[float] = None

    def build(self, seed: int) -> Relation:
        if self.kind == "synthetic":
            return synthetic(self.width, self.rows, self.correlation, seed)
        if self.kind == "key-heavy":
            return key_heavy(self.width, self.rows, seed)
        if self.kind == "near-constant":
            return near_constant(self.width, self.rows, seed)
        if self.kind == "lane-boundary":
            return lane_boundary(self.rows, seed)
        raise ValueError(f"unknown cell kind {self.kind!r}")


#: The mining cells of each workload, rescaled from paper-scale sizes so
#: a pass over all four arms fits several times into one run.
CELLS: Dict[str, Tuple[Cell, ...]] = {
    "tall": (
        Cell("tall-20x500-cnone", "synthetic", 20, 500, None),
        Cell("tall-20x500-c50", "synthetic", 20, 500, 0.5),
        Cell("key-heavy-30x1000", "key-heavy", 30, 1000),
        Cell("near-constant-12x300", "near-constant", 12, 300),
    ),
    "wide": (
        Cell("wide-22x500-c70", "synthetic", 22, 500, 0.7),
        Cell("wide-20x300-c50", "synthetic", 20, 300, 0.5),
        Cell("lane-boundary-70x150", "lane-boundary", LANE_WIDTH, 150),
    ),
}

#: The CSVs the serve traffic registers, the same in every workload.
POOL = tuple(Cell(f"serve-pool-{index}", "synthetic", *SERVE_SHAPE)
             for index in range(SERVE_POOL))

#: The cell a cold ``repro discover`` process mines: the heaviest tall
#: cell, the widest wide one.
CLI_CELL = {"tall": 1, "wide": 2}


def cell_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def synthetic(width: int, rows: int, correlation: Optional[float],
              seed: int) -> Relation:
    spec = SyntheticSpec(width, rows, correlation, seed=seed)
    return Relation.from_columns(Schema.of_width(width),
                                 generate_columns(spec))


def key_heavy(width: int, rows: int, seed: int) -> Relation:
    """Every column a shuffled permutation: no couples, all ingest."""
    columns = []
    for attribute in range(width):
        column = list(range(rows))
        random.Random(f"{seed}/key/{attribute}").shuffle(column)
        columns.append(column)
    return Relation.from_columns(Schema.of_width(width), columns)


def near_constant(width: int, rows: int, seed: int) -> Relation:
    """Column 0 holds one value in 99.9% of the rows (~rows²/2 couples);
    the others are the paper's c = 0.5 columns."""
    spec = SyntheticSpec(width - 1, rows, 0.5, seed=seed)
    rng = random.Random(f"{seed}/near-constant")
    rare = set(rng.sample(range(rows), max(1, rows // 1000)))
    constant = [rows + row if row in rare else 0 for row in range(rows)]
    return Relation.from_columns(Schema.of_width(width),
                                 [constant] + generate_columns(spec))


def lane_boundary(rows: int, seed: int) -> Relation:
    """A 70-attribute relation whose agree sets straddle bit 63.

    The construction of the conformance oracle's wide relation: six low
    random columns, constant columns over bits 6–63, a copy of column 0
    at bit 64, a random binary column at bit 65 and four more constant
    columns.  Every agreeing couple sets bits on both sides of bit 63,
    and the constant columns leave no real-world Armstrong relation, so
    the classical construction is used.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(rows):
        low = [rng.randint(0, 2) for _ in range(6)]
        out.append(tuple(low + [7] * 58 + [low[0], rng.randint(0, 1)]
                         + [7] * 4))
    schema = Schema([f"A{index:02d}" for index in range(LANE_WIDTH)])
    return Relation.from_rows(schema, out)


def renaming(seed: int, tag: str, size: int) -> List[int]:
    """A seeded permutation of ``range(size)``: value ``v`` becomes
    ``renaming[v]``."""
    names = list(range(size))
    random.Random(f"{seed}/{tag}").shuffle(names)
    return names


def disguise(relation: Relation, seed: int, tag: str,
             names: Optional[Sequence[Sequence[int]]] = None) -> Relation:
    """An isomorphic copy of *relation*: its rows in a seeded order and
    each column's values renamed by a seeded permutation (*names*, one
    per column, or one of ``range(largest value + 1)`` drawn here).  The
    copy has the same dependencies, partitions and Armstrong relations up
    to renaming, so mining it is the same work."""
    rows = list(relation.rows())
    random.Random(f"{seed}/{tag}/rows").shuffle(rows)
    if names is None:
        names = [renaming(seed, f"{tag}/{attribute}",
                          max(relation.column(attribute)) + 1)
                 for attribute in range(len(relation.schema))]
    return Relation.from_rows(relation.schema, [
        tuple(column_names[value] for column_names, value in zip(names, row))
        for row in rows
    ])


def serve_names(seed: int) -> List[List[int]]:
    """The value renaming shared by the serve CSVs and appended rows."""
    return [renaming(seed, f"serve/{attribute}", _serve_domain())
            for attribute in range(SERVE_SHAPE[0])]


def _serve_domain() -> int:
    _, rows, correlation = SERVE_SHAPE
    return max(1, round((1.0 - correlation) * rows))


def write_cells(workload: str, seed: int, directory: Path) -> List[Path]:
    """Write the workload's cells as CSVs; return their paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, cell in enumerate(CELLS[workload]):
        relation = cell.build(cell_seed(BASE_SEED, index))
        paths.append(_write(disguise(relation, seed, cell.name),
                            directory, cell.name))
    return paths


def write_serve_pool(seed: int, directory: Path) -> List[Path]:
    """The CSVs the serve traffic registers."""
    directory.mkdir(parents=True, exist_ok=True)
    names = serve_names(seed)
    return [_write(disguise(cell.build(cell_seed(BASE_SEED, index)), seed,
                            cell.name, names), directory, cell.name)
            for index, cell in enumerate(POOL)]


def _write(relation: Relation, directory: Path, name: str) -> Path:
    path = directory / f"{name}.csv"
    relation_to_csv(relation, path, name=name)
    return path


def write_warmup(directory: Path) -> Path:
    """A tiny CSV the arms mine once before timing (lazy imports)."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "warmup.csv"
    relation_to_csv(synthetic(6, 60, 0.5, seed=1), path)
    return path


# -- the serve traffic ---------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One request of the closed loop.

    ``target`` is ``"shared-0"``/``"shared-1"`` (sessions every client
    uses) or ``"private"`` (the issuing client's own session); ``pool``
    is the CSV a registration names; ``rows`` the rows an append sends.
    """

    kind: str
    target: str = "private"
    pool: int = 0
    rows: Tuple[Tuple[int, ...], ...] = ()


def append_rows(rng: random.Random, names: Sequence[Sequence[int]]
                ) -> Tuple[Tuple[int, ...], ...]:
    domain = _serve_domain()
    return tuple(
        tuple(column_names[rng.randrange(domain)] for column_names in names)
        for _ in range(APPEND_ROWS)
    )


def client_schedule(seed: int, client: int, blocks: int) -> List[Op]:
    """The fixed operation sequence of one client.

    Each 20-operation block registers a private session first and
    closes it last; the 18 operations between are shuffled and aim at
    the private session or at one of the two shared sessions.  The
    sequence is drawn from ``BASE_SEED``; *seed* renames the values of
    the appended rows as it renames those of the serve CSVs.
    """
    names = serve_names(seed)
    rng = random.Random(f"{BASE_SEED}/client/{client}")
    ops: List[Op] = []
    for _ in range(blocks):
        middle = [kind for kind, count in BLOCK[1:-1] for _ in range(count)]
        rng.shuffle(middle)
        ops.append(Op("register", pool=rng.randrange(SERVE_POOL)))
        for kind in middle:
            target = rng.choice(("shared-0", "shared-1", "private"))
            rows = append_rows(rng, names) if kind == "append" else ()
            ops.append(Op(kind, target=target, rows=rows))
        ops.append(Op("close"))
    return ops


def schedule(seed: int, clients: int, blocks: int) -> List[List[Op]]:
    return [client_schedule(seed, client, blocks)
            for client in range(clients)]
