"""Closed-loop traffic against a ``repro serve`` daemon.

A round spawns ``repro serve --port 0 --backend columnar`` (timed until
``/health`` answers), registers the two shared sessions, then runs one
thread per client over that client's fixed, seeded operation list, block
by block: each client sends its next request only when the previous one
has answered.
Every response is checked; at the end each live session's served cover
and keys are compared with a cold ``DepMiner.run`` and ``discover_keys``
on the same grown relation.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from cells import BLOCK_OPS, Op, SERVE_POOL
from common import ROOT, child_env, cover_digest_of_document, cover_digest_of_fds
from stats import Tally

from repro.service.client import RemoteServiceError, ServiceClient

#: Request kinds that report as reads.
READS = ("cover", "armstrong")
DAEMON_START_TIMEOUT = 60.0


def expected_pool_covers(pool: Sequence[Path]) -> List[str]:
    """Cover digest of a cold columnar run on each pool CSV: what every
    registration of that CSV must serve."""
    from repro.columnar.ingest import ingest_csv
    from repro.core.depminer import DepMiner

    miner = DepMiner(backend="columnar", build_armstrong="none")
    return [cover_digest_of_fds(miner.run(ingest_csv(path)).fds)
            for path in pool]


class Daemon:
    """One ``repro serve`` subprocess; a context manager that always
    stops and reaps it."""

    def __init__(self):
        self.process: Optional[subprocess.Popen] = None
        self.url = ""
        self.setup_s = 0.0

    def __enter__(self) -> "Daemon":
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--backend", "columnar"],
            cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.url = line.split()[-1]
        client = ServiceClient(self.url, timeout=5.0)
        deadline = time.monotonic() + DAEMON_START_TIMEOUT
        while True:
            try:
                if client.health().get("status") == "ok":
                    break
            except RemoteServiceError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon never answered /health")
            time.sleep(0.01)
        self.setup_s = time.perf_counter() - start
        return self

    def client(self) -> ServiceClient:
        return ServiceClient(self.url, timeout=120.0)

    def stop(self) -> None:
        process = self.process
        if process is None or process.poll() is not None:
            return
        try:
            ServiceClient(self.url, timeout=5.0).shutdown()
        except RemoteServiceError:
            pass
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=15)

    def __exit__(self, *_exc) -> bool:
        self.stop()
        if self.process is not None and self.process.stdout is not None:
            self.process.stdout.close()
        return False


@dataclass
class RoundResult:
    """Latencies (ms) by request kind, and by scheduled operation, of one
    round on one daemon; the wall time of each block."""

    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: ``(client, index in its schedule)`` → ``(kind, ms)``.
    per_op: Dict[Tuple[int, int], Tuple[str, float]] = field(
        default_factory=dict)
    block_walls: List[float] = field(default_factory=list)
    ops: int = 0
    stats: Optional[dict] = None
    appends: int = 0

    def add(self, kind: str, ms: float,
            key: Optional[Tuple[int, int]] = None) -> None:
        self.latencies.setdefault(kind, []).append(ms)
        if key is not None:
            self.per_op[key] = (kind, ms)

    @property
    def wall_s(self) -> float:
        return sum(self.block_walls)


class _Sessions:
    """Where each session's relation stands: its base CSV and the rows
    appended so far (appends to a shared session arrive in any order;
    the grown relation is the same set of rows either way)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.ids: Dict[str, str] = {}
        self.base: Dict[str, int] = {}
        self.rows: Dict[str, List[tuple]] = {}

    def open(self, slot: str, session_id: str, pool: int) -> None:
        with self._lock:
            self.ids[slot] = session_id
            self.base[slot] = pool
            self.rows[slot] = []

    def grow(self, slot: str, rows: Sequence[tuple]) -> None:
        with self._lock:
            self.rows[slot].extend(rows)

    def close(self, slot: str) -> str:
        with self._lock:
            self.base.pop(slot)
            self.rows.pop(slot)
            return self.ids.pop(slot)


class Traffic:
    """The closed loop on one fresh daemon, run block by block so its
    samples can be spread over a whole run.

    *expected* holds the cold cover digest of each pool CSV: every
    registration must serve exactly that cover.
    """

    def __init__(self, pool_paths: Sequence[Path], expected: Sequence[str],
                 schedules: Sequence[Sequence[Op]], tally: Tally,
                 result: RoundResult):
        self.pool_paths = pool_paths
        self.expected = expected
        self.schedules = schedules
        self.tally = tally
        self.result = result
        self.sessions = _Sessions()
        self.daemon = Daemon()
        self.blocks = len(schedules[0]) // BLOCK_OPS

    def __enter__(self) -> "Traffic":
        self.daemon.__enter__()
        self.clients = [self.daemon.client() for _ in self.schedules]
        for shared in range(2):
            self._register(f"shared-{shared}", shared % SERVE_POOL,
                           self.clients[0])
        return self

    def __exit__(self, *exc) -> bool:
        return self.daemon.__exit__(*exc)

    def _register(self, slot: str, pool: int, client: ServiceClient,
                  key: Optional[Tuple[int, int]] = None) -> None:
        tally = self.tally
        tally.attempt()
        start = time.perf_counter()
        try:
            document = client.register(
                f"{slot}-{pool}", csv_path=str(self.pool_paths[pool]))
        except RemoteServiceError as error:
            tally.miss("refused", f"register {slot}: {error}")
            return
        self.result.add("register", (time.perf_counter() - start) * 1e3, key)
        tally.check(
            cover_digest_of_document(document["cover"]) == self.expected[pool],
            f"register {slot}: served cover differs from a cold run",
        )
        self.sessions.open(slot, document["session"]["id"], pool)

    def _client(self, number: int, ops: Sequence[Op], first: int) -> None:
        """Operations ``first``, ``first + 1``, … of client *number*."""
        client = self.clients[number]
        private = f"private-{number}"
        for index, op in enumerate(ops, first):
            key = (number, index)
            if op.kind == "register":
                self._register(private, op.pool, client, key)
                continue
            slot = private if op.target == "private" else op.target
            session_id = self.sessions.ids.get(slot)
            if session_id is None:  # the private registration failed
                self.tally.attempt()
                self.tally.miss("failed", f"{op.kind}: no session {slot}")
                continue
            _issue(client, op, slot, session_id, self.sessions, self.tally,
                   self.result, key)

    def block(self, index: int) -> None:
        """Block *index* of every client's schedule, clients concurrent."""
        chunks = [ops[index * BLOCK_OPS:(index + 1) * BLOCK_OPS]
                  for ops in self.schedules]
        threads = [
            threading.Thread(target=self._client,
                             args=(number, ops, index * BLOCK_OPS),
                             name=f"perfbench-client-{number}")
            for number, ops in enumerate(chunks)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.result.block_walls.append(time.perf_counter() - start)
        self.result.ops += sum(len(ops) for ops in chunks)
        self.result.appends += sum(
            1 for ops in chunks for op in ops if op.kind == "append"
        )

    def finish(self, fetch_stats: bool = False) -> None:
        client = self.clients[0]
        if fetch_stats:
            self.result.stats = client.stats()
        _check_final(client, self.pool_paths, self.sessions, self.tally)


def best_of_rounds(rounds: Sequence[RoundResult]
                   ) -> Dict[Tuple[int, int], Tuple[str, float]]:
    """Each scheduled operation's fastest latency over *rounds*; one
    refused in every round is absent."""
    best: Dict[Tuple[int, int], Tuple[str, float]] = {}
    for result in rounds:
        for key, (kind, ms) in result.per_op.items():
            if key not in best or ms < best[key][1]:
                best[key] = (kind, ms)
    return best


def run_round(pool_paths: Sequence[Path], expected: Sequence[str],
              schedules: Sequence[Sequence[Op]], tally: Tally,
              result: RoundResult, fetch_stats: bool = False) -> None:
    """Every block of the schedules on one fresh daemon."""
    with Traffic(pool_paths, expected, schedules, tally, result) as traffic:
        for index in range(traffic.blocks):
            traffic.block(index)
        traffic.finish(fetch_stats)


def _issue(client: ServiceClient, op: Op, slot: str, session_id: str,
           sessions: _Sessions, tally: Tally, result: RoundResult,
           key: Tuple[int, int]) -> None:
    tally.attempt()
    start = time.perf_counter()
    try:
        if op.kind == "cover":
            document = client.cover(session_id)
        elif op.kind == "armstrong":
            document = client.armstrong(session_id)
        elif op.kind == "keys":
            document = client.keys(session_id)
        elif op.kind == "append":
            document = client.append(session_id, op.rows)
        elif op.kind == "close":
            document = client.close(session_id)
        else:
            raise ValueError(f"unknown operation {op.kind!r}")
    except RemoteServiceError as error:
        tally.miss("refused", f"{op.kind} {slot}: {error}")
        return
    result.add(op.kind, (time.perf_counter() - start) * 1e3, key)
    if op.kind == "append":
        sessions.grow(slot, op.rows)
        tally.check(document["cover"]["num_rows"] >= len(op.rows),
                    f"append {slot}: row count did not grow")
    elif op.kind == "close":
        sessions.close(slot)
        tally.check(document["closed"]["id"] == session_id,
                    f"close {slot}: closed another session")
    elif op.kind == "cover":
        tally.check(document["cover"]["count"] == len(document["cover"]["fds"]),
                    f"cover {slot}: count and FD list disagree")
    elif op.kind == "armstrong":
        tally.check(document["armstrong"]["num_rows"] >= 2,
                    f"armstrong {slot}: fewer than two tuples")
    elif op.kind == "keys":
        tally.check(document["count"] == len(document["keys"]),
                    f"keys {slot}: count and key list disagree")


def _check_final(client: ServiceClient, pool_paths: Sequence[Path],
                 sessions: _Sessions, tally: Tally) -> None:
    """Each live session's served cover and keys against a cold run on
    its grown relation."""
    from repro.core.depminer import DepMiner
    from repro.core.keys_mining import discover_keys
    from repro.core.relation import Relation
    from repro.storage.csv_io import relation_from_csv

    for slot, session_id in sorted(sessions.ids.items()):
        base = relation_from_csv(pool_paths[sessions.base[slot]])
        grown = Relation.from_rows(
            base.schema, list(base.rows()) + sessions.rows[slot]
        )
        cold = DepMiner(backend="columnar", build_armstrong="none").run(grown)
        tally.attempt(2)
        try:
            served = client.cover(session_id)["cover"]
            keys = client.keys(session_id)["keys"]
        except RemoteServiceError as error:
            tally.miss("refused", f"final check {slot}: {error}")
            return
        tally.check(
            served["num_rows"] == len(grown)
            and cover_digest_of_document(served)
            == cover_digest_of_fds(cold.fds),
            f"final {slot}: served cover differs from a cold run",
        )
        cold_keys = sorted(sorted(key.names) for key in discover_keys(grown))
        tally.check(sorted(sorted(key) for key in keys) == cold_keys,
                    f"final {slot}: served keys differ from a cold run")
