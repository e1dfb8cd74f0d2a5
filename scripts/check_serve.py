#!/usr/bin/env python
"""End-to-end smoke of the discovery daemon (``make serve-smoke``).

Usage::

    python scripts/check_serve.py [--backend python|columnar] [--jobs N]
                                  [--stop shutdown|sigterm]

Boots a real ``repro serve`` process on an ephemeral port, drives the
whole session lifecycle over HTTP, and asserts the properties the
service exists to provide:

- register → append → cover/keys/armstrong round-trips, with the cover
  bit-identical to a cold in-process ``DepMiner.run`` on the same rows;
- a repeat registration of the same relation is served from the shared
  artifact store (``cache.full_hit``) without re-mining;
- failures come back as structured, typed JSON error documents (an
  unknown session is a 404 ``SessionNotFoundError``);
- every request leaves a valid run manifest in ``--telemetry-dir``;
- one client's requests share a kept-alive connection (the daemon's
  ``service.connections`` counter reads at most 2);
- ``POST /shutdown`` drains and the process exits 0, or, with
  ``--stop sigterm``, SIGTERM to the daemon's process group (as
  ``timeout`` sends it, worker pool included) stops it within 15 s.

Exits non-zero with one line per problem.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

try:
    from repro.service import RemoteServiceError, ServiceClient
except ImportError:  # running from a checkout without installation
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.service import RemoteServiceError, ServiceClient

from repro.core.depminer import DepMiner
from repro.core.relation import Relation, Schema
from repro.obs.manifest import RunManifest, validate_manifest

ROWS = [
    ["1", "x", "0", "p"],
    ["1", "x", "1", "q"],
    ["2", "y", "0", "p"],
    ["2", "z", "1", "q"],
    ["3", "z", "0", "r"],
]
ATTRIBUTES = ["a", "b", "c", "d"]
EXTRA = [["4", "w", "0", "s"], ["4", "w", "1", "s"]]
#: Seconds a stopped daemon may take to exit.
STOP_TIMEOUT = 15


def start_server(telemetry: Path, backend: str, jobs: int):
    """Launch ``repro serve``, in a process group of its own, and wait
    for its startup line."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--backend", backend, "--jobs", str(jobs),
         "--telemetry-dir", str(telemetry)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, start_new_session=True,
    )
    assert process.stdout is not None
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if line.startswith("serving on "):
            return process, line.split("serving on ", 1)[1].strip()
        if process.poll() is not None:
            break
    raise RuntimeError(
        f"server never announced itself "
        f"(exit {process.poll()}): {process.stdout.read()}"
    )


def cold_cover(rows, backend: str, jobs: int):
    relation = Relation.from_rows(Schema(ATTRIBUTES),
                                  [tuple(row) for row in rows])
    result = DepMiner(build_armstrong="none", backend=backend,
                      jobs=jobs).run(relation)
    return sorted((tuple(fd.lhs.names), fd.rhs) for fd in result.fds)


def served_cover(document):
    return sorted((tuple(fd["lhs"]), fd["rhs"])
                  for fd in document["fds"])


def drive(client: ServiceClient, backend: str, jobs: int) -> list:
    problems = []

    def expect(condition, description):
        if not condition:
            problems.append(description)

    expect(client.health()["status"] == "ok", "health check failed")

    first = client.register("smoke", attributes=ATTRIBUTES, rows=ROWS)
    sid = first["session"]["id"]
    expect(first["session"]["num_rows"] == len(ROWS),
           "register row count wrong")
    expect(served_cover(first["cover"]) == cold_cover(ROWS, backend, jobs),
           "registered cover differs from cold DepMiner.run")

    appended = client.append(sid, EXTRA)
    expect(
        served_cover(appended["cover"])
        == cold_cover(ROWS + EXTRA, backend, jobs),
        "post-append cover differs from cold DepMiner.run",
    )
    expect(client.keys(sid)["count"] >= 1, "no candidate keys found")
    armstrong = client.armstrong(sid)
    expect(armstrong["armstrong"]["num_rows"] >= 1,
           "armstrong relation is empty")

    warm = client.register("smoke-again", attributes=ATTRIBUTES,
                           rows=ROWS + EXTRA)
    expect(warm["counters"].get("cache.full_hit", 0) >= 1,
           "repeat registration did not hit the shared artifact store")
    expect(served_cover(warm["cover"]) == served_cover(appended["cover"]),
           "warm cover differs from the session it should mirror")

    try:
        client.cover("s9999-nope")
        problems.append("unknown session did not raise")
    except RemoteServiceError as error:
        expect(error.status == 404 and
               error.error_type == "SessionNotFoundError",
               f"unknown session mapped to {error.status} "
               f"{error.error_type}, wanted 404 SessionNotFoundError")

    stats = client.stats()
    expect(stats["registry"]["sessions"] == 2, "session count wrong")
    expect(stats["counters"].get("service.errors", 0) >= 1,
           "error counter did not move")
    connections = stats["counters"].get("service.connections", 0)
    expect(1 <= connections <= 2,
           f"one client's requests ran over {connections} connections, "
           f"wanted at most 2 (keep-alive)")
    return problems


def stop_by_sigterm(process) -> list:
    """SIGTERM to the daemon's whole process group, as ``timeout``
    sends it; the daemon must exit 0 within :data:`STOP_TIMEOUT`."""
    start = time.monotonic()
    os.killpg(process.pid, signal.SIGTERM)
    try:
        exit_code = process.wait(timeout=STOP_TIMEOUT)
    except subprocess.TimeoutExpired:
        return [f"daemon still running {STOP_TIMEOUT} s after SIGTERM "
                f"to its process group"]
    print(f"serve-smoke: SIGTERM to the process group: exit {exit_code} "
          f"after {time.monotonic() - start:.2f} s")
    if exit_code != 0:
        return [f"server exited {exit_code} after SIGTERM"]
    return []


def check_manifests(telemetry: Path) -> list:
    problems = []
    manifests = sorted(telemetry.glob("request-*.json"))
    if not manifests:
        return ["no request manifests were written"]
    for path in manifests:
        try:
            manifest = RunManifest.load(path)
        except Exception as error:  # noqa: BLE001 - report, don't crash
            problems.append(f"{path.name}: unreadable ({error})")
            continue
        for problem in validate_manifest(manifest.to_dict()):
            problems.append(f"{path.name}: {problem}")
        if not any(span["name"] == "service.request"
                   for span in manifest.spans):
            problems.append(f"{path.name}: no service.request span")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="python",
                        choices=("python", "columnar"))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--stop", default="shutdown",
                        choices=("shutdown", "sigterm"),
                        help="stop the daemon with POST /shutdown or with "
                             "SIGTERM to its process group")
    args = parser.parse_args(argv)

    problems = []
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        telemetry = Path(tmp) / "manifests"
        process, base_url = start_server(telemetry, args.backend,
                                         args.jobs)
        client = ServiceClient(base_url, timeout=60.0)
        try:
            problems += drive(client, args.backend, args.jobs)
            if args.stop == "sigterm":
                problems += stop_by_sigterm(process)
            else:
                reply = client.shutdown()
                if reply.get("status") != "shutting down":
                    problems.append(f"unexpected shutdown reply: {reply}")
                exit_code = process.wait(timeout=30)
                if exit_code != 0:
                    problems.append(
                        f"server exited {exit_code} after graceful shutdown"
                    )
        finally:
            client.close()
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=10)
        problems += check_manifests(telemetry)

    for problem in problems:
        print(f"serve-smoke: {problem}")
    if not problems:
        print(f"serve-smoke: OK (backend={args.backend}, "
              f"jobs={args.jobs}, stop={args.stop})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
