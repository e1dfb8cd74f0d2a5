"""Paths, output digests and memory probes shared by the benchmark's files.

Importing this module puts the checkout's ``src/`` first on ``sys.path``
so the benchmark always measures the program in its own checkout.
"""

from __future__ import annotations

import hashlib
import os
import signal
import sys
import time
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of a run (CSVs, traces); ignored by git.
WORK = ROOT / ".perfbench"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    sources first, no stray thread pools inflating the two cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.setdefault("OMP_NUM_THREADS", "1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env["PYTHONHASHSEED"] = "0"
    return env


# -- output digests --------------------------------------------------------------

def cover_lines(pairs: Iterable[Tuple[Sequence[str], str]]) -> List[str]:
    """Canonical text of an FD cover given ``(lhs names, rhs)`` pairs."""
    return sorted(",".join(sorted(lhs)) + "->" + rhs for lhs, rhs in pairs)


def cover_digest_of_fds(fds) -> str:
    return _digest(cover_lines((fd.lhs.names, fd.rhs) for fd in fds))


def cover_digest_of_document(document: dict) -> str:
    """Digest of a served ``cover`` document (same canonical form)."""
    return _digest(cover_lines(
        (fd["lhs"], fd["rhs"]) for fd in document["fds"]
    ))


def armstrong_of(result):
    """``(construction, relation)``: the real-world Armstrong relation,
    or the classical one when Proposition 1 rules the former out."""
    if result.armstrong is not None:
        return "real-world", result.armstrong
    return "classical", result.classical_armstrong


def result_digest(result) -> str:
    """Digest of one mining output: the cover and the Armstrong relation."""
    construction, relation = armstrong_of(result)
    lines = cover_lines((fd.lhs.names, fd.rhs) for fd in result.fds)
    lines.append(f"-- {construction} {len(relation)}")
    lines.extend(repr(row) for row in relation.rows())
    return _digest(lines)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.strip().encode("utf-8")).hexdigest()[:16]


def _digest(lines: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


# -- memory ----------------------------------------------------------------------

def _status_kib(pid, field: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def child_pids() -> List[int]:
    pids: List[int] = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children",
                      encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except (OSError, ValueError):
            continue
    return pids


def peak_rss_mb(include_children: bool = True) -> float:
    """Peak resident set (VmHWM) of this process plus, optionally, that
    of each live child, in MiB."""
    total = _status_kib("self", "VmHWM") or 0
    if include_children:
        total += sum(_status_kib(pid, "VmHWM") or 0 for pid in child_pids())
    return total / 1024.0


def current_rss_mb() -> float:
    return (_status_kib("self", "VmRSS") or 0) / 1024.0


def reset_peak_rss() -> bool:
    """Reset this process's VmHWM to its current RSS (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


# -- process lifetime ------------------------------------------------------------

#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the reaper of every descendant that outlives its
    parent (a pool worker, a multiprocessing resource tracker), so
    :func:`stop_children` can wait for it.  Linux only; False elsewhere."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def stop_children(grace_s: float = 10.0) -> None:
    """Return only once this process has no child left: each gets
    *grace_s* to end on its own, then SIGTERM, then SIGKILL."""
    try:  # a tracker this process started ends only when told to
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:  # noqa: BLE001 - absent or already stopped
        pass
    deadline = time.monotonic() + grace_s
    escalate = iter([signal.SIGTERM])
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            sent = next(escalate, signal.SIGKILL)
            for child in child_pids():
                try:
                    os.kill(child, sent)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 2.0
        time.sleep(0.01)
