"""The discovery daemon: ``repro serve``.

A long-lived, stdlib-only HTTP+JSON service
(:class:`http.server.ThreadingHTTPServer`, one thread per request)
that keeps registered relations *warm*: each session holds an
:class:`~repro.cache.incremental.IncrementalMiner`, so appends re-mine
only the delta, and every session shares one process-wide
:class:`~repro.cache.store.ArtifactStore` — re-registering a relation
already mined (by any session, live or closed) is answered from the
cover bundle in the cache (counter ``cache.full_hit``) before a
:class:`~repro.core.relation.Relation` ever materializes.

Endpoints (see ``docs/service.md`` for the full reference)::

    GET    /health                     liveness + protocol version
    GET    /stats                      registry / cache / counter totals
    POST   /sessions                   register (csv_path | csv_text | rows)
    GET    /sessions                   list live sessions
    GET    /sessions/<id>              one session's description
    DELETE /sessions/<id>              close a session
    POST   /sessions/<id>/append       stream rows into the miner
    GET    /sessions/<id>/cover        the current minimal FD cover
    GET    /sessions/<id>/keys         minimal candidate keys
    GET    /sessions/<id>/armstrong    Armstrong relation (on demand)
    POST   /shutdown                   graceful stop (drains in-flight)

Failure semantics: every :class:`~repro.errors.ReproError` becomes a
structured JSON error document with a meaningful HTTP status
(:func:`repro.service.protocol.http_status_for`); unexpected
exceptions become 500 ``InternalError`` documents.  The daemon never
answers 200 with a cover it is not sure about.

Observability: each request runs under its own
:class:`~repro.obs.tracer.Tracer` (root span ``service.request``,
flagged as a phase) and :class:`~repro.obs.metrics.MetricsRegistry`;
counters fold into the process-wide registry served by ``/stats``, and
with ``--telemetry-dir`` every request writes a run manifest.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import signal
import tempfile
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.cache.incremental import IncrementalMiner
from repro.cache.store import ArtifactStore
from repro.columnar import load_mining_input
from repro.core.depminer import DepMiner
from repro.core.keys_mining import keys_from_agree_sets
from repro.core.relation import Relation, Schema
from repro.errors import ReproError, ServiceError
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.parallel.executor import (
    PersistentPool,
    resolve_jobs,
    resolve_start_method,
)
from repro.service import protocol
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SERVICE_NAME,
    error_document,
    http_status_for,
    keys_document,
    miner_options,
    parse_body,
    parse_rows,
    relation_document,
)
from repro.service.sessions import Session, SessionRegistry

logger = logging.getLogger(__name__)

__all__ = ["ServiceConfig", "ServiceApp", "ReproServiceServer", "serve"]

#: Request bodies above this are rejected (413) before parsing.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: ``GET .../armstrong?construction=`` → the miner's step-5 mode.
_ARMSTRONG_MODES = {
    "auto": "real-world",
    "real-world": "strict",
    "strict": "strict",
    "classical": "classical",
}


@dataclasses.dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to run the daemon."""

    host: str = "127.0.0.1"
    port: int = 8765  # 0 picks an ephemeral port (printed at startup)
    cache_dir: Optional[str] = None  # None: memory-only ArtifactStore
    max_sessions: int = 64
    session_ttl: float = 3600.0
    jobs: int = 1
    backend: str = "python"
    mp_context: Optional[str] = None  # fork/spawn for the worker pool
    telemetry_dir: Optional[str] = None
    fault_plan: Optional[str] = None
    max_memory_entries: Optional[int] = None


class ServiceApp:
    """The HTTP-free application core: routing table and handlers.

    Kept separate from the socket layer so tests can drive it directly
    (``app.handle(...)``) and the handler class stays a thin adapter.
    All shared state is thread-safe: the registry has its own lock,
    sessions serialize their requests on per-session locks, and the
    artifact store guards its memory tier internally.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        store_kwargs: Dict[str, Any] = {}
        if config.max_memory_entries is not None:
            store_kwargs["max_memory_entries"] = config.max_memory_entries
        self.store = ArtifactStore(cache_dir=config.cache_dir,
                                   **store_kwargs)
        self.registry = SessionRegistry(max_sessions=config.max_sessions,
                                        ttl_seconds=config.session_ttl)
        self.metrics = MetricsRegistry()
        self.started_unix = time.time()
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._requests = 0
        self.shutdown_requested = threading.Event()
        self.telemetry_dir = (Path(config.telemetry_dir)
                              if config.telemetry_dir else None)
        # One persistent worker pool for the whole daemon: sessions
        # whose jobs setting matches the daemon default mine on it, so
        # request N pays zero pool spin-up after request 1 (or after
        # warm_pool() at startup).  resolve_start_method validates
        # --mp-context before the socket ever binds.
        self.pool: Optional[PersistentPool] = None
        if resolve_jobs(config.jobs) > 1:
            self.pool = PersistentPool(resolve_jobs(config.jobs),
                                       mp_context=config.mp_context)
        else:
            resolve_start_method(config.mp_context)
        # With --fault-plan the plan is active for the app's whole
        # lifetime (activation is process-global, so request threads see
        # it), and injections count into the process-wide registry.
        self._fault_context = None
        if config.fault_plan:
            from repro.reliability import fault_plan_active, load_fault_plan

            plan = load_fault_plan(config.fault_plan)
            self._fault_context = fault_plan_active(plan,
                                                    metrics=self.metrics)
            self._fault_context.__enter__()

    # -- plumbing ------------------------------------------------------------

    def _miner_defaults(self) -> Dict[str, Any]:
        return {"backend": self.config.backend, "jobs": self.config.jobs}

    def warm_pool(self) -> None:
        """Fork the worker pool before serving traffic (daemon startup),
        so the first parallel request already finds it live."""
        if self.pool is not None:
            self.pool.ensure()

    def _session_pool(self, options: Dict[str, Any]):
        """The shared pool, iff the session's jobs match its worker
        count (a session overriding ``jobs`` builds its own)."""
        if (self.pool is not None and not self.pool.closed
                and resolve_jobs(options.get("jobs", 1)) == self.pool.jobs):
            return self.pool
        return None

    def handle(self, method: str, route: str, query: Dict[str, str],
               payload: Dict[str, Any], tracer: Tracer,
               metrics: MetricsRegistry) -> Tuple[Dict[str, Any], int]:
        """Route one request; raises typed errors for the handler to map."""
        parts = [part for part in route.split("/") if part]
        if parts == ["health"]:
            self._require(method, "GET")
            return self._health(), 200
        if parts == ["stats"]:
            self._require(method, "GET")
            return self._stats(), 200
        if parts == ["shutdown"]:
            self._require(method, "POST")
            self.shutdown_requested.set()
            return {"status": "shutting down",
                    "sessions_closed": self.registry.close_all()}, 200
        if parts == ["sessions"]:
            if method == "POST":
                return self._register(payload, tracer, metrics)
            self._require(method, "GET")
            return {"sessions": [session.document() for session
                                 in self.registry.sessions()]}, 200
        if len(parts) >= 2 and parts[0] == "sessions":
            session_id = parts[1]
            if len(parts) == 2:
                if method == "DELETE":
                    session = self.registry.remove(session_id)
                    return {"closed": session.document()}, 200
                self._require(method, "GET")
                session = self.registry.acquire(session_id)
                with session.lock:
                    return {"session": session.document()}, 200
            if len(parts) == 3:
                action = parts[2]
                session = self.registry.acquire(session_id)
                if action == "append":
                    self._require(method, "POST")
                    return self._append(session, payload, tracer, metrics)
                if action == "cover":
                    self._require(method, "GET")
                    return self._cover(session, metrics)
                if action == "keys":
                    self._require(method, "GET")
                    return self._keys(session, tracer)
                if action == "armstrong":
                    self._require(method, "GET")
                    return self._armstrong(session, query, tracer)
        raise ServiceError(f"no such endpoint: {method} {route}",
                           http_status=404)

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise ServiceError(
                f"method {method} not allowed here (use {expected})",
                http_status=405,
            )

    def finish_request(self, method: str, route: str, status: int,
                       tracer: Tracer, metrics: MetricsRegistry) -> None:
        """Fold per-request telemetry into process-wide state."""
        with self._lock:
            self._requests += 1
            number = self._requests
        snapshot = metrics.snapshot()
        for name, value in snapshot["counters"].items():
            self.metrics.inc(name, value)
        self.metrics.inc("service.requests")
        if status >= 400:
            self.metrics.inc("service.errors")
        if self.telemetry_dir is None:
            return
        try:
            manifest = RunManifest.build(
                command=f"serve {method} {route}",
                tracer=tracer,
                metrics=metrics,
                meta={"route": route, "method": method,
                      "status": status, "request": number,
                      "service": SERVICE_NAME},
            )
            manifest.write(self.telemetry_dir / f"request-{number:06d}.json")
        except OSError as error:
            logger.warning("could not write request manifest: %s", error)

    def close(self) -> None:
        self.registry.close_all()
        if self.pool is not None:
            self.pool.close()
        if self._fault_context is not None:
            self._fault_context.__exit__(None, None, None)
            self._fault_context = None

    # -- endpoints -----------------------------------------------------------

    def _health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "service": SERVICE_NAME,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "sessions": len(self.registry),
        }

    def _stats(self) -> Dict[str, Any]:
        with self._lock:
            requests = self._requests
        return {
            "service": SERVICE_NAME,
            "requests": requests,
            "registry": self.registry.stats(),
            "cache": dict(self.store.stats),
            "counters": self.metrics.snapshot()["counters"],
            "defaults": self._miner_defaults(),
            "pool": self.pool.stats() if self.pool is not None else None,
        }

    def _register(self, payload: Dict[str, Any], tracer: Tracer,
                  metrics: MetricsRegistry) -> Tuple[Dict[str, Any], int]:
        name = payload.get("name", "relation")
        if not isinstance(name, str) or not name:
            raise ServiceError("'name' must be a non-empty string")
        options = miner_options(payload.get("options"),
                                self._miner_defaults())

        def build(session_id: str) -> Session:
            source = self._load_source(payload, options, tracer)
            miner = DepMiner(cache=self.store, tracer=tracer,
                             metrics=metrics, build_armstrong="none",
                             pool=self._session_pool(options),
                             **options)
            incremental = IncrementalMiner(source, miner=miner)
            return Session(session_id, name, incremental, options)

        session = self.registry.register(name, build)
        with session.lock:
            document = {
                "session": session.document(),
                "cover": session.cover_document(),
                "counters": metrics.snapshot()["counters"],
            }
        return document, 201

    def _load_source(self, payload: Dict[str, Any],
                     options: Dict[str, Any], tracer: Tracer):
        """The relation being registered, from whichever source the body
        names.  Columnar sessions with a cache attached ingest straight
        to a fingerprinted code matrix, so a warm cover is served
        without materializing a Relation."""
        csv_path, csv_text = protocol.split_csv_source(payload)
        sources = sum(1 for value in (csv_path, csv_text,
                                      payload.get("rows"))
                      if value is not None)
        if sources != 1:
            raise ServiceError(
                "registration needs exactly one of 'csv_path', "
                "'csv_text' or 'rows'"
            )
        if csv_path is not None:
            path = Path(csv_path)
            if not path.is_file():
                raise ServiceError(f"no CSV file at {path}")
            return self._ingest(path, options, tracer)
        if csv_text is not None:
            handle = tempfile.NamedTemporaryFile(
                "w", suffix=".csv", delete=False, encoding="utf-8"
            )
            try:
                handle.write(csv_text)
                handle.close()
                return self._ingest(Path(handle.name), options, tracer)
            finally:
                os.unlink(handle.name)
        attributes = payload.get("attributes")
        if not (isinstance(attributes, list) and attributes
                and all(isinstance(a, str) for a in attributes)):
            raise ServiceError(
                "inline 'rows' need an 'attributes' list of column names"
            )
        rows = parse_rows(payload)
        return Relation.from_rows(Schema(attributes), rows)

    def _ingest(self, path: Path, options: Dict[str, Any],
                tracer: Tracer):
        return load_mining_input(
            path, options.get("backend", "python"),
            nulls_equal=options.get("nulls_equal", True),
            fingerprint=True, tracer=tracer,
        )

    def _append(self, session: Session, payload: Dict[str, Any],
                tracer: Tracer,
                metrics: MetricsRegistry) -> Tuple[Dict[str, Any], int]:
        rows = parse_rows(payload)
        if not rows:
            raise ServiceError("'rows' must not be empty")
        with session.lock:
            session.requests += 1
            with session.observe(tracer, metrics):
                session.miner.append(rows)
            session.appends += 1
            document = {
                "session": session.document(),
                "cover": session.cover_document(),
            }
        return document, 200

    def _cover(self, session: Session,
               metrics: MetricsRegistry) -> Tuple[Dict[str, Any], int]:
        with session.lock:
            session.requests += 1
            document = {
                "session": session.document(),
                "cover": session.cover_document(),
                "counters": metrics.snapshot()["counters"],
            }
        return document, 200

    def _keys(self, session: Session,
              tracer: Tracer) -> Tuple[Dict[str, Any], int]:
        with session.lock:
            session.requests += 1
            with tracer.span("service.keys"):
                # ag(r) was mined under the session's null semantics,
                # so the keys need no re-strip of the grown relation.
                result = session.miner.result
                keys = keys_from_agree_sets(result.agree_sets,
                                            result.schema)
            document = keys_document(keys)
            document["session"] = session.document()
        return document, 200

    def _armstrong(self, session: Session, query: Dict[str, str],
                   tracer: Tracer) -> Tuple[Dict[str, Any], int]:
        construction = query.get("construction", "auto")
        if construction not in _ARMSTRONG_MODES:
            raise ServiceError(
                f"construction must be 'auto', 'strict' or 'classical'; "
                f"got {construction!r}"
            )
        max_rows: Optional[int] = None
        if "max_rows" in query:
            try:
                max_rows = int(query["max_rows"])
            except ValueError:
                raise ServiceError("'max_rows' must be an integer") from None
        mode = _ARMSTRONG_MODES[construction]
        with session.lock:
            session.requests += 1
            result = session.miner.result
            with tracer.span("service.armstrong",
                             construction=construction):
                relation = (None if mode == "classical"
                            else session.miner.relation())
                # The miner's own step 5: "strict" raises
                # ArmstrongExistenceError (409) when the domains are too
                # small and the caller insisted on real-world values.
                real_world, classical = \
                    session.miner.miner.armstrong_relations(
                        result.schema, result.max_union, relation, mode,
                        tracer,
                    )
            if real_world is None:
                used, armstrong = "classical", classical
            else:
                used, armstrong = "real-world", real_world
            document = {
                "construction": used,
                "armstrong": relation_document(armstrong,
                                               max_rows=max_rows),
                "session": session.document(),
            }
        return document, 200


class _ServiceHandler(BaseHTTPRequestHandler):
    """Thin HTTP adapter over :class:`ServiceApp`."""

    protocol_version = "HTTP/1.1"
    server_version = f"{SERVICE_NAME}/{PROTOCOL_VERSION}"

    # BaseHTTPRequestHandler logs to stderr by default; route through
    # the module logger so `repro serve -q` stays quiet.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        app: ServiceApp = self.server.app  # type: ignore[attr-defined]
        parsed = urllib.parse.urlsplit(self.path)
        route = parsed.path.rstrip("/") or "/"
        query = dict(urllib.parse.parse_qsl(parsed.query))
        tracer = Tracer()
        metrics = MetricsRegistry()
        status = 500
        try:
            with tracer.span("service.request", phase=True,
                             method=method, route=route):
                payload = parse_body(self._read_body(method))
                document, status = app.handle(
                    method, route, query, payload, tracer, metrics
                )
        except ReproError as error:
            status = http_status_for(error)
            document = error_document(error)
            logger.info("%s %s -> %d %s: %s", method, route, status,
                        type(error).__name__, error)
        except Exception as error:  # noqa: BLE001 - daemon must not die
            status = 500
            document = error_document(error)
            logger.exception("%s %s failed unexpectedly", method, route)
        document.setdefault("protocol", PROTOCOL_VERSION)
        # Fold telemetry (and write the request manifest) *before* the
        # response goes out: a client that reads its answer and
        # immediately asks /stats must see this request's counters.
        try:
            app.finish_request(method, route, status, tracer, metrics)
        except Exception:  # noqa: BLE001 - telemetry must not kill replies
            logger.exception("per-request telemetry failed")
        self._send_json(status, document)
        if app.shutdown_requested.is_set():
            self._trigger_shutdown()

    def _read_body(self, method: str) -> bytes:
        if method not in ("POST", "PUT"):
            return b""
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            raise ServiceError("malformed Content-Length header") from None
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                http_status=413,
            )
        return self.rfile.read(length) if length else b""

    def _send_json(self, status: int, document: Dict[str, Any]) -> None:
        import json

        body = json.dumps(document).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            logger.debug("client went away before the response was sent")

    def _trigger_shutdown(self) -> None:
        server = self.server
        if getattr(server, "_shutdown_started", False):
            return
        server._shutdown_started = True  # type: ignore[attr-defined]

        def stop() -> None:
            # shutdown() blocks until serve_forever returns; it must run
            # off the serve_forever thread.  Closing the listening
            # socket right after makes further connection attempts fail
            # fast instead of queueing in the accept backlog forever.
            server.shutdown()
            server.server_close()

        threading.Thread(target=stop, name="repro-serve-shutdown").start()


class ReproServiceServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ServiceApp`.

    ``daemon_threads`` stays False (with ``block_on_close``) so a
    graceful shutdown — ``POST /shutdown`` or SIGTERM — drains every
    in-flight request before the process exits; no client ever sees a
    connection die mid-mine.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, config: ServiceConfig,
                 app: Optional[ServiceApp] = None):
        self.app = app if app is not None else ServiceApp(config)
        self.config = config
        self._shutdown_started = False
        super().__init__((config.host, config.port), _ServiceHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve(config: ServiceConfig) -> int:
    """Run the daemon until SIGTERM/SIGINT or ``POST /shutdown``.

    Prints one parseable startup line — ``serving on http://HOST:PORT``
    (the actual port, also when ``--port 0`` asked for an ephemeral
    one) — that ``scripts/check_serve.py`` and the benchmark harness
    wait for.  With ``--fault-plan`` the whole server lifetime runs
    under :func:`repro.reliability.fault_plan_active` (activated by the
    app itself), so injected faults surface through the structured
    error responses.
    """
    server = ReproServiceServer(config)
    app = server.app

    def _signal_shutdown(signum: int, frame: Any) -> None:
        logger.info("signal %d: shutting down", signum)
        app.shutdown_requested.set()
        threading.Thread(target=server.shutdown,
                         name="repro-serve-shutdown").start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _signal_shutdown)
        except ValueError:  # not the main thread (tests drive serve())
            break

    app.warm_pool()
    print(f"serving on http://{config.host}:{server.port}", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        app.close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    logger.info("server stopped after %d requests",
                app.metrics.snapshot()["counters"].get(
                    "service.requests", 0))
    return 0
