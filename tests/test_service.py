"""The discovery daemon (``repro serve``) over live HTTP.

Every test here talks to a real :class:`ReproServiceServer` bound to an
ephemeral port on localhost — request threads, JSON (de)serialization,
error mapping and session locking are all exercised end-to-end, not
mocked.  The core guarantees under test:

- a session's cover after any register/append sequence is bit-identical
  to a cold :class:`~repro.core.depminer.DepMiner` run on the same
  rows, for every backend × jobs combination the daemon offers;
- N concurrent clients spread over M sessions neither corrupt any
  session nor observe another session's answers;
- re-registering a known relation is served from the shared artifact
  store (``cache.full_hit``) without re-mining;
- failures — malformed requests, unknown sessions, injected storage
  faults — come back as structured JSON error documents with typed
  names and meaningful HTTP statuses, and the daemon stays up.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.columnar import numpy_available
from repro.core.depminer import DepMiner
from repro.core.relation import Relation, Schema
from repro.service import (
    ReproServiceServer,
    ServiceClient,
    ServiceConfig,
    RemoteServiceError,
)


@pytest.fixture
def service():
    """Factory fixture: ``start(**config)`` → (server, client)."""
    running = []

    def start(**overrides):
        overrides.setdefault("port", 0)
        server = ReproServiceServer(ServiceConfig(**overrides))
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.02},
            name="test-serve",
        )
        thread.start()
        running.append((server, thread))
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               timeout=60.0)
        return server, client

    yield start
    for server, thread in running:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()


ROWS = [
    [1, "x", 0, "p"],
    [1, "x", 1, "q"],
    [2, "y", 0, "p"],
    [2, "z", 1, "q"],
    [3, "z", 0, "r"],
]
ATTRIBUTES = ["a", "b", "c", "d"]


def cover_set(document):
    """A cover document as a comparable set of (lhs names, rhs)."""
    return {(tuple(fd["lhs"]), fd["rhs"]) for fd in document["fds"]}


def cold_cover(rows, attributes, **miner_options):
    relation = Relation.from_rows(Schema(attributes),
                                  [tuple(row) for row in rows])
    result = DepMiner(build_armstrong="none", **miner_options).run(relation)
    return {(tuple(fd.lhs.names), fd.rhs) for fd in result.fds}


class TestLifecycle:
    def test_register_append_query_close(self, service, tmp_path):
        _, client = service()
        health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == 1

        csv_text = "a,b,c,d\n" + "\n".join(
            ",".join(str(v) for v in row) for row in ROWS
        )
        doc = client.register("people", csv_text=csv_text)
        sid = doc["session"]["id"]
        assert doc["session"]["num_rows"] == 5
        # CSV values arrive as strings; cover shape matches the typed run
        assert cover_set(doc["cover"]) == cold_cover(
            [[str(v) for v in row] for row in ROWS], ATTRIBUTES
        )

        appended = client.append(sid, [["4", "w", "0", "s"],
                                       ["4", "w", "1", "s"]])
        assert appended["session"]["num_rows"] == 7
        assert appended["session"]["appends"] == 1
        assert cover_set(appended["cover"]) == cold_cover(
            [[str(v) for v in row] for row in ROWS]
            + [["4", "w", "0", "s"], ["4", "w", "1", "s"]],
            ATTRIBUTES,
        )

        keys = client.keys(sid)
        assert keys["count"] == len(keys["keys"]) >= 1

        armstrong = client.armstrong(sid)
        assert armstrong["construction"] in ("real-world", "classical")
        assert armstrong["armstrong"]["num_rows"] >= 1
        assert armstrong["armstrong"]["attributes"] == ATTRIBUTES

        listed = client.sessions()
        assert [s["id"] for s in listed] == [sid]

        closed = client.close(sid)
        assert closed["closed"]["id"] == sid
        with pytest.raises(RemoteServiceError) as excinfo:
            client.cover(sid)
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "SessionNotFoundError"

    def test_register_from_server_side_path(self, service, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("a,b\n1,x\n1,x\n2,y\n")
        _, client = service()
        doc = client.register("file", csv_path=str(path))
        assert doc["session"]["num_rows"] == 3
        assert doc["cover"]["attributes"] == ["a", "b"]

    def test_idle_sessions_are_evicted(self, service):
        _, client = service(session_ttl=0.3)
        doc = client.register("ephemeral", attributes=ATTRIBUTES,
                              rows=ROWS)
        sid = doc["session"]["id"]
        assert client.cover(sid)["session"]["id"] == sid
        time.sleep(0.6)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.cover(sid)
        assert excinfo.value.status == 404
        assert client.stats()["registry"]["evicted"] == 1

    def test_session_limit_is_typed(self, service):
        # with an infinite TTL nothing is idle-evictable
        _, client = service(max_sessions=2, session_ttl=0.0)
        for name in ("one", "two"):
            doc = client.register(name, attributes=ATTRIBUTES, rows=ROWS)
            client.cover(doc["session"]["id"])  # keep them fresh
        with pytest.raises(RemoteServiceError) as excinfo:
            client.register("three", attributes=ATTRIBUTES, rows=ROWS)
        assert excinfo.value.status == 429
        assert excinfo.value.error_type == "SessionLimitError"


class TestErrorDocuments:
    def test_unknown_route_is_404(self, service):
        _, client = service()
        with pytest.raises(RemoteServiceError) as excinfo:
            client.request("GET", "/no/such/thing")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "ServiceError"

    def test_wrong_method_is_405(self, service):
        _, client = service()
        with pytest.raises(RemoteServiceError) as excinfo:
            client.request("POST", "/health", {})
        assert excinfo.value.status == 405

    def test_malformed_body_is_400(self, service):
        _, client = service()
        with pytest.raises(RemoteServiceError) as excinfo:
            client.register("bad", attributes=ATTRIBUTES,
                            rows=[[1, 2], [3]])  # ragged
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("options,named", [
        pytest.param({"turbo": True}, "turbo", id="unknown-key"),
        pytest.param({"backend": "columnar", "algorithm": "identifiers"},
                     "identifiers", id="columnar-identifiers",
                     marks=pytest.mark.skipif(
                         not numpy_available(),
                         reason="columnar backend needs NumPy")),
    ])
    def test_unknown_option_is_400(self, service, options, named):
        _, client = service()
        with pytest.raises(RemoteServiceError) as excinfo:
            client.register("bad", attributes=ATTRIBUTES, rows=ROWS,
                            options=options)
        assert excinfo.value.status == 400
        assert named in str(excinfo.value)

    def test_injected_storage_fault_is_structured(self, service,
                                                  tmp_path):
        """A fault-plan run answers with typed error JSON, not a 500
        stack trace — and the daemon survives to serve the next request."""
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"name": "serve-faults", "seed": 11, "faults": ['
            '{"site": "storage.read", "kind": "error", '
            '"error": "OSError", "message": "injected: disk gone", '
            '"probability": 1.0}]}'
        )
        csv = tmp_path / "rel.csv"
        csv.write_text("a,b\n1,x\n2,y\n")
        _, client = service(fault_plan=str(plan))
        with pytest.raises(RemoteServiceError) as excinfo:
            client.register("doomed", csv_path=str(csv))
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "StorageError"
        assert "injected" in str(excinfo.value)
        # inline rows skip the faulted site; the daemon still works
        doc = client.register("survivor", attributes=["a", "b"],
                              rows=[[1, "x"], [2, "y"]])
        assert doc["session"]["num_rows"] == 2


class TestDifferential:
    @pytest.mark.parametrize("backend", ["python", "columnar"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cover_matches_cold_run(self, service, backend, jobs):
        """Warm daemon answers == cold library answers, whole grid."""
        _, client = service(backend=backend, jobs=jobs)
        doc = client.register("grid", attributes=ATTRIBUTES, rows=ROWS,
                              options={"backend": backend, "jobs": jobs})
        sid = doc["session"]["id"]
        expected = cold_cover(ROWS, ATTRIBUTES, backend=backend,
                              jobs=jobs)
        assert cover_set(doc["cover"]) == expected

        extra = [[5, "w", 1, "t"], [5, "w", 0, "t"], [6, "x", 1, "p"]]
        appended = client.append(sid, extra)
        assert cover_set(appended["cover"]) == cold_cover(
            ROWS + extra, ATTRIBUTES, backend=backend, jobs=jobs
        )

    def test_repeat_registration_hits_shared_store(self, service):
        """Second registration of the same relation is a cache hit."""
        _, client = service()
        first = client.register("one", attributes=ATTRIBUTES, rows=ROWS)
        assert first["counters"].get("cache.full_hit", 0) == 0
        second = client.register("two", attributes=ATTRIBUTES, rows=ROWS)
        assert second["counters"]["cache.full_hit"] == 1
        # no agree-set enumeration happened on the warm path
        assert "agree.couples_enumerated" not in second["counters"]
        assert cover_set(first["cover"]) == cover_set(second["cover"])
        # process-wide totals aggregate per-request counters
        assert client.stats()["counters"]["cache.full_hit"] == 1


KEYED_CSV = "a,b,c\n1,,x\n2,,x\n3,5,y\n"
KEYED_ROWS = [(1, None, "x"), (2, None, "x"), (3, 5, "y")]


class TestSessionState:
    """Reads answered from what a session already holds: keys from its
    ``ag(r)``, one cover document per mining result."""

    @pytest.mark.parametrize("sql_nulls", [False, True],
                             ids=["nulls-equal", "sql-nulls"])
    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_keys_after_appends_match_discover_keys(self, service, backend,
                                                    sql_nulls):
        from repro.core.keys_mining import discover_keys

        if backend == "columnar" and not numpy_available():
            pytest.skip("columnar backend needs NumPy")
        _, client = service(backend=backend)
        doc = client.register("keyed", csv_text=KEYED_CSV,
                              options={"backend": backend,
                                       "sql_nulls": sql_nulls})
        sid = doc["session"]["id"]
        batches = [[(4, None, "y")], [(1, 6, "z")]]
        for batch in batches:
            client.append(sid, batch)
        grown = Relation.from_rows(
            Schema(["a", "b", "c"]),
            KEYED_ROWS + [row for batch in batches for row in batch],
        )
        expected = [list(key.names) for key in
                    discover_keys(grown, nulls_equal=not sql_nulls)]
        served = client.keys(sid)
        assert served["keys"] == expected
        assert served["count"] == len(expected)
        # the null semantics reach the keys: b is unique only under SQL
        assert (["b"] in expected) == sql_nulls

    def test_cover_document_built_once_per_result(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import Tracer
        from repro.service import protocol
        from repro.service.server import ServiceApp

        built = []
        cover_document = protocol.cover_document

        def counting_cover_document(result):
            built.append(result)
            return cover_document(result)

        monkeypatch.setattr(protocol, "cover_document",
                            counting_cover_document)
        app = ServiceApp(ServiceConfig(port=0))

        def call(method, route, payload=None):
            document, status = app.handle(method, route, {}, payload or {},
                                          Tracer(), MetricsRegistry())
            assert status in (200, 201)
            return document

        try:
            registered = call("POST", "/sessions",
                              {"name": "memo", "attributes": ATTRIBUTES,
                               "rows": ROWS})
            sid = registered["session"]["id"]
            first = call("GET", f"/sessions/{sid}/cover")
            second = call("GET", f"/sessions/{sid}/cover")
            assert len(built) == 1
            assert first["cover"] == second["cover"] == registered["cover"]
            # the session part stays per request
            assert (first["session"]["requests"],
                    second["session"]["requests"]) == (1, 2)

            extra = [[5, "w", 1, "t"], [5, "w", 0, "t"]]
            appended = call("POST", f"/sessions/{sid}/append",
                            {"rows": extra})
            assert len(built) == 2
            grown = call("GET", f"/sessions/{sid}/cover")
            assert len(built) == 2
            assert grown["cover"] == appended["cover"]
            assert grown["cover"]["num_rows"] == len(ROWS) + len(extra)
            assert cover_set(grown["cover"]) == cold_cover(ROWS + extra,
                                                           ATTRIBUTES)
        finally:
            app.close()


class TestConcurrentSessions:
    def test_many_clients_many_sessions(self, service):
        """8 client threads across 4 sessions: every cover exact."""
        _, client = service()
        datasets = {}
        sessions = {}
        for m in range(4):
            rows = [[(i * (m + 2)) % 5, f"v{(i + m) % 3}", i % 2]
                    for i in range(10)]
            doc = client.register(f"m{m}", attributes=["a", "b", "c"],
                                  rows=rows)
            datasets[m] = rows
            sessions[m] = doc["session"]["id"]

        batches = {
            m: [[[100 + m * 10 + j, f"w{j % 4}", j % 3]]
                for j in range(6)]
            for m in range(4)
        }
        errors = []
        barrier = threading.Barrier(8)

        def worker(m, do_appends):
            own = ServiceClient(client.base_url, timeout=60.0)
            barrier.wait()
            try:
                if do_appends:
                    for batch in batches[m]:
                        own.append(sessions[m], batch)
                else:
                    for _ in range(6):
                        own.cover(sessions[m])
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(m, which))
                   for m in range(4) for which in (True, False)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]

        for m in range(4):
            final = client.cover(sessions[m])
            all_rows = datasets[m] + [row for batch in batches[m]
                                      for row in batch]
            assert final["session"]["num_rows"] == len(all_rows)
            assert cover_set(final["cover"]) == cold_cover(
                all_rows, ["a", "b", "c"]
            )


class TestShutdown:
    def test_shutdown_endpoint_drains(self, service):
        server, client = service()
        doc = client.register("last", attributes=ATTRIBUTES, rows=ROWS)
        reply = client.shutdown()
        assert reply["status"] == "shutting down"
        assert reply["sessions_closed"] == 1
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                client.health()
            except RemoteServiceError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("server still answering after /shutdown")


class TestTelemetry:
    def test_per_request_manifests(self, service, tmp_path):
        from repro.obs.manifest import RunManifest, validate_manifest

        telemetry = tmp_path / "manifests"
        _, client = service(telemetry_dir=str(telemetry))
        doc = client.register("traced", attributes=ATTRIBUTES, rows=ROWS)
        client.cover(doc["session"]["id"])
        manifests = sorted(telemetry.glob("request-*.json"))
        assert len(manifests) == 2
        for path in manifests:
            manifest = RunManifest.load(path)
            assert validate_manifest(manifest.to_dict()) == []
            names = [span["name"] for span in manifest.spans]
            assert "service.request" in names
