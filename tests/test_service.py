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
  names and meaningful HTTP statuses, and the daemon stays up;
- reads are served from documents built and encoded once per mining
  result, JSON-equal to fresh builds, over kept-alive connections that
  never hold up a shutdown.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro

from repro.columnar import numpy_available
from repro.core.depminer import DepMiner
from repro.core.relation import Relation, Schema
from repro.errors import ArmstrongExistenceError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.service import (
    ReproServiceServer,
    ServiceClient,
    ServiceConfig,
    RemoteServiceError,
)
from repro.service import protocol
from repro.service import server as server_module


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
        # Deactivates a --fault-plan, which is process-global: left to
        # the garbage collector, it reached later tests' registrations.
        server.app.close()


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

    def test_stats_reports_the_pool_lifecycle(self, service):
        _, client = service(jobs=2)
        client.register("pooled", attributes=ATTRIBUTES, rows=ROWS)
        pool = client.stats()["pool"]
        assert set(pool) == {"workers", "live", "builds", "reuses", "maps"}
        assert pool["workers"] == 2
        _, serial = service()
        assert serial.stats()["pool"] is None

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


class TestArmstrongEndpoint:
    """``GET .../armstrong`` runs the session miner's own step 5, so
    every construction serves the row-wise builders' relation on both
    backends, and the 409 comes exactly when no real-world sample
    exists and the caller insists on one."""

    @staticmethod
    def _relation(sample):
        """``(attributes, rows)``: the paper's running example, which has
        a real-world sample, or a relation whose columns hold too few
        distinct values for one."""
        if sample == "without-sample":
            return ["A", "B", "C"], [[0, 0, 0], [1, 0, 1], [1, 1, 0]]
        from repro.datasets import paper_example_relation

        relation = paper_example_relation()
        return (list(relation.schema.names),
                [list(row) for row in relation.rows()])

    @pytest.mark.parametrize("sample", ["with-sample", "without-sample"])
    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_every_construction_matches_the_row_wise_builders(
        self, service, backend, sample
    ):
        from repro.core.armstrong import (
            classical_armstrong,
            real_world_armstrong,
            real_world_armstrong_exists,
        )
        from repro.service.protocol import relation_document

        if backend == "columnar" and not numpy_available():
            pytest.skip("columnar backend needs NumPy")
        attributes, rows = self._relation(sample)
        relation = Relation.from_rows(Schema(attributes),
                                      [tuple(row) for row in rows])
        union = DepMiner(build_armstrong="none").run(relation).max_union
        exists = real_world_armstrong_exists(relation, union)
        assert exists == (sample == "with-sample")
        classical = ("classical", relation_document(
            classical_armstrong(relation.schema, union)
        ))
        real_world = ("real-world", relation_document(
            real_world_armstrong(relation, union)
        )) if exists else None
        expected = {
            "auto": real_world or classical,
            "real-world": real_world,
            "strict": real_world,
            "classical": classical,
        }

        _, client = service()
        sid = client.register("armstrong", attributes=attributes, rows=rows,
                              options={"backend": backend})["session"]["id"]
        for construction, want in expected.items():
            if want is None:
                with pytest.raises(RemoteServiceError) as excinfo:
                    client.armstrong(sid, construction)
                assert excinfo.value.status == 409, construction
                assert excinfo.value.error_type == "ArmstrongExistenceError"
                continue
            document = client.armstrong(sid, construction)
            assert (document["construction"],
                    document["armstrong"]) == want, construction


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


def paper_relation():
    """``(attributes, rows)`` of the paper's running example, which has a
    real-world Armstrong sample."""
    from repro.datasets import paper_example_relation

    relation = paper_example_relation()
    return (list(relation.schema.names),
            [list(row) for row in relation.rows()])


PAPER_EXTRA = [[4, 2, 70, "Admission", 12], [5, 6, 91, "Physics", 5]]


def built_armstrong(relation, max_union, construction, max_rows=None):
    """``(construction used, document)`` from the row-wise builders, or
    None where no real-world sample exists and one is insisted on."""
    from repro.core.armstrong import (
        classical_armstrong,
        real_world_armstrong,
        real_world_armstrong_exists,
    )

    classical = ("classical", protocol.relation_document(
        classical_armstrong(relation.schema, max_union), max_rows))
    if construction == "classical":
        return classical
    if real_world_armstrong_exists(relation, max_union):
        return ("real-world", protocol.relation_document(
            real_world_armstrong(relation, max_union), max_rows))
    return classical if construction == "auto" else None


def json_equal(served, built):
    """*served* equals *built* once both are JSON; a session part is
    compared without its idle clock, which ticks between the two."""
    served, built = json.loads(json.dumps(served)), \
        json.loads(json.dumps(built))
    for document in (served, built):
        if "session" in document:
            document["session"].pop("idle_seconds")
    return served == built


def read_raw(sock):
    """Everything a connection sends until the server closes it, split
    into (head, body)."""
    received = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    return head, body


class TestEncodedDocuments:
    def test_encode_response_matches_json_dumps(self):
        cover = protocol.EncodedDocument({"fds": [{"lhs": ["a"], "rhs": "b"}],
                                          "count": 1, "name": "é"})
        keys = protocol.EncodedDocument({"keys": [["a"]], "count": 1})
        envelope = {"session": {"id": "s1", "requests": 2}, "cover": cover,
                    "counters": {}, "protocol": 1}
        spread = protocol.merged(keys, session={"id": "s1"})
        spread.setdefault("protocol", 1)
        for document in (envelope, spread,
                         protocol.merged(protocol.EncodedDocument({}),
                                         session={"id": "s1"})):
            assert protocol.encode_response(document) == \
                json.dumps(document).encode("utf-8")
        assert dict(spread) == {"keys": [["a"]], "count": 1,
                                "session": {"id": "s1"}, "protocol": 1}

    def test_cover_document_shares_one_name_list_per_lhs(self):
        attributes, rows = paper_relation()
        relation = Relation.from_rows(Schema(attributes),
                                      [tuple(row) for row in rows])
        result = DepMiner(build_armstrong="none").run(relation)
        document = protocol.cover_document(result)
        assert document["fds"] == [{"lhs": list(fd.lhs.names),
                                    "rhs": fd.rhs} for fd in result.fds]
        lists = {tuple(fd["lhs"]): id(fd["lhs"]) for fd in document["fds"]}
        assert len(set(lists.values())) == len(
            {fd.lhs.mask for fd in result.fds})


class TestServedDocuments:
    """Every response is JSON-equal to a document built afresh by the
    protocol builders, although reads come from per-result memos."""

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_every_endpoint_matches_the_builders(self, service, backend):
        from repro.core.keys_mining import keys_from_agree_sets

        if backend == "columnar" and not numpy_available():
            pytest.skip("columnar backend needs NumPy")
        server, client = service(backend=backend)
        app = server.app
        attributes, rows = paper_relation()
        relation = Relation.from_rows(Schema(attributes),
                                      [tuple(row) for row in rows])

        registered = client.register("docs", attributes=attributes,
                                     rows=rows)
        sid = registered["session"]["id"]
        session = app.registry.acquire(sid)

        def envelope(**parts):
            return {"session": session.document(), **parts, "protocol": 1}

        assert json_equal(registered, envelope(
            cover=protocol.cover_document(session.miner.result),
            counters=registered["counters"]))
        for _ in range(2):  # the first read after a build, then a memo hit
            served = client.cover(sid)
            assert json_equal(served, envelope(
                cover=protocol.cover_document(session.miner.result),
                counters=served["counters"]))
            result = session.miner.result
            assert json_equal(client.keys(sid), {
                **protocol.keys_document(keys_from_agree_sets(
                    result.agree_sets, result.schema)),
                "session": session.document(), "protocol": 1})
            for construction in ("auto", "real-world", "strict",
                                 "classical"):
                for max_rows in (None, 3):
                    used, document = built_armstrong(
                        relation, result.max_union, construction, max_rows)
                    served = client.armstrong(sid, construction, max_rows)
                    assert json_equal(served, {
                        "construction": used, "armstrong": document,
                        "session": session.document(), "protocol": 1,
                    }), (construction, max_rows)

        appended = client.append(sid, PAPER_EXTRA)
        assert json_equal(appended, envelope(
            cover=protocol.cover_document(session.miner.result)))

        # error documents: the builders' own, status for status
        without = client.register(
            "no-sample", attributes=["A", "B", "C"],
            rows=[[0, 0, 0], [1, 0, 1], [1, 1, 0]])["session"]["id"]
        for method, route, payload, query, status in (
            ("GET", "/sessions/s9999-nope/cover", {}, {}, 404),
            ("POST", "/health", {}, {}, 405),
            ("GET", "/no/such/thing", {}, {}, 404),
            ("POST", "/sessions", {"name": "bad", "attributes": ["a"],
                                   "rows": "nope"}, {}, 400),
            ("GET", f"/sessions/{without}/armstrong", {},
             {"construction": "strict"}, 409),
        ):
            with pytest.raises(ReproError) as excinfo:
                app.handle(method, route, query, payload, Tracer(),
                           MetricsRegistry())
            assert protocol.http_status_for(excinfo.value) == status
            query_string = "".join(f"?{k}={v}" for k, v in query.items())
            with pytest.raises(RemoteServiceError) as remote:
                client.request(method, route + query_string,
                               payload or None)
            assert remote.value.status == status
            built = protocol.error_document(excinfo.value)
            assert remote.value.error_type == built["error"]["type"]
            assert str(remote.value).endswith(built["error"]["message"])

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_reads_after_an_append_match_fresh_builds(self, service,
                                                      backend):
        from repro.core.keys_mining import discover_keys

        if backend == "columnar" and not numpy_available():
            pytest.skip("columnar backend needs NumPy")
        _, client = service(backend=backend)
        attributes, rows = paper_relation()
        sid = client.register("grow", attributes=attributes,
                              rows=rows)["session"]["id"]
        constructions = ("auto", "real-world", "strict", "classical")
        for construction in constructions:  # fill every memo first
            try:
                client.armstrong(sid, construction)
            except RemoteServiceError:
                pass
        client.keys(sid)
        client.append(sid, PAPER_EXTRA)

        grown = Relation.from_rows(
            Schema(attributes), [tuple(row) for row in rows + PAPER_EXTRA])
        cold = DepMiner(build_armstrong="none", backend=backend).run(grown)
        cover = client.cover(sid)["cover"]
        assert cover["num_rows"] == len(grown)
        assert cover["count"] == len(cold.fds)
        assert cover_set(cover) == {(tuple(fd.lhs.names), fd.rhs)
                                    for fd in cold.fds}
        assert client.keys(sid)["keys"] == [
            list(key.names) for key in discover_keys(grown)]
        for construction in constructions:
            want = built_armstrong(grown, cold.max_union, construction)
            if want is None:
                with pytest.raises(RemoteServiceError) as excinfo:
                    client.armstrong(sid, construction)
                assert excinfo.value.status == 409
                continue
            served = client.armstrong(sid, construction)
            assert (served["construction"], served["armstrong"]) == want


class TestReadMemo:
    """Each read document is built once per mining result."""

    @staticmethod
    def _app(monkeypatch):
        from repro.service.server import ServiceApp

        built = []
        armstrong_relations = DepMiner.armstrong_relations
        keys_from_agree_sets = server_module.keys_from_agree_sets

        def spy_armstrong(miner, schema, max_union, relation, mode, tracer):
            built.append(mode)
            return armstrong_relations(miner, schema, max_union, relation,
                                       mode, tracer)

        def spy_keys(agree_sets, schema):
            built.append("keys")
            return keys_from_agree_sets(agree_sets, schema)

        monkeypatch.setattr(DepMiner, "armstrong_relations", spy_armstrong)
        monkeypatch.setattr(server_module, "keys_from_agree_sets", spy_keys)
        app = ServiceApp(ServiceConfig(port=0))

        def call(method, route, payload=None, query=None):
            document, status = app.handle(method, route, query or {},
                                          payload or {}, Tracer(),
                                          MetricsRegistry())
            assert status in (200, 201)
            return document

        return app, call, built

    def test_each_read_is_built_once_per_result(self, monkeypatch):
        app, call, built = self._app(monkeypatch)
        try:
            attributes, rows = paper_relation()
            sid = call("POST", "/sessions",
                       {"name": "memo", "attributes": attributes,
                        "rows": rows})["session"]["id"]
            route = f"/sessions/{sid}"

            def read_everything():
                for _ in range(3):
                    call("GET", f"{route}/keys")
                    for construction in ("auto", "real-world", "strict",
                                         "classical"):
                        for query in ({}, {"max_rows": "3"}):
                            call("GET", f"{route}/armstrong",
                                 query={"construction": construction,
                                        **query})

            read_everything()
            assert sorted(built) == ["classical", "keys", "real-world",
                                     "strict"]
            call("POST", f"{route}/append", {"rows": PAPER_EXTRA})
            assert len(built) == 4  # an append builds none of them
            read_everything()
            assert sorted(built) == sorted(2 * ["classical", "keys",
                                                "real-world", "strict"])
        finally:
            app.close()

    def test_a_refused_construction_is_not_remembered(self, monkeypatch):
        app, call, built = self._app(monkeypatch)
        try:
            sid = call("POST", "/sessions",
                       {"name": "no-sample", "attributes": ["A", "B", "C"],
                        "rows": [[0, 0, 0], [1, 0, 1], [1, 1, 0]]}
                       )["session"]["id"]
            for attempt in range(1, 4):
                with pytest.raises(ArmstrongExistenceError):
                    app.handle("GET", f"/sessions/{sid}/armstrong",
                               {"construction": "strict"}, {}, Tracer(),
                               MetricsRegistry())
                assert built == ["strict"] * attempt
        finally:
            app.close()


class TestKeepAlive:
    def test_one_client_uses_one_connection(self, service):
        _, client = service()
        sid = client.register("kept", attributes=ATTRIBUTES,
                              rows=ROWS)["session"]["id"]
        for _ in range(10):
            client.cover(sid)
            client.keys(sid)
            client.armstrong(sid)
        client.append(sid, [[9, "v", 1, "s"]])
        with pytest.raises(RemoteServiceError):
            client.cover("s9999-nope")  # an error keeps the connection
        assert client.stats()["counters"]["service.connections"] == 1

    def test_each_thread_keeps_its_own_connection(self, service):
        _, client = service()
        sid = client.register("kept", attributes=ATTRIBUTES,
                              rows=ROWS)["session"]["id"]
        errors = []

        def reader():
            try:
                for _ in range(5):
                    client.cover(sid)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        assert client.stats()["counters"]["service.connections"] == 4

    def test_close_and_context_manager(self, service):
        server, client = service()
        with ServiceClient(client.base_url) as scoped:
            assert scoped.health()["status"] == "ok"
        assert scoped.health()["status"] == "ok"  # reopens on demand
        scoped.close()
        assert client.stats()["counters"]["service.connections"] == 3

    def test_idle_connection_dropped_by_the_server_is_retried_once(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(server_module, "KEEPALIVE_IDLE_SECONDS", 0.2)
        _, client = service()
        registered = client.register("idle", attributes=ATTRIBUTES,
                                     rows=ROWS)
        sid = registered["session"]["id"]
        time.sleep(0.8)  # past the idle limit: the server closes it
        batch = [[7, "u", 0, "s"], [8, "u", 1, "s"]]
        appended = client.append(sid, batch)
        assert appended["session"]["num_rows"] == len(ROWS) + len(batch)
        assert appended["session"]["appends"] == 1
        assert client.stats()["counters"]["service.connections"] == 2

    def test_a_timed_out_request_is_not_retried(self, service,
                                                monkeypatch):
        server, client = service()
        sid = client.register("slow", attributes=ATTRIBUTES,
                              rows=ROWS)["session"]["id"]
        appends = []
        handle = server.app.handle

        def slow_handle(method, route, *args):
            if route.endswith("/append"):
                appends.append(route)
                time.sleep(0.6)
            return handle(method, route, *args)

        monkeypatch.setattr(server.app, "handle", slow_handle)
        hasty = ServiceClient(client.base_url, timeout=0.2)
        hasty.health()  # the append below goes out on a reused connection
        with pytest.raises(RemoteServiceError) as excinfo:
            hasty.append(sid, [[7, "u", 0, "s"]])
        assert excinfo.value.status == 0
        assert excinfo.value.error_type == "ConnectionError"
        time.sleep(0.8)  # the server finishes the one append it got
        assert appends == [f"/sessions/{sid}/append"]
        assert client.session(sid)["session"]["num_rows"] == len(ROWS) + 1

    def test_an_oversized_body_closes_its_connection(self, service,
                                                     monkeypatch):
        _, client = service()
        sid = client.register("big", attributes=ATTRIBUTES,
                              rows=ROWS)["session"]["id"]
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.append(sid, [["x" * 100, "y", 0, "z"]])
        assert excinfo.value.status == 413
        assert client.health()["status"] == "ok"
        assert client.stats()["counters"]["service.connections"] == 2

    @pytest.mark.parametrize("request_bytes,status", [
        pytest.param(b"POST /sessions HTTP/1.1\r\nHost: t\r\n"
                     b"Content-Length: nope\r\n\r\n", 400,
                     id="malformed-length"),
        pytest.param(b"GET /health HTTP/1.1\r\nHost: t\r\n"
                     b"Content-Length: 5\r\n\r\nhello", 200,
                     id="body-on-get"),
    ])
    def test_an_unread_body_closes_its_connection(self, service,
                                                  request_bytes, status):
        server, client = service()
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as raw:
            raw.sendall(request_bytes)
            head, body = read_raw(raw)  # returns once the server closes
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["protocol"] == 1
        assert client.health()["status"] == "ok"

    def test_pipelined_requests_are_answered_in_order(self, service):
        server, _ = service()
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as raw:
            raw.sendall(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n"
                        b"GET /nope HTTP/1.1\r\nHost: t\r\n"
                        b"Connection: close\r\n\r\n")
            start = time.monotonic()
            head, rest = read_raw(raw)
        # the second request sat in the handler's read buffer: it is
        # answered at once, not after the idle limit
        assert time.monotonic() - start < 2.0
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"HTTP/1.1 404 " in rest


def _idle_clients(base_url, count=2):
    """Clients each holding an open, idle kept-alive connection."""
    clients = [ServiceClient(base_url) for _ in range(count)]
    for idle in clients:
        assert idle.health()["status"] == "ok"
    return clients


class TestShutdownWithOpenConnections:
    """Handlers parked on idle connections never hold up a stop."""

    def test_shutdown_and_server_close(self, service):
        server, client = service()
        idle = _idle_clients(client.base_url)
        start = time.monotonic()
        server.shutdown()
        server.server_close()
        assert time.monotonic() - start < 2.0
        for idle_client in idle:  # held open through the stop
            idle_client.close()

    def test_shutdown_endpoint(self, service):
        _, client = service()
        idle = _idle_clients(client.base_url)
        start = time.monotonic()
        assert client.shutdown()["status"] == "shutting down"
        stoppers = [thread for thread in threading.enumerate()
                    if thread.name == "repro-serve-shutdown"]
        assert stoppers
        for thread in stoppers:
            thread.join(timeout=2.0)
            assert not thread.is_alive()
        assert time.monotonic() - start < 2.0
        for idle_client in idle:  # held open through the stop
            idle_client.close()

    @pytest.mark.skipif(os.name == "nt", reason="needs POSIX signals")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sigterm_to_a_serve_process_group(self, jobs):
        """SIGTERM to the daemon's process group, as ``timeout`` sends
        it; with ``--jobs 2`` the group holds the worker pool too."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(jobs)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, start_new_session=True,
        )
        try:
            line = process.stdout.readline()
            assert line.startswith("serving on "), line
            idle = _idle_clients(line.split()[-1])
            os.killpg(process.pid, signal.SIGTERM)
            assert process.wait(timeout=2.0) == 0
            for idle_client in idle:  # held open through the stop
                idle_client.close()
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
            process.stdout.close()
