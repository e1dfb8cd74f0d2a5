"""A tiny stdlib client for the discovery daemon.

Used by the test suite, ``scripts/check_serve.py`` and
``benchmarks/bench_serve.py``; applications are equally welcome to
speak the JSON protocol directly (``docs/service.md``).

Server-side typed errors are re-raised client-side as
:class:`RemoteServiceError` carrying the HTTP status and the original
error type name, so ``except ReproError`` keeps working across the
wire.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.service.protocol import PROTOCOL_VERSION

__all__ = ["RemoteServiceError", "ServiceClient"]


class RemoteServiceError(ReproError):
    """The daemon answered with a structured error document."""

    def __init__(self, message: str, status: int,
                 error_type: str = "InternalError"):
        super().__init__(message)
        self.status = status
        self.error_type = error_type

    def __str__(self) -> str:
        return (f"[{self.status} {self.error_type}] "
                f"{super().__str__()}")


class _Slot:
    """One thread's connection, closed when the thread's locals go."""

    __slots__ = ("connection", "__weakref__")

    def __init__(self, connection: http.client.HTTPConnection):
        self.connection = connection

    def __del__(self) -> None:
        self.connection.close()


class ServiceClient:
    """Blocking JSON-over-HTTP client, one instance per server.

    Each thread that uses the client keeps one HTTP/1.1 connection open
    across its requests.  A request is retried once, on a fresh
    connection, only when a *reused* connection fails before any byte of
    the response arrives (the daemon closed it while idle) and the
    failure is not a timeout: the daemon closes connections only between
    requests, so the retried request was never applied.  :meth:`close`
    — or leaving a ``with`` block — closes every connection the client
    holds.
    """

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"not an http(s) URL: {base_url!r}")
        self._connection_class = (http.client.HTTPSConnection
                                  if url.scheme == "https"
                                  else http.client.HTTPConnection)
        self._address = (url.hostname, url.port)
        self._prefix = url.path
        self._local = threading.local()
        self._lock = threading.Lock()
        self._slots: "weakref.WeakSet[_Slot]" = weakref.WeakSet()

    # -- transport -----------------------------------------------------------

    def request(self, method: str, route: str,
                payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, reason, raw = self._exchange(method, self._prefix + route,
                                             body, headers)
        if not 200 <= status < 300:
            text = raw.decode("utf-8", "replace")
            try:
                document = json.loads(text)
            except json.JSONDecodeError:
                raise RemoteServiceError(text.strip() or reason,
                                         status) from None
            detail = document.get("error", {})
            raise RemoteServiceError(
                detail.get("message", reason), status,
                detail.get("type", "InternalError"),
            )
        document = json.loads(raw.decode("utf-8"))
        protocol = document.get("protocol")
        if protocol is not None and protocol > PROTOCOL_VERSION:
            raise RemoteServiceError(
                f"server speaks protocol {protocol}, this client "
                f"understands {PROTOCOL_VERSION}", 0, "ProtocolError",
            )
        return document

    def _exchange(self, method: str, path: str, body: Optional[bytes],
                  headers: Dict[str, str]) -> Tuple[int, str, bytes]:
        """One round trip on this thread's connection: (status, reason,
        body), with the single retry of a stale kept-alive connection."""
        retried = False
        while True:
            connection = self._connection()
            reused = connection.sock is not None
            stage = "send"
            try:
                connection.request(method, path, body=body,
                                   headers=headers)
                stage = "status"
                response = connection.getresponse()
                stage = "body"
                return response.status, response.reason, response.read()
            except (OSError, http.client.HTTPException) as error:
                self._discard()
                if (reused and not retried and stage != "body"
                        and isinstance(error, (ConnectionResetError,
                                               BrokenPipeError))):
                    retried = True
                    continue
                if stage == "send":
                    raise RemoteServiceError(
                        f"cannot reach {self.base_url}: {error}", 0,
                        "ConnectionError",
                    ) from None
                # The connection died mid-response (e.g. the daemon
                # closed the socket while shutting down).
                raise RemoteServiceError(
                    f"connection to {self.base_url} failed: {error!r}", 0,
                    "ConnectionError",
                ) from None

    def _connection(self) -> http.client.HTTPConnection:
        slot = getattr(self._local, "slot", None)
        if slot is None:
            host, port = self._address
            slot = _Slot(self._connection_class(host, port,
                                                timeout=self.timeout))
            self._local.slot = slot
            with self._lock:
                self._slots.add(slot)
        return slot.connection

    def _discard(self) -> None:
        slot = getattr(self._local, "slot", None)
        if slot is not None:
            del self._local.slot
            slot.connection.close()

    def close(self, session_id: Optional[str] = None
              ) -> Optional[Dict[str, Any]]:
        """Without arguments, close every connection this client holds
        (a later request opens a new one).  With a *session_id*, close
        that session on the daemon (``DELETE /sessions/<id>``) and
        return the response."""
        if session_id is not None:
            return self.request("DELETE", f"/sessions/{session_id}")
        with self._lock:
            slots = list(self._slots)
        for slot in slots:
            slot.connection.close()
        return None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- endpoints -----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/health")

    def stats(self) -> Dict[str, Any]:
        return self.request("GET", "/stats")

    def register(self, name: str = "relation", *,
                 csv_path: Optional[str] = None,
                 csv_text: Optional[str] = None,
                 attributes: Optional[Sequence[str]] = None,
                 rows: Optional[Sequence[Sequence[Any]]] = None,
                 options: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"name": name}
        if csv_path is not None:
            payload["csv_path"] = csv_path
        if csv_text is not None:
            payload["csv_text"] = csv_text
        if rows is not None:
            payload["rows"] = [list(row) for row in rows]
        if attributes is not None:
            payload["attributes"] = list(attributes)
        if options:
            payload["options"] = options
        return self.request("POST", "/sessions", payload)

    def sessions(self) -> List[Dict[str, Any]]:
        return self.request("GET", "/sessions")["sessions"]

    def session(self, session_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/sessions/{session_id}")

    def append(self, session_id: str,
               rows: Sequence[Sequence[Any]]) -> Dict[str, Any]:
        return self.request("POST", f"/sessions/{session_id}/append",
                            {"rows": [list(row) for row in rows]})

    def cover(self, session_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/sessions/{session_id}/cover")

    def keys(self, session_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/sessions/{session_id}/keys")

    def armstrong(self, session_id: str,
                  construction: Optional[str] = None,
                  max_rows: Optional[int] = None) -> Dict[str, Any]:
        route = f"/sessions/{session_id}/armstrong"
        params = []
        if construction is not None:
            params.append(f"construction={construction}")
        if max_rows is not None:
            params.append(f"max_rows={max_rows}")
        if params:
            route += "?" + "&".join(params)
        return self.request("GET", route)

    def shutdown(self) -> Dict[str, Any]:
        return self.request("POST", "/shutdown")
