"""The stdlib HTTP/JSON scaffold behind ``repro serve`` and ``repro broker``.

Each daemon is a :class:`JsonServer` subclass (setup and drain hooks)
plus a :class:`JsonHandler` subclass (routes, body limit, error shape).

**Framing rule.**  Every response either consumes the request's declared
body or closes the connection after it (``Connection: close``).  A route
may answer before reading the body -- an unknown path, a draining server
-- and unread body bytes on a kept-alive connection would be parsed as
the next request.  A body within the size limit is read and discarded;
one that cannot be read (bad or oversized ``Content-Length``, chunked
transfer) closes the connection.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class BadRequest(ValueError):
    """A request body that cannot be read as JSON (answered 400)."""


class _HTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a reference to the owning daemon."""

    daemon_threads = True
    allow_reuse_address = True
    #: Set by :meth:`JsonServer.start` right after construction.
    app: "JsonServer"


class JsonHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 handler speaking JSON; subclasses add the ``do_*`` routes."""

    server: _HTTPServer
    protocol_version = "HTTP/1.1"
    #: Largest accepted request body, in bytes.
    max_body = 8 * 1024 * 1024
    #: Fields every error body carries before ``error``.
    error_fields: dict = {}
    #: Error message for an absent, empty or oversized body.
    body_required = "JSON request body required"
    #: Prefix of the error message for a body that is not UTF-8 JSON.
    malformed_json = "malformed JSON body: "

    def parse_request(self) -> bool:
        """Parse the request line and headers, noting whether a body follows."""
        ok = super().parse_request()
        self._body_unread = ok and (
            self.headers.get("Content-Length", "0") != "0"
            or "Transfer-Encoding" in self.headers
        )
        return ok

    def _read_body(self) -> bytes:
        """Consume the declared body; raises BadRequest if it cannot be read."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise BadRequest("bad Content-Length") from None
        if length <= 0 or length > self.max_body:
            raise BadRequest(self.body_required)
        self._body_unread = False
        return self.rfile.read(length)

    def read_json(self) -> object:
        """The JSON body; raises :class:`BadRequest` when it cannot be read."""
        raw = self._read_body()
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequest(f"{self.malformed_json}{exc}") from exc

    def send_json(self, status: int, body: dict) -> None:
        """Send one JSON response under the module's framing rule."""
        if self._body_unread:
            try:
                self._read_body()
            except BadRequest:
                pass
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self._body_unread:  # the body could not be consumed
            self.send_header("Connection", "close")  # sets close_connection
        self.end_headers()
        self.wfile.write(data)

    def error(self, status: int, message: str) -> None:
        """Send a one-line JSON error body."""
        self.send_json(status, {**self.error_fields, "error": message})

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr chatter (tests and CI logs)."""


class JsonServer:
    """Lifecycle of one JSON daemon: bind, serve on a thread, drain once.

    Drive it in-process with :meth:`start` / :meth:`stop` (tests), or
    call :meth:`serve_forever` (CLI).
    """

    #: Request handler class serving this daemon's routes.
    handler: type[JsonHandler] = JsonHandler
    #: Name in the listener/drain thread names and the CLI status lines.
    label = "server"

    def __init__(self, host: str, port: int) -> None:
        """Remember the bind address (nothing binds yet)."""
        self.draining = False
        self._bind = (host, port)
        self._httpd: _HTTPServer | None = None
        self._serve_thread: threading.Thread | None = None
        self._drain_lock = threading.Lock()
        self._drained = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) -- valid after :meth:`start`."""
        assert self._httpd is not None, f"{self.label} not started"
        return self._httpd.server_address[:2]

    def _setup(self) -> None:
        """Subclass hook: prepare state once the port is bound."""

    def _drain(self) -> None:
        """Subclass hook: release resources while the listener still runs."""

    def start(self) -> tuple[str, int]:
        """Bind, run :meth:`_setup`, start the listener; returns (host, port).

        With ``port=0`` the returned port is the one the OS assigned.
        """
        self._httpd = _HTTPServer(self._bind, self.handler)
        self._httpd.app = self
        self._setup()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-{self.label}-listener",
            daemon=True,
        )
        self._serve_thread.start()
        return self.address

    def stop(self) -> None:
        """Gracefully drain and shut down (idempotent).

        Sets :attr:`draining`, runs :meth:`_drain`, then stops the
        listener.  A call made while another drain runs waits for it, so
        "stop() returned" always means "fully down".
        """
        with self._drain_lock:
            if self.draining:
                self._drained.wait()
                return
            self.draining = True
        self._drain()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join()
        self._drained.set()

    def serve_forever(self) -> int:
        """CLI entry point: serve until SIGINT/SIGTERM, then drain; returns 0.

        The signal handler hands the drain to a helper thread --
        :meth:`stop` must not run on the thread executing the handler,
        which may be blocked inside the listener it is about to stop.
        """
        host, port = self.start()

        def _on_signal(signum: int, frame) -> None:
            threading.Thread(
                target=self.stop, name=f"repro-{self.label}-drain", daemon=True
            ).start()

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, _on_signal)
        print(f"repro {self.label}: listening on http://{host}:{port}",
              flush=True)
        try:
            assert self._serve_thread is not None
            while self._serve_thread.is_alive():
                self._serve_thread.join(timeout=0.2)
        finally:
            self.stop()  # no-op when the drain already ran
            for sig, old in previous.items():
                signal.signal(sig, old)
        print(f"repro {self.label}: drained", flush=True)
        return 0
