"""The unix-socket shell around :class:`~repro.serve.service.ServeService`.

JSON lines over ``AF_UNIX``: each connection sends one request per line
and reads one or more response frames per request.  The server is
deliberately thin — parsing, validation, backpressure and execution all
live in the protocol and service layers; this module only moves bytes
and enforces the connection-level contracts:

* an oversized line (no newline within :data:`MAX_REQUEST_BYTES`) gets a
  structured ``bad-request`` and the connection is closed (the rest of
  the line cannot be re-synchronised);
* a malformed line gets a structured error and the connection stays
  usable;
* a streamed submit receives coalesced ``update`` frames (latest
  snapshot, never a backlog) and exactly one terminal frame;
* a dying client never takes the daemon with it — broken pipes end that
  connection's thread and nothing else.
"""

from __future__ import annotations

import socket
import threading
from pathlib import Path
from typing import Optional

from repro.serve import protocol
from repro.serve.lifecycle import ServeRequest
from repro.serve.protocol import MAX_REQUEST_BYTES, ServeError
from repro.serve.service import ServeService

#: Streaming poll interval: how often a streamer re-checks for progress
#: (frames are only sent when the request version actually moved).
_STREAM_TICK = 0.25


class ServeServer:
    """Accept loop + per-connection threads over one :class:`ServeService`."""

    def __init__(self, service: ServeService, socket_path) -> None:
        self.service = service
        self.socket_path = Path(socket_path)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: list = []  # (thread, socket) per accepted connection
        self._conn_lock = threading.Lock()
        self._closing = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind the socket (replacing a stale one) and start accepting."""
        try:
            self.socket_path.unlink()
        except OSError:
            pass
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(self.socket_path))
        listener.listen(64)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True,
        )
        self._accept_thread.start()

    def shutdown(self, grace: Optional[float] = None) -> bool:
        """Graceful stop: drain the service, then tear the socket down.

        Returns:
            ``True`` if the drain finished all accepted work in time
            (``False`` leftovers stay journaled for the next start).
        """
        drained = self.service.drain(grace)
        self._closing.set()
        if self._listener is not None:
            # ``close()`` alone does not wake a thread blocked in
            # ``accept()``; shutting the socket down does.
            _hang_up(self._listener, socket.SHUT_RDWR)
            try:
                self._listener.close()
            except OSError:
                pass
        try:
            self.socket_path.unlink()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._conn_lock:
            conns = list(self._conns)
        for thread, conn in conns:
            # An idle connection's ``readline`` returns EOF; the write side
            # stays open, so a streamer still sends its terminal frame.
            _hang_up(conn, socket.SHUT_RD)
            thread.join(timeout=5.0)
        self.service.stop()
        return drained

    # -- accept / dispatch -------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True,
                name="repro-serve-conn",
            )
            with self._conn_lock:
                self._conns = [(t, c) for t, c in self._conns if t.is_alive()]
                self._conns.append((thread, conn))
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            reader = conn.makefile("rb")
            while True:
                line = reader.readline(MAX_REQUEST_BYTES + 1)
                if not line:
                    return
                if len(line) > MAX_REQUEST_BYTES or not line.endswith(b"\n"):
                    # Either provably oversized, or EOF mid-line; neither
                    # can be framed, so answer and hang up.
                    self._send(conn, protocol.error_response(
                        protocol.BAD_REQUEST,
                        f"request line exceeds {MAX_REQUEST_BYTES} bytes",
                        retryable=False,
                    ))
                    return
                if line.strip() == b"":
                    continue
                if not self._handle_line(conn, line):
                    return
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away; its request (if accepted) lives on
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle_line(self, conn: socket.socket, line: bytes) -> bool:
        """Dispatch one request line; ``False`` ends the connection."""
        try:
            request = protocol.parse_request(line)
        except ServeError as exc:
            self._send(conn, exc.to_response())
            return True
        try:
            return self._dispatch(conn, request)
        except ServeError as exc:
            self._send(conn, exc.to_response(request.get("id")))
            return True
        except Exception as exc:  # noqa: BLE001 - no-traceback contract
            self._send(conn, protocol.error_response(
                protocol.INTERNAL, f"{type(exc).__name__}: {exc}",
                request_id=request.get("id"), retryable=False,
            ))
            return True

    def _dispatch(self, conn: socket.socket, request: dict) -> bool:
        op = request["op"]
        if op == "health":
            self._send(conn, self.service.health())
            return True
        if op == "submit":
            served = self.service.submit(request)
            self._send(conn, protocol.accepted_response(served.id))
            if request.get("stream"):
                self._stream(conn, served)
            return True
        if op == "status":
            served = self.service.get(request["id"])
            self._send(conn, {"type": "status", **served.snapshot()})
            return True
        if op == "result":
            served = self.service.get(request["id"])
            if not served.wait_terminal(request.get("timeout")):
                raise ServeError(
                    protocol.TIMEOUT,
                    f"request {served.id!r} still {served.state} after "
                    f"the wait timeout",
                )
            self._send_terminal(conn, served)
            return True
        if op == "cancel":
            served = self.service.cancel(request["id"])
            self._send(conn, {"type": "cancelled", "id": served.id,
                              "state": served.state})
            return True
        raise ServeError(protocol.BAD_REQUEST, f"unhandled op {op!r}")

    # -- streaming ---------------------------------------------------------

    def _stream(self, conn: socket.socket, request: ServeRequest) -> None:
        """Send coalesced progress frames until the request is terminal."""
        seen = -1
        while True:
            version = request.wait_change(seen, timeout=_STREAM_TICK)
            if version != seen and not request.terminal:
                seen = version
                self._send(conn, protocol.update_response(
                    request.id, state=request.state, version=version,
                    points=request.progress(),
                ))
            if request.terminal:
                self._send_terminal(conn, request)
                return

    def _send_terminal(self, conn: socket.socket,
                       request: ServeRequest) -> None:
        if request.error is not None:
            self._send(conn, protocol.error_response(
                request.error["code"], request.error["message"],
                request_id=request.id,
                retryable=request.error["retryable"],
            ))
        else:
            self._send(conn, protocol.result_response(
                request.id, result=request.result,
                events=request.event_summary(),
            ))

    @staticmethod
    def _send(conn: socket.socket, message: dict) -> None:
        conn.sendall(protocol.encode(message))


def _hang_up(sock: socket.socket, how: int) -> None:
    """Shut ``sock`` down, waking any thread blocked reading it."""
    try:
        sock.shutdown(how)
    except OSError:
        pass  # already closed
