"""Socket-level contract: structured errors, streaming, framing caps.

An in-process :class:`ServeServer` over a real unix socket, driven with
the library client and with raw bytes.  The headline guarantee under
test: no payload a client can send — binary junk, truncated JSON,
unknown experiments, out-of-range parameters, megabyte lines — ever gets
a traceback back; every failure is one structured ``error`` frame.
"""

import json
import signal
import socket
import threading
import time

import pytest
from chaos_serve import reap, start_daemon, wait_ready
from repro.serve.client import ServeClient
from repro.serve.protocol import MAX_REQUEST_BYTES
from repro.serve.server import ServeServer
from repro.serve.service import ServeService

FAULT_PARAMS = {"losses": [0.0], "n": 10, "trials": 2, "seed": 5}


@pytest.fixture
def served(tmp_path):
    service = ServeService(tmp_path / "state", backend="serial", workers=1)
    service.start()
    server = ServeServer(service, tmp_path / "serve.sock")
    server.start()
    client = ServeClient(tmp_path / "serve.sock")
    yield client, server
    server.shutdown(grace=30)


def raw_exchange(client, payload: bytes, *, reads=1):
    """Send raw bytes, read ``reads`` response lines (None at EOF)."""
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(30)
    conn.connect(str(client.socket_path))
    try:
        conn.sendall(payload)
        reader = conn.makefile("rb")
        out = []
        for _ in range(reads):
            line = reader.readline(MAX_REQUEST_BYTES + 1)
            out.append(json.loads(line) if line else None)
        return out
    finally:
        conn.close()


class TestStructuredErrors:
    def test_malformed_json_gets_error_and_connection_survives(self, served):
        client, _ = served
        frames = raw_exchange(
            client, b'{not json\n{"op":"health"}\n', reads=2)
        assert frames[0]["type"] == "error"
        assert frames[0]["code"] == "bad-request"
        assert "Traceback" not in frames[0]["message"]
        assert frames[1]["type"] == "health"  # same connection still works

    def test_binary_garbage_gets_structured_error(self, served):
        client, _ = served
        frames = raw_exchange(client, b"\xff\xfe\x00garbage\n")
        assert frames[0]["type"] == "error"
        assert frames[0]["code"] == "bad-request"

    def test_oversized_line_rejected_and_connection_closed(self, served):
        client, _ = served
        line = b'{"pad":"' + b"x" * MAX_REQUEST_BYTES + b'"}\n'
        frames = raw_exchange(client, line + b'{"op":"health"}\n', reads=2)
        assert frames[0]["code"] == "bad-request"
        assert not frames[0]["retryable"]
        assert frames[1] is None  # connection was dropped

    def test_unknown_experiment_is_structured(self, served):
        client, _ = served
        resp = client.submit("warp-drive", {})
        assert resp["type"] == "error"
        assert resp["code"] == "unknown-experiment"
        assert resp["retryable"] is False

    def test_out_of_range_params_are_structured(self, served):
        client, _ = served
        resp = client.submit("faults", {"n": 10_000_000})
        assert resp["type"] == "error"
        assert resp["code"] == "bad-param"
        assert "Traceback" not in resp["message"]

    def test_unknown_id_lookup_is_structured(self, served):
        client, _ = served
        resp = client.status("never-submitted")
        assert resp == {"type": "error", "code": "not-found",
                        "id": "never-submitted",
                        "message": resp["message"], "retryable": False}

    def test_empty_lines_are_ignored(self, served):
        client, _ = served
        frames = raw_exchange(client, b'\n\n{"op":"health"}\n')
        assert frames[0]["type"] == "health"


class TestRequestFlow:
    def test_submit_status_result(self, served):
        client, _ = served
        acc = client.submit("faults", FAULT_PARAMS, request_id="flow-1")
        assert acc == {"type": "accepted", "id": "flow-1", "protocol": 1}
        final = client.result("flow-1", wait=60)
        assert final["type"] == "result" and final["id"] == "flow-1"
        assert final["result"]["points"]
        status = client.status("flow-1")
        assert status["type"] == "status" and status["state"] == "done"

    def test_stream_yields_updates_then_result(self, served):
        client, _ = served
        frames = list(client.stream(
            "faults", dict(FAULT_PARAMS, trials=4), request_id="flow-2"))
        kinds = [f["type"] for f in frames]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "result"
        updates = [f for f in frames if f["type"] == "update"]
        assert updates, "streaming produced no incremental updates"
        versions = [u["version"] for u in updates]
        assert versions == sorted(versions)  # monotone, coalesced
        # incremental CI estimates appear as trials fold
        assert any(u["points"] for u in updates)
        for update in updates:
            for point in update["points"].values():
                for est in point["estimates"].values():
                    assert set(est) == {"mean", "half_width", "samples"}

    def test_result_wait_timeout_is_structured(self, served):
        client, _ = served
        client.submit("fig6", {"ns": [20, 40], "trials": 3},
                      request_id="slow-1")
        resp = client.result("slow-1", wait=0.0)
        if resp["type"] == "error":  # almost always: 0s wait
            assert resp["code"] == "timeout"
            assert resp["retryable"] is True
        final = client.result("slow-1", wait=120)
        assert final["type"] == "result"

    def test_cancel_roundtrip(self, served):
        client, _ = served
        client.submit("faults", FAULT_PARAMS, request_id="c-1")
        resp = client.cancel("c-1")
        assert resp["type"] == "cancelled"
        assert resp["state"] in ("cancelled", "done")  # race is honest

    def test_health_reports_readiness(self, served):
        client, _ = served
        health = client.health()
        assert health["healthz"] == "ok"
        assert health["readyz"] is True
        assert health["queue_depth"] == 0

    def test_error_result_arrives_as_error_frame(self, served):
        client, _ = served
        frames = list(client.stream("faults", {"n": -5}))
        assert frames[0]["type"] == "error"
        assert frames[0]["code"] == "bad-param"


class TestShutdown:
    def test_shutdown_drains_and_unlinks_socket(self, tmp_path):
        service = ServeService(tmp_path / "s", backend="serial")
        service.start()
        server = ServeServer(service, tmp_path / "s.sock")
        server.start()
        client = ServeClient(tmp_path / "s.sock")
        client.submit("faults", FAULT_PARAMS, request_id="drain-1")
        assert server.shutdown(grace=120) is True
        assert not (tmp_path / "s.sock").exists()
        # the accepted request finished, not vanished
        req = service.get("drain-1")
        assert req.state == "done"

    @pytest.mark.parametrize("idle_client", [False, True],
                             ids=["no-client", "idle-client"])
    def test_shutdown_is_prompt_and_leaves_no_thread(self, tmp_path,
                                                     idle_client):
        def serve_threads():
            return {t for t in threading.enumerate()
                    if t.name.startswith("repro-serve-") and t.is_alive()}

        before = serve_threads()
        service = ServeService(tmp_path / "s", backend="serial")
        service.start()
        server = ServeServer(service, tmp_path / "s.sock")
        server.start()
        idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            if idle_client:
                # One answered request proves the connection thread is up;
                # it then sits in ``readline`` waiting for the next line.
                idle.settimeout(30)
                idle.connect(str(tmp_path / "s.sock"))
                idle.sendall(b'{"op":"health"}\n')
                with idle.makefile("rb") as reader:
                    assert json.loads(reader.readline())["type"] == "health"
            start = time.monotonic()
            assert server.shutdown(grace=30) is True
            assert time.monotonic() - start < 1.0
        finally:
            idle.close()
        assert not serve_threads() - before

    def test_stream_open_across_shutdown_gets_its_result(self, tmp_path):
        service = ServeService(tmp_path / "s", backend="serial")
        service.start()
        server = ServeServer(service, tmp_path / "s.sock")
        server.start()
        client = ServeClient(tmp_path / "s.sock")
        frames, accepted = [], threading.Event()

        def consume():
            for frame in client.stream("faults", FAULT_PARAMS, timeout=60):
                frames.append(frame)
                accepted.set()

        streamer = threading.Thread(target=consume)
        streamer.start()
        assert accepted.wait(30)
        assert server.shutdown(grace=120) is True
        streamer.join(timeout=30)
        assert not streamer.is_alive()
        assert frames[0]["type"] == "accepted"
        assert frames[-1]["type"] == "result"

    def test_idle_daemon_exits_promptly_on_sigterm(self, tmp_path):
        sock = tmp_path / "d.sock"
        proc = start_daemon(tmp_path / "root", sock)
        idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            wait_ready(sock, proc)
            idle.connect(str(sock))  # an open, silent client
            start = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert time.monotonic() - start < 1.0
        finally:
            idle.close()
            reap(proc)
            proc.communicate()
