import http.server
import json
import socket
import socketserver
import threading
from contextlib import contextmanager

import numpy as np
import pytest
import requests

from f4search import remote
from f4search.encoders import EncoderSpec
from f4search.errors import (
    MalformedResponseError,
    RemoteError,
    ServiceUnreachableError,
)
from f4search.remote import _parse_batch, encode_remote


@pytest.fixture(autouse=True)
def fast_retries(monkeypatch):
    monkeypatch.setattr(remote, "RETRY_DELAY_S", 0.01)


class StubHandler(http.server.BaseHTTPRequestHandler):
    """Recording stub: replies with one-hot vectors in arrival order."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.server.received.append(list(body["texts"]))
        self.server.auth_headers.append(self.headers.get("Authorization"))

        mode = self.server.mode
        if mode == "http_error":
            self.send_response(503)
            self.end_headers()
            self.wfile.write(b"down for maintenance")
            return
        if mode == "not_json":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"this is not json")
            return

        texts = body["texts"]
        if mode == "short":
            texts = texts[:-1]
        dim = self.server.dim
        scale = 5.0 if mode == "scaled" else 1.0
        vectors = []
        for _ in texts:
            j = self.server.counter
            self.server.counter += 1
            vec = [0.0] * dim
            vec[j % dim] = scale
            vectors.append(vec)
        if mode == "wrong_dim":
            payload = {"dim": dim + 1, "vectors": [v + [0.0] for v in vectors]}
        else:
            payload = {"dim": dim, "vectors": vectors}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@contextmanager
def stub_service(mode="ok", dim=16):
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.mode = mode
    server.dim = dim
    server.counter = 0
    server.received = []
    server.auth_headers = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        spec = EncoderSpec("remote", dim, endpoint=f"http://127.0.0.1:{server.server_address[1]}")
        yield server, spec
    finally:
        server.shutdown()
        server.server_close()


def test_three_texts_three_vectors_in_order():
    with stub_service() as (server, spec):
        vecs = encode_remote(["a", "b", "c"], spec)
    assert len(vecs) == 3
    for j, vec in enumerate(vecs):
        assert vec.values[j] == pytest.approx(1.0)
        assert vec.normalized


def test_batching_never_reorders_or_drops(monkeypatch):
    monkeypatch.setattr(remote, "BATCH_SIZE", 2)
    texts = [f"t{i}" for i in range(5)]
    with stub_service() as (server, spec):
        vecs = encode_remote(texts, spec)
        assert server.received == [["t0", "t1"], ["t2", "t3"], ["t4"]]
    assert [int(np.argmax(v.values)) for v in vecs] == [0, 1, 2, 3, 4]


def test_vectors_normalized_on_receipt():
    with stub_service(mode="scaled") as (server, spec):
        [vec] = encode_remote(["a"], spec)
    assert np.linalg.norm(vec.values) == pytest.approx(1.0, abs=1e-12)


def test_short_response_rejected():
    with stub_service(mode="short") as (server, spec):
        with pytest.raises(MalformedResponseError, match="2 vectors"):
            encode_remote(["a", "b", "c"], spec)


def test_wrong_dim_rejected():
    with stub_service(mode="wrong_dim") as (server, spec):
        with pytest.raises(MalformedResponseError, match="dim"):
            encode_remote(["a"], spec)


def test_http_error_is_remote_error():
    with stub_service(mode="http_error") as (server, spec):
        with pytest.raises(RemoteError, match="503"):
            encode_remote(["a"], spec)


def test_non_json_body_rejected():
    with stub_service(mode="not_json") as (server, spec):
        with pytest.raises(MalformedResponseError, match="JSON"):
            encode_remote(["a"], spec)


def test_bearer_token_passthrough():
    with stub_service() as (server, spec):
        encode_remote(["a"], spec, bearer_token="sesame")
        assert server.auth_headers == ["Bearer sesame"]


def test_each_call_closes_its_session(monkeypatch):
    closed = []

    class RecordingSession(requests.Session):
        def close(self):
            closed.append(self)
            super().close()

    monkeypatch.setattr(requests, "Session", RecordingSession)
    with stub_service() as (server, spec):
        encode_remote(["a"], spec)
        assert len(closed) == 1
        server.mode = "short"
        with pytest.raises(MalformedResponseError):
            encode_remote(["a", "b"], spec)
    assert len(closed) == 2


class _Slammer(socketserver.ThreadingTCPServer):
    """Accepts connections and closes them immediately; counts attempts."""

    allow_reuse_address = True


def test_unreachable_after_three_attempts():
    attempts = []

    class Handler(socketserver.BaseRequestHandler):
        def handle(self):
            attempts.append(1)
            self.request.close()

    server = _Slammer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        spec = EncoderSpec("remote", 16, endpoint=f"http://127.0.0.1:{server.server_address[1]}")
        with pytest.raises(ServiceUnreachableError, match="3 attempts"):
            encode_remote(["a"], spec)
    finally:
        server.shutdown()
        server.server_close()
    assert len(attempts) == 3


def test_dead_port_unreachable():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    spec = EncoderSpec("remote", 16, endpoint=f"http://127.0.0.1:{port}")
    with pytest.raises(ServiceUnreachableError):
        encode_remote(["a"], spec)


def test_oversized_text_rejected():
    spec = EncoderSpec("remote", 16, endpoint="http://127.0.0.1:1")
    with pytest.raises(ValueError, match="8192"):
        encode_remote(["x" * 9000], spec)


def test_empty_batch_rejected():
    spec = EncoderSpec("remote", 16, endpoint="http://127.0.0.1:1")
    with pytest.raises(ValueError, match="non-empty"):
        encode_remote([], spec)


def test_default_endpoint_from_env(monkeypatch):
    from f4search.remote import ENDPOINT_ENV_VAR, default_endpoint

    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    assert default_endpoint() == ""
    monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://embedder:9000")
    assert default_endpoint() == "http://embedder:9000"


def test_parse_batch_accepts_ints_and_floats():
    [vec] = _parse_batch({"dim": 4, "vectors": [[3, 4.0, 0, 0.0]]}, 1, 4)
    assert vec.tolist() == [0.6, 0.8, 0.0, 0.0]


@pytest.mark.parametrize(
    "entry, reason",
    [
        ("1.0", "JSON numbers"),
        (True, "JSON numbers"),
        (None, "JSON numbers"),
        ([1.0], "JSON numbers"),
        (float("nan"), "finite"),
        (float("inf"), "finite"),
        (10**400, "float range"),
        (1e200, "overflows"),
    ],
)
def test_parse_batch_rejects_non_numbers(entry, reason):
    payload = {"dim": 8, "vectors": [[1.0] * 8, [entry, 1.0] + [0] * 6]}
    with pytest.raises(MalformedResponseError, match=reason):
        _parse_batch(payload, 2, 8)
