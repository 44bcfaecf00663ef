"""In-process stub of the embedding service that ``f4search.remote`` calls.

It follows the wire contract in ``remote.py``: ``POST /embed`` with
``{"texts": [...]}`` answers ``{"dim", "vectors"}``. Vectors come from
``encode_text_synthetic``, so a remote-encoded corpus ranks like the
synthetic one. The service listens on 127.0.0.1 only and serves one
connection at a time. It counts requests, connections, texts and bytes
exactly, and the time spent in its handler.
"""

from __future__ import annotations

import http.server
import json
import select
import threading
import time
from dataclasses import dataclass, fields

from f4search import EncoderSpec, encode_text_synthetic

# A kept-alive connection is closed after this long without a request,
# or at once when another connection is waiting to be served.
IDLE_CLOSE_S = 0.5


@dataclass
class StubCounts:
    requests: int = 0
    connections: int = 0
    texts: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    handler_ns: int = 0

    def snapshot(self) -> "StubCounts":
        return StubCounts(**{f.name: getattr(self, f.name) for f in fields(self)})

    def since(self, before: "StubCounts") -> "StubCounts":
        return StubCounts(
            **{f.name: getattr(self, f.name) - getattr(before, f.name) for f in fields(self)}
        )


class _CountingReader:
    """Read side of a connection that adds every byte read to the counts."""

    def __init__(self, raw, counts: StubCounts):
        self._raw = raw
        self._counts = counts

    def readline(self, limit=-1):
        line = self._raw.readline(limit)
        self._counts.bytes_received += len(line)
        return line

    def read(self, n=-1):
        data = self._raw.read(n)
        self._counts.bytes_received += len(data)
        return data

    def close(self):
        self._raw.close()


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.counts.connections += 1
        self.rfile = _CountingReader(self.rfile, self.server.counts)

    def handle(self):
        # Serve keep-alive requests on this connection until the client
        # closes it, goes idle, or a new connection is waiting: the server
        # has one thread, so an idle connection must not block the next.
        self.close_connection = True
        self.handle_one_request()
        while not self.close_connection:
            ready, _, _ = select.select([self.connection, self.server.socket], [], [], IDLE_CLOSE_S)
            if self.connection not in ready:
                break
            self.handle_one_request()

    def do_POST(self):
        start = time.perf_counter_ns()
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        if self.path != "/embed":
            self._reply(404, b'{"error": "not found"}', start, texts=0)
            return
        texts = json.loads(body)["texts"]
        spec = self.server.spec
        vectors = [encode_text_synthetic(t, spec).values.tolist() for t in texts]
        payload = json.dumps({"dim": spec.dim, "vectors": vectors}).encode()
        self._reply(200, payload, start, texts=len(texts))

    def _reply(self, status: int, payload: bytes, start_ns: int, texts: int):
        reason = self.responses[status][0]
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("latin-1")
        counts = self.server.counts
        # Counted before the reply goes out: the client reads the counts
        # as soon as it has the answer.
        counts.requests += 1
        counts.texts += texts
        counts.bytes_sent += len(head) + len(payload)
        counts.handler_ns += time.perf_counter_ns() - start_ns
        self.wfile.write(head + payload)

    def log_message(self, *args):
        pass


class StubService:
    """Context manager running the stub on an ephemeral 127.0.0.1 port."""

    def __init__(self, dim: int, seed: int):
        self._server = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
        self._server.spec = EncoderSpec("synthetic", dim, seed=seed)
        self._server.counts = StubCounts()
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.05,))
        self.counts = self._server.counts
        self.endpoint = f"http://127.0.0.1:{self._server.server_address[1]}"

    def __enter__(self) -> "StubService":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("stub embedding service did not stop")
