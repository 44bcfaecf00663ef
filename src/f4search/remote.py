"""HTTP client for a remote embedding service.

Wire protocol: POST ``{endpoint}/embed`` with JSON body
``{"texts": [string, ...]}``; the service replies with
``{"dim": int, "vectors": [[number, ...], ...]}`` carrying exactly one
vector per input text, in input order. Any non-200 status, redirects
included, is a service-reported error. Connection-level failures and
broken replies are retried with exponential backoff, up to three attempts
per request.

The client is the standard library's ``http.client``: one connection per
``encode_remote`` call, kept alive across its batches. Proxies come from
the environment (``http_proxy``, ``https_proxy``, ``all_proxy``,
``no_proxy``), read once per call. HTTPS is verified against the system
CA store (``ssl.create_default_context``).
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import re
import ssl
import time
import urllib.request
from urllib.parse import SplitResult, unquote, urlsplit

import numpy as np

from .encoders import EncoderSpec
from .errors import MalformedResponseError, RemoteError, ServiceUnreachableError
from .vectors import EmbeddingVector, _unit

ENDPOINT_ENV_VAR = "F4_ENCODER_ENDPOINT"
BATCH_SIZE = 64
TIMEOUT_S = 10.0
RETRY_DELAY_S = 0.5
MAX_ATTEMPTS = 3
MAX_TEXT_BYTES = 8192
_JSON_NUMBER_TYPES = {int, float}
_DEFAULT_PORTS = {"http": 80, "https": 443}
# Printable ASCII except space, '?' and '#': no query, fragment or
# character that http.client would refuse in a request line.
_URL_CHARS = re.compile(r"[!-\"$->@-~]+")


def default_endpoint() -> str:
    """Endpoint taken from the F4_ENCODER_ENDPOINT environment variable."""
    return os.environ.get(ENDPOINT_ENV_VAR, "")


def encode_remote(
    texts: list[str],
    spec: EncoderSpec,
    bearer_token: str | None = None,
) -> list[EmbeddingVector]:
    """Embed ``texts`` via the remote service named by ``spec``.

    Texts are sent in batches of at most ``BATCH_SIZE`` over one
    connection that is closed on return; batches are issued and appended
    strictly in input order, so outputs line up with inputs one-to-one.
    Each returned vector is normalized on receipt.
    """
    return [EmbeddingVector(r, normalized=True) for r in _encode_remote(texts, spec, bearer_token)]


def _encode_remote(texts: list[str], spec: EncoderSpec, bearer_token: str | None) -> np.ndarray:
    """``encode_remote`` as one float64 matrix of unit rows."""
    if spec.kind != "remote":
        raise ValueError("encode_remote needs a remote encoder spec")
    if not texts:
        raise ValueError("texts must be non-empty")
    for text in texts:
        if len(text.encode("utf-8")) > MAX_TEXT_BYTES:
            raise ValueError(f"text exceeds {MAX_TEXT_BYTES} bytes")

    url = spec.endpoint.rstrip("/") + "/embed"
    conn, target, headers = _connect(spec.endpoint, url)
    headers["Content-Type"] = "application/json"
    if bearer_token:
        headers["Authorization"] = f"Bearer {bearer_token}"

    batches = []
    try:
        for start in range(0, len(texts), BATCH_SIZE):
            batch = texts[start : start + BATCH_SIZE]
            body = json.dumps({"texts": batch}).encode()
            payload = _post_with_retry(conn, url, target, body, headers)
            batches.append(_parse_batch(payload, len(batch), spec.dim))
    finally:
        conn.close()
    return np.concatenate(batches)


def _split(url: str) -> SplitResult | None:
    """``url`` split into its parts, or None unless it is ``scheme://host[:port]...``.

    None also for a port that is not a number in range, a query, a
    fragment, or a character outside printable ASCII.
    """
    try:
        parts = urlsplit(url)
        parts.port  # raises on a port that is not a number in range
    except ValueError:
        return None
    return parts if _URL_CHARS.fullmatch(url) and parts.hostname else None


def _connect(endpoint: str, url: str) -> tuple[http.client.HTTPConnection, str, dict]:
    """An unopened connection that reaches ``url``, its request target and proxy headers.

    A malformed endpoint or proxy URL raises a ValueError here, before
    anything is sent.
    """
    parts = _split(endpoint)
    if parts is None or parts.scheme not in _DEFAULT_PORTS or "@" in parts.netloc:
        raise ValueError(f"endpoint {endpoint!r} is not http(s)://host[:port][/path]")
    host, port = parts.hostname, parts.port or _DEFAULT_PORTS[parts.scheme]
    path = parts.path.rstrip("/") + "/embed"
    tls = {"context": ssl.create_default_context()} if parts.scheme == "https" else {}
    connection = http.client.HTTPSConnection if tls else http.client.HTTPConnection

    proxies = urllib.request.getproxies()
    proxy_url = proxies.get(parts.scheme) or proxies.get("all")
    if not proxy_url or urllib.request.proxy_bypass(host):
        return connection(host, port, timeout=TIMEOUT_S, **tls), path, {}

    proxy_url = proxy_url if "://" in proxy_url else "http://" + proxy_url
    proxy = _split(proxy_url)
    if proxy is None or proxy.scheme != "http":
        # Everything up to the last '@' after '//' goes: it may hold a password.
        shown = re.sub(r"//.*@", "//", proxy_url, flags=re.S)
        raise ValueError(f"proxy {shown!r} is not http://[user:password@]host[:port]")
    proxy_headers = {}
    if proxy.username is not None:
        credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
        proxy_headers["Proxy-Authorization"] = (
            "Basic " + base64.b64encode(credentials.encode("latin-1")).decode("ascii")
        )
    conn = connection(proxy.hostname, proxy.port or 80, timeout=TIMEOUT_S, **tls)
    if tls:
        conn.set_tunnel(host, port, headers=proxy_headers)
        return conn, path, {}
    # A plain-HTTP proxy takes the absolute URI as the request target.
    return conn, url, proxy_headers


def _post_with_retry(conn: http.client.HTTPConnection, url: str, target: str, body: bytes, headers):
    """POST ``body`` to ``target`` over ``conn``, retrying broken exchanges; the decoded reply."""
    delay = RETRY_DELAY_S
    attempt = 0
    while True:
        reused = conn.sock is not None
        try:
            conn.request("POST", target, body, headers)
            resp = conn.getresponse()
            data = resp.read()
            break
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            # The server may close a kept-alive connection between
            # requests; that costs a new connection, not an attempt.
            if reused and isinstance(exc, ConnectionError):
                continue
            attempt += 1
            if attempt == MAX_ATTEMPTS:
                raise ServiceUnreachableError(
                    f"{url} unreachable after {MAX_ATTEMPTS} attempts"
                ) from exc
            time.sleep(delay)
            delay *= 2
    if resp.status != 200:
        text = data.decode("utf-8", "replace")
        raise RemoteError(f"service returned HTTP {resp.status}: {text[:200]}")
    try:
        return json.loads(data)
    # UnicodeDecodeError and JSONDecodeError are ValueErrors; deep
    # nesting raises a RecursionError.
    except (ValueError, RecursionError) as exc:
        raise MalformedResponseError("response body is not valid JSON") from exc


def _parse_batch(payload, expected_count: int, expected_dim: int) -> np.ndarray:
    """The payload's vectors as a float64 matrix of unit rows, after checking its shape."""
    if not isinstance(payload, dict) or "vectors" not in payload or "dim" not in payload:
        raise MalformedResponseError("response missing 'dim' or 'vectors'")
    if payload["dim"] != expected_dim:
        raise MalformedResponseError(
            f"service dim {payload['dim']} != expected {expected_dim}"
        )
    rows = payload["vectors"]
    if not isinstance(rows, list) or len(rows) != expected_count:
        raise MalformedResponseError(
            f"service returned {len(rows) if isinstance(rows, list) else '?'} vectors "
            f"for {expected_count} texts"
        )
    for row in rows:
        if not isinstance(row, list) or len(row) != expected_dim:
            raise MalformedResponseError("vector length does not match dim")
        # Exact types: bool is an int subclass, and numpy would parse "1.0".
        if not set(map(type, row)) <= _JSON_NUMBER_TYPES:
            raise MalformedResponseError("vector entries must be JSON numbers")
    try:
        matrix = np.array(rows, dtype=np.float64)
    except OverflowError as exc:
        raise MalformedResponseError("vector entry out of float range") from exc
    if not np.isfinite(matrix).all():
        raise MalformedResponseError("vector entries must be finite")
    try:
        with np.errstate(over="ignore"):
            return _unit(matrix)
    except ValueError as exc:
        raise MalformedResponseError(str(exc)) from exc
