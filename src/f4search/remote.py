"""HTTP client for a remote embedding service.

Wire protocol: POST ``{endpoint}/embed`` with JSON body
``{"texts": [string, ...]}``; the service replies with
``{"dim": int, "vectors": [[number, ...], ...]}`` carrying exactly one
vector per input text, in input order. Any non-200 status is a
service-reported error. Connection-level failures are retried with
exponential backoff, up to three attempts per request.
"""

from __future__ import annotations

import os
import time

import numpy as np
import requests

from .encoders import EncoderSpec
from .errors import MalformedResponseError, RemoteError, ServiceUnreachableError
from .vectors import EmbeddingVector, l2_normalize

ENDPOINT_ENV_VAR = "F4_ENCODER_ENDPOINT"
BATCH_SIZE = 64
TIMEOUT_S = 10.0
RETRY_DELAY_S = 0.5
MAX_ATTEMPTS = 3
MAX_TEXT_BYTES = 8192
_JSON_NUMBER_TYPES = {int, float}


def default_endpoint() -> str:
    """Endpoint taken from the F4_ENCODER_ENDPOINT environment variable."""
    return os.environ.get(ENDPOINT_ENV_VAR, "")


def encode_remote(
    texts: list[str],
    spec: EncoderSpec,
    bearer_token: str | None = None,
) -> list[EmbeddingVector]:
    """Embed ``texts`` via the remote service named by ``spec``.

    Texts are sent in batches of at most ``BATCH_SIZE`` over one session
    that is closed on return; batches are issued and appended strictly in
    input order, so outputs line up with inputs one-to-one. Each returned
    vector is normalized on receipt.
    """
    if spec.kind != "remote":
        raise ValueError("encode_remote needs a remote encoder spec")
    if not texts:
        raise ValueError("texts must be non-empty")
    for text in texts:
        if len(text.encode("utf-8")) > MAX_TEXT_BYTES:
            raise ValueError(f"text exceeds {MAX_TEXT_BYTES} bytes")

    url = spec.endpoint.rstrip("/") + "/embed"
    headers = {}
    if bearer_token:
        headers["Authorization"] = f"Bearer {bearer_token}"

    vectors: list[EmbeddingVector] = []
    with requests.Session() as sess:
        for start in range(0, len(texts), BATCH_SIZE):
            batch = texts[start : start + BATCH_SIZE]
            payload = _post_with_retry(sess, url, {"texts": batch}, headers)
            vectors.extend(_parse_batch(payload, len(batch), spec.dim))
    return vectors


def _post_with_retry(sess, url, body, headers):
    delay = RETRY_DELAY_S
    last_exc = None
    for attempt in range(MAX_ATTEMPTS):
        try:
            resp = sess.post(url, json=body, timeout=TIMEOUT_S, headers=headers)
        except (requests.ConnectionError, requests.Timeout) as exc:
            last_exc = exc
            if attempt < MAX_ATTEMPTS - 1:
                time.sleep(delay)
                delay *= 2
            continue
        if resp.status_code != 200:
            raise RemoteError(f"service returned HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            return resp.json()
        except ValueError as exc:
            raise MalformedResponseError("response body is not valid JSON") from exc
    raise ServiceUnreachableError(
        f"{url} unreachable after {MAX_ATTEMPTS} attempts"
    ) from last_exc


def _parse_batch(payload, expected_count: int, expected_dim: int) -> list[EmbeddingVector]:
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
    return [l2_normalize(row) for row in matrix]
