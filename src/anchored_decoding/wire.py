"""Newline-delimited JSON wire protocol: a logit server around a local
backend and a client backend speaking the same score() interface.

Logits travel as (id, decimal-string) pairs with 17 significant digits,
which round-trips 64-bit floats exactly; loopback results are bit-identical
to local scoring.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

import numpy as np

from .errors import CapacityError, TransportError
from .toy_model import ScoreResult
from .vocab import VocabSpec

PROTOCOL_VERSION = 1

_SCORE_FIELDS = {"v", "op", "tokens", "mask_positions", "want_attention", "top_k"}
_META_FIELDS = {"v", "op"}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _error(code: str, message: str) -> dict:
    return {"v": PROTOCOL_VERSION, "ok": False, "code": code, "message": message}


class ProtocolError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _validate_score_request(req: dict):
    unknown = set(req) - _SCORE_FIELDS
    if unknown:
        raise ProtocolError("bad_request", f"unknown fields: {sorted(unknown)}")
    tokens = req.get("tokens")
    if not isinstance(tokens, list) or not tokens or not all(isinstance(t, int) for t in tokens):
        raise ProtocolError("bad_request", "tokens must be a non-empty list of ints")
    masks = req.get("mask_positions", [])
    if not isinstance(masks, list) or not all(isinstance(m, int) for m in masks):
        raise ProtocolError("bad_request", "mask_positions must be a list of ints")
    for m in masks:
        if not (0 <= m < len(tokens)):
            raise ProtocolError("bad_mask_index", f"mask index {m} out of range for {len(tokens)} tokens")
    want_attention = req.get("want_attention", False)
    if not isinstance(want_attention, bool):
        raise ProtocolError("bad_request", "want_attention must be a bool")
    top_k = req.get("top_k")
    if top_k is not None and (not isinstance(top_k, int) or top_k < 1):
        raise ProtocolError("bad_request", "top_k must be a positive int or null")
    return tokens, masks, want_attention, top_k


def handle_request(backend, line: str) -> dict:
    """One request line -> one response object. Pure apart from the backend
    call; the server stays stateless across requests."""
    try:
        req = json.loads(line)
    except json.JSONDecodeError as exc:
        return _error("bad_request", f"invalid JSON: {exc}")
    if not isinstance(req, dict):
        return _error("bad_request", "request must be an object")
    if req.get("v") != PROTOCOL_VERSION:
        return _error("bad_request", f"unsupported protocol version {req.get('v')!r}")
    op = req.get("op")
    if op == "meta":
        unknown = set(req) - _META_FIELDS
        if unknown:
            return _error("bad_request", f"unknown fields: {sorted(unknown)}")
        v = backend.vocab
        return {
            "vocab_size": v.size,
            "mask_id": v.mask_id,
            "stop_ids": sorted(v.stop_ids),
            "max_positions": backend.max_positions,
            "token_strings": None if v.token_strings is None else sorted(v.token_strings.items()),
        }
    if op != "score":
        return _error("bad_request", f"unknown op {op!r}")
    try:
        tokens, masks, want_attention, top_k = _validate_score_request(req)
    except ProtocolError as exc:
        return _error(exc.code, str(exc))
    try:
        res = backend.score(tokens, frozenset(masks), want_attention=want_attention, top_k=top_k)
    except CapacityError as exc:
        return _error("context_too_long", str(exc))
    except ValueError as exc:
        return _error("bad_request", str(exc))
    ids = res.ids if res.ids is not None else np.arange(len(res.logits))
    return {
        "v": PROTOCOL_VERSION,
        "ok": True,
        "logits": [[str(int(i)), _fmt(v)] for i, v in zip(ids, res.logits)],
        "attention": None if res.attention is None else [_fmt(a) for a in res.attention],
    }


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            response = handle_request(self.server.backend, line)
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()


class LogitServer:
    """Threaded TCP server; one JSON request per line, one response per
    request, connection kept open across requests (including errors)."""

    def __init__(self, backend, host: str = "127.0.0.1", port: int = 0):
        self._server = socketserver.ThreadingTCPServer((host, port), _Handler, bind_and_activate=True)
        self._server.daemon_threads = True
        self._server.backend = backend
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address

    def start(self) -> "LogitServer":
        self._thread.start()
        return self

    def stop(self):
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def serve(backend, host: str = "127.0.0.1", port: int = 0) -> LogitServer:
    return LogitServer(backend, host, port).start()


class RemoteBackend:
    """score() over the wire; interface-compatible with the toy backend for
    decoding (no embedding access, so gradient probes are unsupported).
    Safe to share across threads: requests on the one connection take turns."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        meta = self._request({"v": PROTOCOL_VERSION, "op": "meta"})
        try:
            self.vocab = VocabSpec(
                size=meta["vocab_size"],
                mask_id=meta["mask_id"],
                stop_ids=frozenset(meta["stop_ids"]),
                token_strings=dict(meta["token_strings"]) if meta.get("token_strings") else None,
            )
            self.max_positions = meta["max_positions"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError("malformed meta response", raw=meta) from exc

    def _request(self, obj: dict) -> dict:
        try:
            with self._lock:
                self._file.write((json.dumps(obj) + "\n").encode("utf-8"))
                self._file.flush()
                raw = self._file.readline()
        except OSError as exc:
            raise TransportError(f"transport failure: {exc}") from exc
        if not raw:
            raise TransportError("server closed the connection")
        try:
            return json.loads(raw.decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise TransportError(f"invalid JSON from server: {exc}", raw=raw) from exc

    def score(self, context_tokens, mask_positions=frozenset(), want_attention=False, top_k=None) -> ScoreResult:
        req = {
            "v": PROTOCOL_VERSION,
            "op": "score",
            "tokens": [int(t) for t in context_tokens],
            "mask_positions": sorted(int(m) for m in mask_positions),
            "want_attention": bool(want_attention),
            "top_k": top_k,
        }
        resp = self._request(req)
        if not resp.get("ok"):
            code = resp.get("code")
            if code == "bad_mask_index":
                raise ValueError(resp.get("message", code))
            if code == "context_too_long":
                raise CapacityError(resp.get("message", code))
            raise TransportError(f"server error {code}: {resp.get('message')}", raw=resp)
        try:
            pairs = [(int(i), float(v)) for i, v in resp["logits"]]
            attention = resp.get("attention")
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError("malformed score response", raw=resp) from exc
        att = None if attention is None else np.array([float(a) for a in attention])
        if top_k is None:
            logits = np.empty(self.vocab.size)
            logits[[i for i, _ in pairs]] = [v for _, v in pairs]
            return ScoreResult(logits=logits, attention=att)
        return ScoreResult(
            logits=np.array([v for _, v in pairs]),
            ids=np.array([i for i, _ in pairs], dtype=np.int64),
            attention=att,
        )

    def close(self):
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
