"""Newline-delimited JSON wire protocol: a logit server around a local
backend and a client backend speaking the same score() interface.

Every reply begins ``{"v": 1, "ok": ...}``; an error reply adds ``code`` and
``message``. Logits travel as (id, decimal-string) pairs with 17 significant
digits, which round-trips 64-bit floats exactly; loopback results are
bit-identical to local scoring.
"""

from __future__ import annotations

import contextlib
import json
import re
import socket
import socketserver
import threading

import numpy as np

from .anchoring import is_int
from .errors import CapacityError, MaskIndexError, TransportError
from .toy_model import ScoreResult, check_score_args, top_k_pairs
from .vocab import VocabSpec

PROTOCOL_VERSION = 1
MAX_REQUEST_BYTES = 1 << 20  # longest request line, newline included; holds well over 100k token ids
MAX_CONNECTIONS = 64  # open connections, each with its handler thread; one more is refused
IDLE_TIMEOUT_S = 300.0  # a connection idle this long is closed; well above a task's tests, run between two scores
# how often serve_forever checks for stop(); at the 0.5 s default each stop() would wait that long
_POLL_INTERVAL = 0.05

# the fields each op accepts
_FIELDS = {"meta": {"v", "op"}, "score": {"v", "op", "tokens", "mask_positions", "want_attention", "top_k"}}
# error code <-> exception, read both ways (the server takes the first match); any other code is a TransportError
_ERRORS = ((MaskIndexError, "bad_mask_index"), (CapacityError, "context_too_long"), (ValueError, "bad_request"))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# values as _fmt writes finite floats, joined by spaces; [0-9], since re's \d also matches other scripts' digits
_NUMBER = r"-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]{2,3})?"
_NUMBERS = re.compile(rf"{_NUMBER}(?: {_NUMBER})*")


def _parse_numbers(values) -> np.ndarray:
    """A list of strings as _fmt writes them -> their floats. Anything else raises, though float() takes much of
    it: a JSON number or bool, blanks, underscores, other scripts' digits."""
    if not (type(values) is list and _NUMBERS.fullmatch(" ".join(values))):  # join: TypeError on a non-string
        raise ValueError("values must be a list of decimal strings")
    return np.array([float(v) for v in values])


def _reply(**fields) -> dict:
    return {"v": PROTOCOL_VERSION, "ok": True, **fields}


def _error(code: str, message: str) -> dict:
    return {"v": PROTOCOL_VERSION, "ok": False, "code": code, "message": message}


def handle_request(backend, line: str) -> dict:
    """One request line -> one response object. Pure apart from the backend
    call; the server stays stateless across requests. The whole request is
    checked (version, op, the op's fields and their types) before any work."""
    try:
        req = json.loads(line)
    except json.JSONDecodeError as exc:
        return _error("bad_request", f"invalid JSON: {exc}")
    if not isinstance(req, dict):
        return _error("bad_request", "request must be an object")
    if req.get("v") != PROTOCOL_VERSION:
        return _error("bad_request", f"unsupported protocol version {req.get('v')!r}")
    op = req.get("op")
    fields = _FIELDS.get(op) if isinstance(op, str) else None
    if fields is None:
        return _error("bad_request", f"unknown op {op!r}")
    unknown = set(req) - fields
    if unknown:
        return _error("bad_request", f"unknown fields: {sorted(unknown)}")
    if op == "meta":
        v = backend.vocab
        return _reply(
            vocab_size=v.size,
            mask_id=v.mask_id,
            stop_ids=sorted(v.stop_ids),
            max_positions=backend.max_positions,
            token_strings=None if v.token_strings is None else sorted(v.token_strings.items()),
        )
    tokens, masks = req.get("tokens"), req.get("mask_positions", [])
    if not isinstance(masks, list):
        return _error("bad_request", "mask_positions must be a list of ints")
    want_attention = req.get("want_attention", False)
    if not isinstance(want_attention, bool):
        return _error("bad_request", "want_attention must be a bool")
    top_k = req.get("top_k")
    if top_k is not None and not (is_int(top_k) and top_k >= 1):
        return _error("bad_request", "top_k must be a positive int or null")
    try:
        check_score_args(tokens, masks, backend.vocab.size, backend.max_positions)
        res = backend.score(tokens, frozenset(masks), want_attention=want_attention)
        ids = range(len(res.logits)) if top_k is None else top_k_pairs(res.logits, top_k)[0].tolist()
    except (ValueError, CapacityError) as exc:
        return _error(next(code for kind, code in _ERRORS if isinstance(exc, kind)), str(exc))
    return _reply(
        logits=[[str(i), _fmt(res.logits[i])] for i in ids],
        attention=None if res.attention is None else [_fmt(a) for a in res.attention],
    )


class _Handler(socketserver.StreamRequestHandler):
    timeout = IDLE_TIMEOUT_S  # socket timeout: an idle client cannot hold a connection slot for good

    def handle(self):
        with contextlib.suppress(ConnectionError, TimeoutError):  # a reset, stop(), or the client sat idle
            while raw := self.rfile.readline(MAX_REQUEST_BYTES + 1):
                if len(raw) > MAX_REQUEST_BYTES:  # the rest of the line cannot be resynchronised: close
                    self._send(_error("bad_request", f"request line longer than {MAX_REQUEST_BYTES} bytes"))
                    return
                line = raw.decode("utf-8", errors="replace").strip()
                if line:
                    self._send(handle_request(self.server.backend, line))

    def _send(self, response: dict):
        self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
        self.wfile.flush()


class _Server(socketserver.ThreadingTCPServer):
    """One handler thread per connection; ``connections`` holds the open
    ones. A connection past MAX_CONNECTIONS gets one too_many_connections
    reply and is closed, with no thread."""

    daemon_threads = True

    def __init__(self, address, backend):
        super().__init__(address, _Handler)
        self.backend = backend
        self.lock = threading.Lock()
        self.connections = set()

    def process_request(self, request, client_address):
        with self.lock:
            admitted = len(self.connections) < MAX_CONNECTIONS
            if admitted:
                self.connections.add(request)
        if admitted:
            return super().process_request(request, client_address)
        reply = _error("too_many_connections", f"the server holds {MAX_CONNECTIONS} connections already")
        with contextlib.suppress(OSError):  # the client may be gone already
            request.sendall((json.dumps(reply) + "\n").encode("utf-8"))
        self.shutdown_request(request)

    def shutdown_request(self, request):
        with self.lock:
            self.connections.discard(request)
        super().shutdown_request(request)


class LogitServer:
    """Threaded TCP server; one JSON request per line, one response per
    request, connection kept open across requests (including errors).
    Serving when the constructor returns, until stop() or the end of a
    ``with`` block."""

    def __init__(self, backend, host: str = "127.0.0.1", port: int = 0):
        if not (is_int(port) and 0 <= port <= 65535):
            raise ValueError(f"port must be an int in 0..65535, not {port!r}")
        self._server = _Server((host, port), backend)
        self._thread = threading.Thread(target=self._server.serve_forever, args=(_POLL_INTERVAL,), daemon=True)
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address

    def wait(self):
        """Block until the server has stopped."""
        self._thread.join()

    def stop(self):
        """Stop accepting, then end the open connections: a client's next
        request raises TransportError."""
        # shutdown() waits for serve_forever, the one thread that registers
        # connections, so the sweep below misses none
        self._server.shutdown()
        self._server.server_close()
        with self._server.lock:
            for sock in self._server.connections:
                with contextlib.suppress(OSError):  # the client may be gone already
                    sock.shutdown(socket.SHUT_RDWR)  # its handler's read then ends

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


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
        try:
            self.vocab, self.max_positions = self._meta()
        except BaseException:
            self.close()
            raise
        self._ids = [str(i) for i in range(self.vocab.size)]  # a score reply's ids, in order

    def _meta(self) -> tuple[VocabSpec, int]:
        meta = self._request({"v": PROTOCOL_VERSION, "op": "meta"})
        try:
            pairs = meta.get("token_strings")  # null or absent: an opaque vocabulary
            if pairs is not None and not all(is_int(i) and i == n for n, (i, _) in enumerate(pairs)):
                raise ValueError("token_strings must be [id, string] pairs, ids 0..V-1 in order")
            vocab = VocabSpec(
                size=meta["vocab_size"],
                mask_id=meta["mask_id"],
                stop_ids=frozenset(meta["stop_ids"]),
                token_strings=None if pairs is None else dict(pairs),
            )
            if not (is_int(meta["max_positions"]) and meta["max_positions"] >= 1):  # score() checks against it
                raise ValueError("max_positions must be a positive int")
            return vocab, meta["max_positions"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError("malformed meta response", raw=meta) from exc

    def _request(self, obj: dict) -> dict:
        """One request -> its checked reply; an error reply raises what its code maps to."""
        try:
            with self._lock:
                self._file.write((json.dumps(obj) + "\n").encode("utf-8"))
                self._file.flush()
                raw = self._file.readline()
        except OSError as exc:
            raise TransportError(f"transport failure: {exc}") from exc
        except ValueError as exc:  # I/O on the file close() closed; there is no reconnect
            raise TransportError(f"connection closed by close(): {exc}") from exc
        if not raw:
            raise TransportError("server closed the connection")
        try:
            resp = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # invalid JSON or UTF-8
            raise TransportError(f"invalid JSON from server: {exc}", raw=raw) from exc
        if not isinstance(resp, dict) or resp.get("v") != PROTOCOL_VERSION or not isinstance(resp.get("ok"), bool):
            raise TransportError("malformed reply envelope", raw=resp)
        if resp["ok"]:
            return resp
        code, message = resp.get("code"), resp.get("message")
        for kind, known in _ERRORS:
            if code == known:
                raise kind(message)
        raise TransportError(f"server error {code}: {message}", raw=resp)

    def score(self, context_tokens, mask_positions=frozenset(), want_attention=False) -> ScoreResult:
        tokens, masks = check_score_args(context_tokens, mask_positions, self.vocab.size, self.max_positions)
        resp = self._request({
            "v": PROTOCOL_VERSION,
            "op": "score",
            "tokens": tokens.tolist(),
            "mask_positions": masks,
            "want_attention": bool(want_attention),
        })
        try:
            pairs, attention = resp["logits"], resp["attention"]
            if [i for i, _ in pairs] != self._ids:  # what handle_request writes without top_k
                raise ValueError("logit ids must be the strings 0..V-1 in order")
            logits = _parse_numbers([v for _, v in pairs])
            att = None if attention is None else _parse_numbers(attention)
            if not np.isfinite(logits).all() or (att is None) == bool(want_attention):
                raise ValueError("logits must be finite, and attention given exactly when asked for")
            if att is not None and not (att.shape == tokens.shape and np.isfinite(att).all()):
                raise ValueError("attention must be a finite row over the context")
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError("malformed score response", raw=resp) from exc
        return ScoreResult(logits=logits, attention=att)

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
