import json
import socket
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from anchored_decoding import (
    AnchoringConfig,
    CountingBackend,
    DecodeLimits,
    LogitServer,
    RemoteBackend,
    ScoreResult,
    VocabSpec,
    anchored_decode,
    parse_markup,
    resolve_anchors,
)
from anchored_decoding import wire
from anchored_decoding.errors import CapacityError, DecodeError, TransportError
from anchored_decoding.wire import handle_request

from conftest import make_backend


@pytest.fixture(scope="module")
def server_backend():
    return make_backend(seed=7)


@pytest.fixture(scope="module")
def server(server_backend):
    srv = LogitServer(server_backend)
    yield srv
    srv.stop()


@pytest.fixture()
def remote(server):
    host, port = server.address
    with RemoteBackend(host, port) as rb:
        yield rb


def raw_roundtrip(server, payload: str) -> dict:
    host, port = server.address
    with socket.create_connection((host, port), timeout=5) as sock:
        f = sock.makefile("rwb")
        f.write((payload + "\n").encode())
        f.flush()
        return json.loads(f.readline())


RESET = object()  # a StubServer reply: reset the connection instead of answering


class StubServer:
    """One-connection server that answers meta with ``meta`` and every other
    request with ``reply``, however malformed: bytes are sent as they are, and
    RESET resets the connection."""

    def __init__(self, meta: dict, reply: dict | None = None):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(5)
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, args=(meta, reply), daemon=True)
        self._thread.start()

    def _serve(self, meta, reply):
        conn, _ = self._listener.accept()
        with conn, conn.makefile("rwb") as f:
            for line in f:
                resp = meta if json.loads(line)["op"] == "meta" else reply
                if resp is RESET:  # closing with a zero linger time sends RST
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                    return
                f.write(resp if isinstance(resp, bytes) else (json.dumps(resp) + "\n").encode())
                f.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._thread.join(timeout=5)
        self._listener.close()
        assert not self._thread.is_alive(), "stub server still waiting for its client"


def test_meta(remote, server, server_backend):
    assert remote.vocab.size == server_backend.vocab.size
    assert remote.vocab.mask_id == server_backend.vocab.mask_id
    assert remote.vocab.stop_ids == server_backend.vocab.stop_ids
    assert remote.max_positions == server_backend.max_positions
    assert remote.vocab.token_strings == server_backend.vocab.token_strings
    # the same envelope as every other reply
    meta = raw_roundtrip(server, json.dumps({"v": 1, "op": "meta"}))
    assert list(meta)[:2] == ["v", "ok"] and meta["v"] == 1 and meta["ok"] is True
    # a meta error reaches the client with the server's code and message
    error = {"v": 1, "ok": False, "code": "overloaded", "message": "try later"}
    with StubServer(error) as stub, pytest.raises(TransportError) as info:
        RemoteBackend(*stub.address, timeout=5)
    assert "overloaded" in str(info.value) and "try later" in str(info.value)
    assert info.value.raw == error
    # a limit the client's argument check could not use is a malformed reply
    for bad in ("64", None, 0):
        with StubServer(dict(meta, max_positions=bad)) as stub, pytest.raises(TransportError, match="malformed meta"):
            RemoteBackend(*stub.address, timeout=5)
    # so is a count or id off the int rule: a float size would fail at the first score(), past DecodeError
    for bad in (
        {"vocab_size": float(meta["vocab_size"]), "token_strings": None},
        {"mask_id": True},
        {"stop_ids": [float(s) for s in meta["stop_ids"]]},
    ):
        with StubServer(dict(meta, **bad)) as stub, pytest.raises(TransportError, match="malformed meta"):
            RemoteBackend(*stub.address, timeout=5)
    # surface strings that skip an id or give one no text: detokenize would raise or lose the bijection;
    # none at all, or ids repeated, out of order or off the int rule: only null or no field means opaque
    strings = meta["token_strings"]
    for bad in (
        [p for p in strings if p[0] != 3],
        [[i, "" if i == 3 else s] for i, s in strings],
        [],
        False,
        [[0, "zz"]] + strings,
        [strings[1], strings[0]] + strings[2:],
        [[float(i), s] for i, s in strings],
    ):
        with StubServer(dict(meta, token_strings=bad)) as stub, pytest.raises(TransportError, match="malformed meta"):
            RemoteBackend(*stub.address, timeout=5)
    without = {k: v for k, v in meta.items() if k != "token_strings"}
    with StubServer(without) as stub, RemoteBackend(*stub.address, timeout=5) as rb:
        assert rb.vocab.token_strings is None and rb.vocab.size == server_backend.vocab.size


def test_meta_without_surface_strings_gives_opaque_vocab():
    class Opaque:
        vocab = VocabSpec(size=8, mask_id=0, stop_ids=frozenset({1}))
        max_positions = 16

    assert handle_request(Opaque(), json.dumps({"v": 1, "op": "meta"}))["token_strings"] is None
    with LogitServer(Opaque()) as server, RemoteBackend(*server.address) as rb:
        assert rb.vocab == Opaque.vocab


def test_loopback_score_bit_exact(remote, server_backend):
    local = server_backend.score([3, 5, 2]).logits
    over_wire = remote.score([3, 5, 2]).logits
    assert np.array_equal(local, over_wire)


def test_loopback_serialized_decimals(server, server_backend):
    req = json.dumps(
        {"v": 1, "op": "score", "tokens": [3, 5, 2], "mask_positions": [], "want_attention": False, "top_k": None}
    )
    resp = raw_roundtrip(server, req)
    local = server_backend.score([3, 5, 2]).logits
    assert resp["ok"] is True
    for (sid, sval), (i, v) in zip(resp["logits"], enumerate(local)):
        assert sid == str(i)
        assert sval == format(v, ".17g")
        assert float(sval) == v


def test_masked_and_attention_roundtrip(remote, server_backend):
    local = server_backend.score([3, 5, 2], frozenset({0, 2}), want_attention=True)
    got = remote.score([3, 5, 2], frozenset({0, 2}), want_attention=True)
    assert np.array_equal(local.logits, got.logits)
    assert np.array_equal(local.attention, got.attention)


def test_every_backend_has_one_score_interface(remote, server_backend):
    # score(context, mask_positions, want_attention) returns the full vector
    # with ids None on every backend; none takes top_k any more
    for backend in (server_backend, CountingBackend(server_backend), remote):
        res = backend.score([3, 5, 2], frozenset({0}), want_attention=True)
        assert res.ids is None and len(res.logits) == server_backend.vocab.size
        with pytest.raises(TypeError):
            backend.score([3, 5, 2], top_k=4)
    # perfbench/selftest.py still builds ScoreResult(..., ids=result.ids, ...)
    assert ScoreResult(logits=res.logits, ids=None, attention=None).ids is None
    # a closed client cannot reconnect: its score() is a TransportError, so a
    # decode over it is a DecodeError, not a bad-argument ValueError
    remote.close()
    with pytest.raises(TransportError, match="closed"):
        remote.score([3, 5, 2])
    with pytest.raises(DecodeError):
        anchored_decode(remote, parse_markup("ab⟦cd⟧"), AnchoringConfig(), DecodeLimits(2))


def test_bad_mask_index(server):
    resp = raw_roundtrip(
        server, json.dumps({"v": 1, "op": "score", "tokens": [3, 5], "mask_positions": [7]})
    )
    assert resp == {"v": 1, "ok": False, "code": "bad_mask_index", "message": resp["message"]}


@pytest.mark.parametrize("kind, code", wire._ERRORS)
def test_error_reply_raises_its_table_exception(server_backend, kind, code):
    # the client cannot provoke these from a real server: it checks the arguments before it sends
    meta = handle_request(server_backend, json.dumps({"v": 1, "op": "meta"}))
    error = {"v": 1, "ok": False, "code": code, "message": "from the stub"}
    with StubServer(meta, error) as stub, RemoteBackend(*stub.address) as rb:
        with pytest.raises(kind, match="from the stub") as info:
            rb.score([3, 4])
    assert type(info.value) is kind


def test_unknown_field_rejected(server):
    resp = raw_roundtrip(
        server, json.dumps({"v": 1, "op": "score", "tokens": [3], "bogus": 1})
    )
    assert resp["ok"] is False and resp["code"] == "bad_request"


def test_malformed_json_keeps_connection_open(server):
    host, port = server.address
    with socket.create_connection((host, port), timeout=5) as sock:
        f = sock.makefile("rwb")
        f.write(b"this is not json\n")
        f.flush()
        resp = json.loads(f.readline())
        assert resp["code"] == "bad_request"
        # neither a token id past int64, a JSON boolean where an int belongs,
        # nor a line that is not UTF-8 drops it
        score = {"v": 1, "op": "score", "tokens": [2, 3]}
        for line in (
            json.dumps({**score, "tokens": [10**30]}).encode(),
            json.dumps({**score, "tokens": [2, True]}).encode(),
            json.dumps({**score, "mask_positions": [False]}).encode(),
            json.dumps({**score, "top_k": True}).encode(),
            json.dumps({**score, "want_attention": 1}).encode(),
            json.dumps([score]).encode(),  # not an object
            b"\xff\xfe",
            *(json.dumps({**score, "tokens": bad}).encode() for bad in ("ab", {"2": 3}, 2, None)),
            *(json.dumps({**score, "mask_positions": bad}).encode() for bad in (1, None)),
        ):
            f.write(line + b"\n")
            f.flush()
            assert json.loads(f.readline())["code"] == "bad_request"
        # same connection still serves valid requests
        f.write((json.dumps({"v": 1, "op": "meta"}) + "\n").encode())
        f.flush()
        assert json.loads(f.readline())["vocab_size"] > 0


def test_unknown_op_and_version(server):
    assert raw_roundtrip(server, json.dumps({"v": 1, "op": "nope"}))["code"] == "bad_request"
    assert raw_roundtrip(server, json.dumps({"v": 2, "op": "meta"}))["code"] == "bad_request"


def test_context_too_long_over_wire(remote, server_backend):
    with pytest.raises(CapacityError):
        remote.score([2] * (server_backend.max_positions + 1))


@pytest.mark.parametrize("tokens", [[99], [], [-1], [3, 10**30], [2.7, 3], ["2", 3], [True, 3], "ab"])
def test_bad_tokens_raise_value_error_as_locally(remote, server_backend, tokens):
    with pytest.raises(ValueError):
        server_backend.score(tokens)
    with pytest.raises(ValueError):
        remote.score(tokens)
    # the connection still serves
    assert np.array_equal(remote.score([3, 4]).logits, server_backend.score([3, 4]).logits)
    # the client raises before it sends: a score request reaching the stub
    # would get a malformed reply, a TransportError
    meta = handle_request(server_backend, json.dumps({"v": 1, "op": "meta"}))
    with StubServer(meta, {"v": 1, "ok": True}) as stub, RemoteBackend(*stub.address, timeout=5) as rb:
        with pytest.raises(ValueError):
            rb.score(tokens)


def test_sequential_requests_no_state_leakage(remote, server_backend, rng):
    # 100 requests replayed against local calls, in order
    for _ in range(100):
        n = int(rng.integers(1, 10))
        ctx = rng.integers(0, server_backend.vocab.size, size=n).tolist()
        masks = frozenset(int(i) for i in rng.choice(n, size=min(n, 2), replace=False))
        local = server_backend.score(ctx, masks)
        got = remote.score(ctx, masks)
        assert np.array_equal(local.logits, got.logits)


def test_shared_remote_backend_across_threads(remote, server_backend):
    # 4 threads x 25 calls on one connection; each result must be its own
    contexts = [[(7 * i + j) % server_backend.vocab.size for j in range(1 + i % 9)] for i in range(100)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(lambda ctx: remote.score(ctx).logits, contexts))
    for ctx, logits in zip(contexts, got):
        assert np.array_equal(logits, server_backend.score(ctx).logits)


def test_remote_decode_matches_local(server, server_backend):
    host, port = server.address
    prompt = parse_markup("ab⟦cd⟧")
    config = AnchoringConfig(mode="fixed", omega=1.25)
    limits = DecodeLimits(6)
    local = anchored_decode(server_backend, prompt, config, limits)
    # the prompt either as markup, tokenized with the surface strings the
    # server sends, or resolved locally and passed pre-tokenized
    resolved = resolve_anchors(prompt, server_backend.vocab)
    with RemoteBackend(host, port) as rb:
        for remote_prompt in (prompt, resolved):
            over_wire = anchored_decode(rb, remote_prompt, config, limits)
            assert over_wire.generated_tokens == local.generated_tokens


def test_server_serves_once_constructed(server_backend):
    server = LogitServer(server_backend)
    try:
        with RemoteBackend(*server.address, timeout=2) as rb:
            assert np.array_equal(rb.score([3, 5]).logits, server_backend.score([3, 5]).logits)
    finally:
        with server:
            server.stop()  # leaving the block then stops it again
    with pytest.raises(OSError):
        socket.create_connection(server.address, timeout=1).close()


def test_stop_ends_open_connections(server_backend):
    server = LogitServer(server_backend)
    with RemoteBackend(*server.address, timeout=2) as rb:
        assert np.array_equal(rb.score([3, 4]).logits, server_backend.score([3, 4]).logits)
        # a second client connects just before stop() and never sends
        with socket.create_connection(server.address, timeout=2) as idle:
            server.stop()
            started = time.monotonic()
            with pytest.raises(TransportError, match="closed|transport failure"):
                rb.score([3, 4])
            try:
                assert idle.recv(1) == b""
            except ConnectionResetError:
                pass
            assert time.monotonic() - started < 1.5  # ended, not timed out


def test_stop_returns_promptly(server_backend):
    server = LogitServer(server_backend)
    with RemoteBackend(*server.address, timeout=2) as rb:
        rb.score([3, 4])
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 0.25
        with pytest.raises(TransportError):
            rb.score([3, 4])


def test_request_line_cap(server, monkeypatch):
    monkeypatch.setattr(wire, "MAX_REQUEST_BYTES", 64)
    meta = json.dumps({"v": 1, "op": "meta"})
    at_cap = meta[:-1] + " " * (63 - len(meta)) + "}"  # 64 bytes with its newline
    with socket.create_connection(server.address, timeout=5) as sock:
        f = sock.makefile("rwb")
        f.write((at_cap + "\n").encode())
        f.flush()
        assert json.loads(f.readline())["ok"] is True
        # one byte more: one bad_request naming the cap, then the server closes
        f.write((at_cap.replace(" ", "  ", 1) + "\n" + meta + "\n").encode())
        f.flush()
        resp = json.loads(f.readline())
        assert resp["code"] == "bad_request" and "64 bytes" in resp["message"]
        try:
            assert f.readline() == b""
        except ConnectionResetError:
            pass


def test_server_forgets_closed_connections(server_backend):
    # 4 threads open and close 10 connections each; every closed one leaves
    # the server's set of open connections, so the set does not grow
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with LogitServer(server_backend) as server, ThreadPoolExecutor(max_workers=4) as pool:

            def connect_10(_):
                for _ in range(10):
                    with RemoteBackend(*server.address, timeout=5) as rb:
                        rb.score([3, 4])

            list(pool.map(connect_10, range(4)))
            deadline = time.monotonic() + 5
            while server._server.connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._server.connections
    finally:
        sys.setswitchinterval(interval)


def test_connections_past_the_cap_are_refused(server_backend, monkeypatch, capsys):
    monkeypatch.setattr(wire, "MAX_CONNECTIONS", 2)
    want = server_backend.score([3, 4]).logits
    with LogitServer(server_backend) as server, RemoteBackend(*server.address, timeout=5) as kept:
        with RemoteBackend(*server.address, timeout=5) as closed:
            with pytest.raises(TransportError, match="too_many_connections"):
                RemoteBackend(*server.address, timeout=5)
            for rb in (kept, closed):  # the two admitted are still served
                assert np.array_equal(rb.score([3, 4]).logits, want)
        # once one has closed and its handler has ended, a new client is served
        deadline = time.monotonic() + 5
        while len(server._server.connections) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        with RemoteBackend(*server.address, timeout=5) as rb:
            assert np.array_equal(rb.score([3, 4]).logits, want)
    # idle clients do not hold the slots for good: their connections time out, quietly
    assert wire._Handler.timeout == wire.IDLE_TIMEOUT_S
    monkeypatch.setattr(wire._Handler, "timeout", 0.3)
    with LogitServer(server_backend) as server:
        with RemoteBackend(*server.address, timeout=5) as idle, RemoteBackend(*server.address, timeout=5):
            with pytest.raises(TransportError, match="too_many_connections"):
                RemoteBackend(*server.address, timeout=5)
            deadline = time.monotonic() + 5
            while server._server.connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._server.connections
            with pytest.raises(TransportError):  # as after stop()
                idle.score([3, 4])
            with RemoteBackend(*server.address, timeout=5) as rb:
                assert np.array_equal(rb.score([3, 4]).logits, want)
    assert "Traceback" not in capsys.readouterr().err


MALFORMED_SCORE_REPLIES = {  # each made from a good full-vector reply
    "3 of V ids": lambda good: dict(good, logits=good["logits"][:3]),
    "id out of range": lambda good: dict(good, logits=good["logits"][:-1] + [["99", "0.5"]]),
    "duplicate id": lambda good: dict(good, logits=good["logits"][:-1] + [["0", "0.5"]]),
    "no version": lambda good: {k: v for k, v in good.items() if k != "v"},
    "ids i + 0.9": lambda good: dict(good, logits=[[int(i) + 0.9, v] for i, v in good["logits"]]),
    "ids out of order": lambda good: dict(good, logits=good["logits"][::-1]),
    "nan logits": lambda good: dict(good, logits=[[i, "nan"] for i, _ in good["logits"]]),
    "an inf logit": lambda good: dict(good, logits=[["0", "inf"]] + good["logits"][1:]),
    "no attention field": lambda good: {k: v for k, v in good.items() if k != "attention"},
    "attention not asked for": lambda good: dict(good, attention=["0.5", "0.5"]),
    "asked attention missing": lambda good: dict(good, attention=None),
    "asked attention of 5 for 2 tokens": lambda good: dict(good, attention=good["attention"] + ["0"] * 3),
    "asked attention with nan": lambda good: dict(good, attention=["nan"] + good["attention"][1:]),
    # values float() takes but _fmt never writes
    "a logit true": lambda good: dict(good, logits=[["0", True]] + [[i, " 1_0 "] for i, _ in good["logits"][1:]]),
    "padded logits": lambda good: dict(good, logits=[[i, f" {v} "] for i, v in good["logits"]]),
    "underscored logits": lambda good: dict(good, logits=[[i, "1_0"] for i, _ in good["logits"]]),
    "logits as JSON numbers": lambda good: dict(good, logits=[[i, float(v)] for i, v in good["logits"]]),
    "an Arabic-Indic digit": lambda good: dict(good, logits=[["0", "\u0661"]] + good["logits"][1:]),
    "an upper-case exponent": lambda good: dict(good, logits=[["0", "1E+05"]] + good["logits"][1:]),
    "asked attention as JSON numbers": lambda good: dict(good, attention=[float(a) for a in good["attention"]]),
    "asked attention as a string": lambda good: dict(good, attention="11"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCORE_REPLIES))
def test_malformed_score_reply_is_transport_error(server_backend, case):
    want = case.startswith("asked attention")  # the request asks for attention
    meta = handle_request(server_backend, json.dumps({"v": 1, "op": "meta"}))
    good = handle_request(server_backend, json.dumps({"v": 1, "op": "score", "tokens": [3, 4], "want_attention": want}))
    with StubServer(meta, MALFORMED_SCORE_REPLIES[case](good)) as stub, RemoteBackend(*stub.address) as rb:
        with pytest.raises(TransportError):
            rb.score([3, 4], want_attention=want)
        with pytest.raises(DecodeError):
            config = AnchoringConfig(mode="fixed", omega=1.25)
            anchored_decode(rb, parse_markup("ab⟦cd⟧"), config, DecodeLimits(4), want_attention=want)


@pytest.mark.parametrize(
    "reply, message",
    [(b"not json\n", "invalid JSON"), (b"\xff\xfe\n", "invalid JSON"), (RESET, "transport failure")],
)
def test_broken_reply_is_transport_error(server_backend, reply, message):
    meta = handle_request(server_backend, json.dumps({"v": 1, "op": "meta"}))
    with StubServer(meta, reply) as stub, RemoteBackend(*stub.address, timeout=5) as rb:
        with pytest.raises(TransportError, match=message):
            rb.score([3, 4])


def test_connect_failure_raises_transport_error():
    with pytest.raises(TransportError):
        RemoteBackend("127.0.0.1", 1, timeout=0.2)


def test_handle_request_is_stateless(server_backend):
    line = json.dumps({"v": 1, "op": "score", "tokens": [4, 2]})
    a = handle_request(server_backend, line)
    b = handle_request(server_backend, line)
    assert a == b
