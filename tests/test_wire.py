import json
import socket
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from anchored_decoding import (
    AnchoringConfig,
    DecodeLimits,
    RemoteBackend,
    anchored_decode,
    parse_markup,
    resolve_anchors,
    serve,
)
from anchored_decoding.errors import CapacityError, TransportError
from anchored_decoding.wire import handle_request

from conftest import make_backend


@pytest.fixture(scope="module")
def server_backend():
    return make_backend(seed=7)


@pytest.fixture(scope="module")
def server(server_backend):
    srv = serve(server_backend)
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


def test_meta(remote, server_backend):
    assert remote.vocab.size == server_backend.vocab.size
    assert remote.vocab.mask_id == server_backend.vocab.mask_id
    assert remote.vocab.stop_ids == server_backend.vocab.stop_ids
    assert remote.max_positions == server_backend.max_positions


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


def test_top_k_roundtrip(remote, server_backend):
    local = server_backend.score([3, 5, 2], top_k=4)
    got = remote.score([3, 5, 2], top_k=4)
    assert np.array_equal(local.ids, got.ids)
    assert np.array_equal(local.logits, got.logits)


def test_bad_mask_index(server):
    resp = raw_roundtrip(
        server, json.dumps({"v": 1, "op": "score", "tokens": [3, 5], "mask_positions": [7]})
    )
    assert resp == {"v": 1, "ok": False, "code": "bad_mask_index", "message": resp["message"]}


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
    # remote vocabularies are opaque, so the prompt is resolved locally and
    # passed pre-tokenized
    resolved = resolve_anchors(prompt, server_backend.vocab)
    with RemoteBackend(host, port) as rb:
        over_wire = anchored_decode(rb, resolved, config, limits)
    assert over_wire.generated_tokens == local.generated_tokens


def test_connect_failure_raises_transport_error():
    with pytest.raises(TransportError):
        RemoteBackend("127.0.0.1", 1, timeout=0.2)


def test_handle_request_is_stateless(server_backend):
    line = json.dumps({"v": 1, "op": "score", "tokens": [4, 2]})
    a = handle_request(server_backend, line)
    b = handle_request(server_backend, line)
    assert a == b
