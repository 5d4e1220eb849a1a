import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from anchored_decoding import AnchoringConfig, DecodeLimits, RemoteBackend, anchored_decode, parse_markup
from anchored_decoding import CountingBackend, ToyBackend, ToyModelConfig, VocabSpec
from anchored_decoding.anchoring import softmax
from anchored_decoding.errors import CapacityError
from anchored_decoding.errors import MaskIndexError
from anchored_decoding.toy_model import _layernorm, top_k_pairs
from anchored_decoding.wire import handle_request

from conftest import make_backend
from test_wire import StubServer


def oracle_forward(backend, tokens):
    """Straight-line re-implementation of the toy forward pass: explicit
    per-head loops, no shared helper code with the backend."""
    cfg = backend.config
    T = len(tokens)
    d = cfg.embed_dim
    hd = d // cfg.n_heads

    def ln(x):
        out = np.empty_like(x)
        for r in range(x.shape[0]):
            row = x[r]
            mu = row.mean()
            var = ((row - mu) ** 2).mean()
            out[r] = (row - mu) / np.sqrt(var + 1e-5)
        return out

    h = np.array([backend.tok_emb[t] + backend.pos_emb[i] for i, t in enumerate(tokens)])
    for p in backend.layers:
        x = ln(h)
        heads = []
        for head in range(cfg.n_heads):
            sl = slice(head * hd, (head + 1) * hd)
            q = x @ p["wq"][:, sl]
            k = x @ p["wk"][:, sl]
            v = x @ p["wv"][:, sl]
            ctx = np.zeros((T, hd))
            for i in range(T):
                scores = np.array([q[i] @ k[j] / np.sqrt(hd) for j in range(i + 1)])
                scores -= scores.max()
                w = np.exp(scores)
                w /= w.sum()
                for j in range(i + 1):
                    ctx[i] += w[j] * v[j]
            heads.append(ctx)
        h = h + np.concatenate(heads, axis=1) @ p["wo"]
        x = ln(h)
        h = h + np.tanh(x @ p["w1"]) @ p["w2"]
    return ln(h[-1:])[0] @ backend.unembed


def test_score_deterministic(backend):
    a = backend.score([2]).logits
    b = backend.score([2]).logits
    assert a.shape == (backend.vocab.size,)
    assert np.array_equal(a, b)


def test_same_config_same_params():
    a = make_backend(seed=11)
    b = make_backend(seed=11)
    assert np.array_equal(a.tok_emb, b.tok_emb)
    assert np.array_equal(
        a.score([4, 9, 2], frozenset({1})).logits, b.score([4, 9, 2], frozenset({1})).logits
    )


def test_mask_positions_equal_substitution(backend, rng):
    mask = backend.vocab.mask_id
    for _ in range(20):
        n = int(rng.integers(1, 12))
        ctx = rng.integers(0, backend.vocab.size, size=n).tolist()
        positions = frozenset(int(i) for i in rng.choice(n, size=min(n, 3), replace=False))
        substituted = [mask if i in positions else t for i, t in enumerate(ctx)]
        a = backend.score(ctx, positions).logits
        b = backend.score(substituted).logits
        assert np.array_equal(a, b)


def test_forward_matches_independent_oracle():
    backend = make_backend(seed=7, vocab_size=16, embed_dim=16, n_layers=2, n_heads=2)
    for tokens in ([3, 5, 2], [2], [7, 1, 0, 9, 4]):
        got = backend.score(tokens).logits
        want = oracle_forward(backend, tokens)
        assert np.allclose(got, want, atol=1e-6)


def all_rows_forward(backend, h):
    """The toy forward with every layer computed for every row: (logits, attention row)."""
    cfg = backend.config
    T, d = h.shape
    hd = d // cfg.n_heads
    causal = np.tril(np.ones((T, T), dtype=bool))
    last_row = None
    for li, p in enumerate(backend.layers):
        x = _layernorm(h)
        q = (x @ p["wq"]).reshape(T, cfg.n_heads, hd)
        k = (x @ p["wk"]).reshape(T, cfg.n_heads, hd)
        v = (x @ p["wv"]).reshape(T, cfg.n_heads, hd)
        scores = np.einsum("qhd,khd->hqk", q, k) / np.sqrt(hd)
        scores = np.where(causal[None, :, :], scores, -np.inf)
        attn = softmax(scores)
        ctx = np.einsum("hqk,khd->qhd", attn, v).reshape(T, d)
        h = h + ctx @ p["wo"]
        x = _layernorm(h)
        h = h + np.tanh(x @ p["w1"]) @ p["w2"]
        if li == len(backend.layers) - 1:
            last_row = attn[:, -1, :].mean(axis=0)
    return _layernorm(h[-1]) @ backend.unembed, last_row


def test_final_row_forward_matches_all_rows(rng):
    # the forward may skip work no output reads; what it returns stays that of the all-rows stack
    for n_layers in range(1, 5):
        backend = make_backend(
            seed=n_layers, vocab_size=32, embed_dim=32, n_layers=n_layers, n_heads=4, max_positions=256
        )
        for T in (1, 2, 37, 256):
            ctx = rng.integers(0, backend.vocab.size, size=T).tolist()
            masks = frozenset(int(i) for i in rng.choice(T, size=int(rng.integers(0, min(T, 5) + 1)), replace=False))
            substituted = [backend.vocab.mask_id if i in masks else t for i, t in enumerate(ctx)]
            want_logits, want_row = all_rows_forward(backend, backend.embed(substituted))
            got = backend.score(ctx, masks, want_attention=True)
            assert np.allclose(got.logits, want_logits, rtol=0, atol=1e-13)
            assert np.allclose(got.attention, want_row, rtol=0, atol=1e-13)
            embedded = backend.embed(ctx)
            want_logits, _ = all_rows_forward(backend, embedded)
            assert np.allclose(backend.forward_from_embeddings(embedded), want_logits, rtol=0, atol=1e-13)


def test_attention_row_is_probability_vector(backend, rng):
    for _ in range(10):
        n = int(rng.integers(1, 10))
        ctx = rng.integers(0, backend.vocab.size, size=n).tolist()
        row = backend.score(ctx, want_attention=True).attention
        assert row.shape == (n,)
        assert np.all(row >= 0) and np.all(row <= 1)
        assert abs(row.sum() - 1.0) < 1e-6


def test_top_k_truncation(backend):
    # a backend returns the full vector; a v1 score reply with top_k carries
    # top_k_pairs of it: the ids best first, the values as 17-digit decimals
    full = backend.score([3, 5, 2]).logits
    size = backend.vocab.size
    for k in range(1, size + 1):
        reply = handle_request(backend, json.dumps({"v": 1, "op": "score", "tokens": [3, 5, 2], "top_k": k}))
        ids, vals = top_k_pairs(full, k)
        assert reply["ok"] is True
        assert reply["logits"] == [[str(i), format(v, ".17g")] for i, v in zip(ids.tolist(), vals.tolist())]
    reply = handle_request(backend, json.dumps({"v": 1, "op": "score", "tokens": [3, 5, 2], "top_k": size + 1}))
    assert reply["ok"] is False and reply["code"] == "bad_request"


def test_top_k_pairs_tie_breaks_to_lower_id():
    ids, vals = top_k_pairs(np.array([1.0, 3.0, 3.0, 0.0]), 2)
    assert ids.tolist() == [1, 2]
    assert vals.tolist() == [3.0, 3.0]


def test_context_too_long():
    backend = make_backend(max_positions=4)
    with pytest.raises(CapacityError):
        backend.score([2, 3, 4, 5, 6])


def test_bad_mask_index(backend):
    with pytest.raises(ValueError):
        backend.score([2, 3], frozenset({5}))


def test_non_int_mask_position_rejected(backend):
    for bad in (True, False, 1.0, "1"):
        with pytest.raises(ValueError, match="not an int in 0..1"):
            backend.score([2, 3], mask_positions={bad})
    assert np.array_equal(backend.score([2, 3], {np.int64(1)}).logits, backend.score([2, 3], {1}).logits)
    # a client checks as the local backend does, before it sends: the stub
    # answers every score request with the reply for mask {1}, so a bad
    # argument that reached it would return logits instead of raising
    meta = handle_request(backend, json.dumps({"v": 1, "op": "meta"}))
    masked = handle_request(backend, json.dumps({"v": 1, "op": "score", "tokens": [2, 3], "mask_positions": [1]}))
    with StubServer(meta, masked) as stub, RemoteBackend(*stub.address, timeout=5) as remote:
        for probe in (backend, remote, CountingBackend(backend)):
            for bad in (True, 1.7, "1"):
                with pytest.raises(ValueError, match="not an int in 0..1"):
                    probe.score([2, 3], mask_positions={bad})
            with pytest.raises(MaskIndexError):
                probe.score([2, 3], mask_positions={5})
            for bad in (5, None):  # not an iterable of positions at all
                with pytest.raises(ValueError, match="mask_positions must be an iterable of ints in 0..1"):
                    probe.score([2, 3], mask_positions=bad)
            assert np.array_equal(probe.score([2, 3], {np.int64(1)}).logits, backend.score([2, 3], {1}).logits)


def test_counting_backend_reads_mask_positions_once_as_the_backend_does(backend):
    # an array is counted by what it holds, and a one-shot iterator is read once: counted and passed on alike
    counting = CountingBackend(backend)
    for masks, want in ((np.array([0]), [0]), (iter(()), []), (np.array([0, 1]), [0, 1])):
        before = counting.masked_calls
        got = counting.score([2, 3], masks).logits
        assert counting.masked_calls - before == bool(want), masks
        assert np.array_equal(got, backend.score([2, 3], want).logits), masks
    assert counting.calls == 3


def test_empty_context_rejected(backend):
    with pytest.raises(ValueError):
        backend.score([])


def test_embed_checks_tokens_like_score(backend):
    # a 1-d numpy int array is a context (README); a float array is not
    assert np.array_equal(backend.score(np.array([2, 3])).logits, backend.score([2, 3]).logits)
    for bad in ([-1], [backend.vocab.size], [], np.array([2.0, 3.0])):
        for probe in (backend.score, backend.embed):
            with pytest.raises(ValueError):
                probe(bad)
    too_long = [2] * (backend.max_positions + 1)
    for probe in (backend.score, backend.embed):
        with pytest.raises(CapacityError):
            probe(too_long)
    assert backend.embed([2, 3]).shape == (2, backend.config.embed_dim)
    # forward_from_embeddings bounds its input's length as score() does
    d = backend.config.embed_dim
    with pytest.raises(CapacityError):
        backend.forward_from_embeddings(np.zeros((backend.max_positions + 1, d)))
    for bad_shape in ((3, d + 1), (0, d), (d,)):
        with pytest.raises(ValueError):
            backend.forward_from_embeddings(np.zeros(bad_shape))
    assert np.array_equal(backend.forward_from_embeddings(backend.embed([2, 3])), backend.score([2, 3]).logits)


def test_config_validation():
    vocab = VocabSpec.toy(8)
    with pytest.raises(ValueError):
        ToyModelConfig(seed=0, vocab=vocab, embed_dim=10, n_heads=3)
    with pytest.raises(ValueError):
        ToyModelConfig(seed=0, vocab=vocab, n_layers=5)


def blas_probe():
    """Outputs that depend on the BLAS kernel: a fixed anchored decode's tokens,
    and a 256-token score() (the weights of the CLI's default toy model)."""
    toy = VocabSpec.toy(32)
    no_stop = VocabSpec(toy.size, toy.mask_id, frozenset(), toy.token_strings)  # every decode runs to its limit
    backend = ToyBackend(ToyModelConfig(seed=0, vocab=no_stop, max_positions=256))
    prompt = parse_markup("deffxreturnx⟦abc123zz0q⟧qrstuv0123")
    trace = anchored_decode(backend, prompt, AnchoringConfig(mode="fixed", omega=1.25), DecodeLimits(96))
    ctx = np.random.default_rng(26).integers(2, 32, size=256).tolist()
    result = backend.score(ctx, frozenset(range(40, 56)), want_attention=True)
    return {"tokens": trace.generated_tokens, "logits": result.logits.tolist(), "attention": result.attention.tolist()}


def test_forward_under_haswell_blas_kernel_matches_in_process():
    # the forward calls no BLAS (every product is an einsum), so the kernel
    # OpenBLAS picks per CPU cannot change a bit; Haswell is the one a CI
    # runner without AVX-512 selects
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_VERBOSE="2")
    env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests), env.get("PYTHONPATH", "")])
    child = subprocess.run(
        [sys.executable, "-c", "import json, test_backend; print(json.dumps(test_backend.blas_probe()))"],
        env=env, cwd=tests, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    if "Core:" in child.stderr:  # OpenBLAS names the kernel it picked
        assert "Core: Haswell" in child.stderr, child.stderr
    got, want = json.loads(child.stdout), blas_probe()
    assert len(want["tokens"]) == 96 and got["tokens"] == want["tokens"]
    for key in ("logits", "attention"):  # json carries each float's shortest repr, which reads back exactly
        assert np.array(got[key]).tobytes() == np.array(want[key]).tobytes(), key


def test_shared_backend_scores_concurrently_while_its_store_grows():
    # the prefix cache's store doubles under the lock on first use of a longer context; callers share one backend
    lengths = [int(n) for n in np.random.default_rng(5).integers(1, 129, size=64)]
    contexts = [[2 + (i * 7 + j) % 14 for j in range(n)] for i, n in enumerate(lengths)]
    want = [make_backend(seed=3, max_positions=128).score(c).logits for c in contexts]
    shared = make_backend(seed=3, max_positions=128)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda c: shared.score(c).logits, contexts, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
