import numpy as np
import pytest

from anchored_decoding import ToyBackend, ToyModelConfig, VocabSpec
from anchored_decoding.errors import CapacityError
from anchored_decoding.toy_model import top_k_pairs

from conftest import make_backend


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


def test_attention_row_is_probability_vector(backend, rng):
    for _ in range(10):
        n = int(rng.integers(1, 10))
        ctx = rng.integers(0, backend.vocab.size, size=n).tolist()
        row = backend.score(ctx, want_attention=True).attention
        assert row.shape == (n,)
        assert np.all(row >= 0) and np.all(row <= 1)
        assert abs(row.sum() - 1.0) < 1e-6


def test_top_k_truncation(backend, rng):
    full = backend.score([3, 5, 2]).logits
    for k in (1, 4, backend.vocab.size):
        res = backend.score([3, 5, 2], top_k=k)
        assert len(res.ids) == k
        # exactly the k largest, original indices, values matching the full vector
        expected_ids = np.lexsort((np.arange(len(full)), -full))[:k]
        assert np.array_equal(res.ids, expected_ids)
        assert np.array_equal(res.logits, full[res.ids])
    res = backend.score([3, 5, 2], top_k=backend.vocab.size)
    assert np.array_equal(res.logits[np.argsort(res.ids)], full)


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


def test_empty_context_rejected(backend):
    with pytest.raises(ValueError):
        backend.score([])


def test_embed_checks_tokens_like_score(backend):
    for bad in ([-1], [backend.vocab.size], []):
        for probe in (backend.score, backend.embed):
            with pytest.raises(ValueError):
                probe(bad)
    too_long = [2] * (backend.max_positions + 1)
    for probe in (backend.score, backend.embed):
        with pytest.raises(CapacityError):
            probe(too_long)
    assert backend.embed([2, 3]).shape == (2, backend.config.embed_dim)


def test_config_validation():
    vocab = VocabSpec.toy(8)
    with pytest.raises(ValueError):
        ToyModelConfig(seed=0, vocab=vocab, embed_dim=10, n_heads=3)
    with pytest.raises(ValueError):
        ToyModelConfig(seed=0, vocab=vocab, n_layers=5)
