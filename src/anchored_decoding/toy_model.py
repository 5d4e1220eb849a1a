"""Deterministic toy transformer backend.

A small random-init decoder (no training) used as a desk-scale stand-in for a
real code LLM: seeded uniform(-0.1, 0.1) parameters, pre-norm blocks, causal
softmax attention, float64 end to end. Exactness matters more than fluency —
every test oracle in this project relies on bit-reproducible logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .vocab import VocabSpec


@dataclass(frozen=True)
class ToyModelConfig:
    seed: int
    vocab: VocabSpec
    embed_dim: int = 32
    n_layers: int = 2
    n_heads: int = 4
    max_positions: int = 128

    def __post_init__(self):
        if not (1 <= self.n_layers <= 4):
            raise ValueError("n_layers must be in 1..4")
        if self.embed_dim < 1 or self.n_heads < 1 or self.max_positions < 1:
            raise ValueError("dimensions must be positive")
        if self.embed_dim % self.n_heads != 0:
            raise ValueError("embed_dim must be divisible by n_heads")


@dataclass(frozen=True)
class ScoreResult:
    """Next-token scores for one context.

    ``ids`` is None for a full-vocabulary vector; otherwise it pairs with
    ``logits`` as a top-k truncation (largest logits, original indices).
    ``attention`` is the last layer's final-position row, mean over heads.
    """

    logits: np.ndarray
    ids: np.ndarray | None = None
    attention: np.ndarray | None = None


def top_k_pairs(logits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of the k largest logits; ties broken by lower id."""
    if not (1 <= k <= len(logits)):
        raise ValueError("top_k out of range")
    order = np.lexsort((np.arange(len(logits)), -logits))[:k]
    return order, logits[order]


def _layernorm(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def _softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


class ToyBackend:
    """Token scorer over the toy transformer.

    Scoring is a pure function of (config, context); instances are safe to
    share read-only across concurrent decodes.
    """

    def __init__(self, config: ToyModelConfig):
        self.config = config
        self.vocab = config.vocab
        self.max_positions = config.max_positions
        rng = np.random.default_rng(config.seed)
        d, v = config.embed_dim, config.vocab.size

        def u(*shape):
            return rng.uniform(-0.1, 0.1, size=shape)

        self.tok_emb = u(v, d)
        self.pos_emb = u(config.max_positions, d)
        self.layers = []
        for _ in range(config.n_layers):
            self.layers.append(
                {
                    "wq": u(d, d),
                    "wk": u(d, d),
                    "wv": u(d, d),
                    "wo": u(d, d),
                    "w1": u(d, 4 * d),
                    "w2": u(4 * d, d),
                }
            )
        self.unembed = u(d, v)

    # -- forward ------------------------------------------------------------

    def _embed(self, tokens: np.ndarray) -> np.ndarray:
        return self.tok_emb[tokens] + self.pos_emb[: len(tokens)]

    def _forward(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Run the stack on embedded input (T, d); returns (final logits, attention row).

        The attention row is the last layer's final-position row averaged over
        heads (kept a probability vector by the arithmetic mean).
        """
        cfg = self.config
        T, d = h.shape
        hd = d // cfg.n_heads
        causal = np.tril(np.ones((T, T), dtype=bool))
        last_row = None
        for li, p in enumerate(self.layers):
            x = _layernorm(h)
            q = (x @ p["wq"]).reshape(T, cfg.n_heads, hd)
            k = (x @ p["wk"]).reshape(T, cfg.n_heads, hd)
            v = (x @ p["wv"]).reshape(T, cfg.n_heads, hd)
            scores = np.einsum("qhd,khd->hqk", q, k) / np.sqrt(hd)
            scores = np.where(causal[None, :, :], scores, -np.inf)
            attn = _softmax(scores)
            ctx = np.einsum("hqk,khd->qhd", attn, v).reshape(T, d)
            h = h + ctx @ p["wo"]
            x = _layernorm(h)
            h = h + np.tanh(x @ p["w1"]) @ p["w2"]
            if li == len(self.layers) - 1:
                last_row = attn[:, -1, :].mean(axis=0)
        logits = _layernorm(h[-1]) @ self.unembed
        return logits, last_row

    def _tokens(self, context_tokens) -> np.ndarray:
        """The context as an int64 array, checked for score() and embed()."""
        tokens = np.asarray(context_tokens, dtype=np.int64)
        if tokens.ndim != 1 or len(tokens) == 0:
            raise ValueError("context_tokens must be a non-empty 1-d sequence")
        if len(tokens) > self.max_positions:
            raise CapacityError(
                f"context length {len(tokens)} exceeds max_positions {self.max_positions}"
            )
        if np.any(tokens < 0) or np.any(tokens >= self.vocab.size):
            raise ValueError("token id out of vocabulary range")
        return tokens

    # -- public API ---------------------------------------------------------

    def score(
        self,
        context_tokens,
        mask_positions=frozenset(),
        want_attention: bool = False,
        top_k: int | None = None,
    ) -> ScoreResult:
        tokens = self._tokens(context_tokens)
        for m in mask_positions:
            if not (0 <= m < len(tokens)):
                raise ValueError(f"mask position {m} out of range for context length {len(tokens)}")
        if mask_positions:
            tokens = tokens.copy()
            tokens[list(mask_positions)] = self.vocab.mask_id
        logits, att_row = self._forward(self._embed(tokens))
        attention = att_row if want_attention else None
        if top_k is not None:
            ids, vals = top_k_pairs(logits, top_k)
            return ScoreResult(logits=vals, ids=ids, attention=attention)
        return ScoreResult(logits=logits, attention=attention)

    def forward_from_embeddings(self, embedded: np.ndarray) -> np.ndarray:
        """Logits from a caller-supplied embedded input (positional encodings
        already added). Exposed for gradient-based sensitivity probes."""
        logits, _ = self._forward(np.asarray(embedded, dtype=np.float64))
        return logits

    def embed(self, context_tokens) -> np.ndarray:
        """Embedded input (token + positional) for the given context."""
        return self._embed(self._tokens(context_tokens))


class CountingBackend:
    """Transparent wrapper that counts score() calls; used for overhead and
    gating audits."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.max_positions = inner.max_positions
        self.calls = 0
        self.masked_calls = 0

    def score(self, context_tokens, mask_positions=frozenset(), **kw) -> ScoreResult:
        self.calls += 1
        if mask_positions:
            self.masked_calls += 1
        return self.inner.score(context_tokens, mask_positions, **kw)
