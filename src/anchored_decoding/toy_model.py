"""Deterministic toy transformer backend.

A small random-init decoder (no training) used as a desk-scale stand-in for a
real code LLM: seeded uniform(-0.1, 0.1) parameters, pre-norm blocks, causal
softmax attention, float64 end to end. Exactness matters more than fluency —
every test oracle in this project relies on bit-reproducible logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchoring import is_int
from .errors import CapacityError, MaskIndexError
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
        # the int rule: True is no layer count and no seed
        for name in ("seed", "embed_dim", "n_layers", "n_heads", "max_positions"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an int")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (1 <= self.n_layers <= 4):
            raise ValueError("n_layers must be in 1..4")
        if self.embed_dim < 1 or self.n_heads < 1 or self.max_positions < 1:
            raise ValueError("dimensions must be positive")
        if self.embed_dim % self.n_heads != 0:
            raise ValueError("embed_dim must be divisible by n_heads")


@dataclass(frozen=True)
class ScoreResult:
    """Next-token scores for one context: ``logits`` is the full vocabulary
    vector, ``attention`` the last layer's final-position row, mean over heads.
    ``ids`` is always None; it stays for wrappers that still pass it on (the
    perfbench self-test). Truncation is ``top_k_pairs``, where it is used."""

    logits: np.ndarray
    ids: np.ndarray | None = None
    attention: np.ndarray | None = None


def check_score_args(context_tokens, mask_positions, vocab_size: int, max_positions: int):
    """The one rule for score()'s arguments (README): returns (a new int64 context, sorted distinct masks)."""
    if isinstance(context_tokens, np.ndarray) and context_tokens.ndim == 1:
        context_tokens = context_tokens.tolist()  # an int array gives ints, a float array floats
    if not isinstance(context_tokens, (list, tuple)) or not context_tokens:
        raise ValueError("context_tokens must be a non-empty sequence of ints")
    n = len(context_tokens)
    if n > max_positions:
        raise CapacityError(f"context length {n} exceeds max_positions {max_positions}")
    if not all(is_int(t) and 0 <= t < vocab_size for t in context_tokens):
        raise ValueError(f"token ids must be ints in 0..{vocab_size - 1}")
    masks = list(mask_positions)  # read once: a one-shot iterable is checked and used alike
    for m in masks:
        if not is_int(m):
            raise ValueError(f"mask position {m!r} is not an int in 0..{n - 1}")
        if not 0 <= m < n:
            raise MaskIndexError(f"mask position {m} is outside the context, 0..{n - 1}")
    return np.array(context_tokens, dtype=np.int64), sorted({int(m) for m in masks})


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
        self._future = np.zeros((0, 0), dtype=bool)  # the causal mask: True above the diagonal

    # -- forward ------------------------------------------------------------

    def _embed(self, tokens: np.ndarray) -> np.ndarray:
        return self.tok_emb[tokens] + self.pos_emb[: len(tokens)]

    def _forward(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Run the stack on embedded input (T, d); returns (final logits, attention row).

        The attention row is the last layer's final-position row averaged over
        heads (kept a probability vector by the arithmetic mean). Nothing else
        of the last layer is read, so past its keys and values it runs for the
        final position alone.
        """
        cfg = self.config
        T, d = h.shape
        hd = d // cfg.n_heads
        future = self._future  # read once: a concurrent call may replace it
        if len(future) < T:  # grown to the longest context scored, not rebuilt per call
            n = min(max(T, 2 * len(future)), self.max_positions)
            self._future = future = np.triu(np.ones((n, n), dtype=bool), k=1)
        future = future[:T, :T]
        for li, p in enumerate(self.layers):
            x = _layernorm(h)
            # (heads, rows, hd) views, so both products below are batched BLAS calls
            k = (x @ p["wk"]).reshape(T, cfg.n_heads, hd).transpose(1, 0, 2)
            v = (x @ p["wv"]).reshape(T, cfg.n_heads, hd).transpose(1, 0, 2)
            if li == len(self.layers) - 1:  # keep only the row the logits read
                h, x, future = h[-1:], x[-1:], future[-1:]
            q = (x @ p["wq"]) / np.sqrt(hd)
            attn = q.reshape(len(x), cfg.n_heads, hd).transpose(1, 0, 2) @ k.transpose(0, 2, 1)
            # causal softmax in the one (heads, rows, T) buffer the product returned
            np.copyto(attn, -np.inf, where=future)
            attn -= attn.max(axis=-1, keepdims=True)
            np.exp(attn, out=attn)
            attn /= attn.sum(axis=-1, keepdims=True)
            ctx = (attn @ v).transpose(1, 0, 2).reshape(len(x), d)
            h = h + ctx @ p["wo"]
            x = _layernorm(h)
            h = h + np.tanh(x @ p["w1"]) @ p["w2"]
        logits = _layernorm(h[-1]) @ self.unembed
        return logits, attn[:, -1, :].mean(axis=0)

    # -- public API ---------------------------------------------------------

    def score(self, context_tokens, mask_positions=frozenset(), want_attention: bool = False) -> ScoreResult:
        tokens, masks = check_score_args(context_tokens, mask_positions, self.vocab.size, self.max_positions)
        tokens[masks] = self.vocab.mask_id
        logits, att_row = self._forward(self._embed(tokens))
        return ScoreResult(logits=logits, attention=att_row if want_attention else None)

    def forward_from_embeddings(self, embedded: np.ndarray) -> np.ndarray:
        """Logits from a caller-supplied embedded input (positional encodings
        already added), shape (T, embed_dim) with 1 <= T <= max_positions.
        Exposed for gradient-based sensitivity probes."""
        h = np.asarray(embedded, dtype=np.float64)
        d = self.config.embed_dim
        if h.ndim != 2 or h.shape[1] != d or len(h) == 0:
            raise ValueError(f"embedded input must have shape (T, {d}) with T >= 1, not {h.shape}")
        if len(h) > self.max_positions:
            raise CapacityError(f"context length {len(h)} exceeds max_positions {self.max_positions}")
        logits, _ = self._forward(h)
        return logits

    def embed(self, context_tokens) -> np.ndarray:
        """Embedded input (token + positional) for the given context."""
        return self._embed(check_score_args(context_tokens, (), self.vocab.size, self.max_positions)[0])


class CountingBackend:
    """Transparent wrapper that counts score() calls; used for overhead and
    gating audits."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.max_positions = inner.max_positions
        self.calls = 0
        self.masked_calls = 0

    def score(self, context_tokens, mask_positions=frozenset(), want_attention=False) -> ScoreResult:
        self.calls += 1
        if mask_positions:
            self.masked_calls += 1
        return self.inner.score(context_tokens, mask_positions, want_attention=want_attention)
