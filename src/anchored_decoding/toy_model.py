"""Deterministic toy transformer backend.

A small random-init decoder (no training) used as a desk-scale stand-in for a
real code LLM: seeded uniform(-0.1, 0.1) parameters, pre-norm blocks, causal
softmax attention, float64 end to end. Exactness matters more than fluency —
every test oracle in this project relies on bit-reproducible logits.
"""

from __future__ import annotations

import threading
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
    # a C-speed pass accepts plain ints in range; anything else (numpy ints, refusals) takes the per-item rule
    if not (set(map(type, context_tokens)) == {int} and min(context_tokens) >= 0 and max(context_tokens) < vocab_size):
        if not all(is_int(t) and 0 <= t < vocab_size for t in context_tokens):
            raise ValueError(f"token ids must be ints in 0..{vocab_size - 1}")
    try:
        masks = list(mask_positions)  # read once: a one-shot iterable is checked and used alike
    except TypeError:
        raise ValueError(f"mask_positions must be an iterable of ints in 0..{n - 1}, not {mask_positions!r}") from None
    if masks and not (set(map(type, masks)) == {int} and min(masks) >= 0 and max(masks) < n):
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


def _layernorm(x: np.ndarray) -> np.ndarray:
    # x.mean and x.var's own arithmetic, without their per-call overhead
    d = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / d
    return centred / np.sqrt(var + 1e-5)


def _proj(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w without BLAS: a row's result does not depend on how many rows come with it."""
    return np.einsum("sd,de->se", x, w)


_STREAMS = 8  # contexts a backend keeps rows for: an anchored pair (one call), beam siblings, a second worker's pair
_BLOCK = 64  # rows per kernel call: a long block skips most of its masked upper triangle and bounds its scores


class ToyBackend:
    """Token scorer over the toy transformer.

    Scoring is a pure function of (config, context). The backend keeps the
    keys and values of the last _STREAMS contexts it scored as the streams of
    one store, so a context that extends one of them computes only its new
    rows; the forward is row-invariant, so those bytes equal a cold forward's.
    An unmasked miss right after a masked call of the same prompt also
    computes, in the same kernel calls, the masked pass that follows it.
    The store is guarded by a lock: instances are safe to share across
    concurrent decodes.
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
            p = {"wq": u(d, d), "wk": u(d, d), "wv": u(d, d), "wo": u(d, d), "w1": u(d, 4 * d), "w2": u(4 * d, d)}
            # one product for q, k and v, with q's 1/sqrt(head_dim) folded in
            p["wqkv"] = np.concatenate([p["wq"] / np.sqrt(d // config.n_heads), p["wk"], p["wv"]], axis=1)
            self.layers.append(p)
        self.unembed = u(d, v)
        self._lock = threading.Lock()
        self._kv = self._new_kv(0, _STREAMS)  # every stream's keys and values, grown by doubling
        self._n = [0] * _STREAMS  # rows stream s holds; 0: unused
        self._tokens = np.full((_STREAMS, config.max_positions), -1, dtype=np.int64)  # row s: stream s's tokens
        self._tips: dict[bytes, tuple] = {}  # tokens' bytes: (stream, scores, unasked guess), least recently used first
        self._last = None  # the last call's (mask positions, effective context), if it was masked
        counters = "calls full_hits rows_computed rows_reused siblings_computed sibling_hits"
        self._counts = dict.fromkeys(counters.split(), 0)

    # -- forward ------------------------------------------------------------

    def _embed(self, tokens: np.ndarray, start: int = 0) -> np.ndarray:
        return self.tok_emb[tokens] + self.pos_emb[start : start + tokens.shape[-1]]

    def _new_kv(self, rows: int, streams: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Room for ``rows`` rows of ``streams`` contexts: keys (streams,
        layers, heads, head_dim, rows) and values (streams, layers, heads,
        rows, head_dim). Keys lie rows-last, so q·k runs over a contiguous
        vector of rows and sums over head_dim outside it."""
        L, H = self.config.n_layers, self.config.n_heads
        hd = self.config.embed_dim // H
        return np.empty((streams, L, H, hd, rows)), np.empty((streams, L, H, rows, hd))

    def _rows(self, kv, start: int, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Run the stack on embedded rows start..start+R-1 of S contexts (h,
        shape (R, S, d)) whose earlier rows' keys and values ``kv`` holds;
        writes theirs after them and returns (final logits, attention row)
        per context. ``kv`` has a leading axis of the S contexts: a new
        ``_new_kv(rows, S)``, or a view of S streams of the store. Every
        product carries that axis as a batch axis.

        The attention row is the last layer's final-position row averaged
        over heads. Nothing else of the last layer is read, so past its keys
        and values it runs for the final rows alone.

        Row-invariant: a row's bytes do not depend on how the rows were split
        into calls, or on the contexts beside it. Every product is an einsum
        (no BLAS) whose sum is its outer loop, so each output is a sequential
        sum; the softmax normaliser is sequential too; and a block's causal
        mask only adds exact zeros at the end of those sums.
        """
        cfg = self.config
        R, S, d = h.shape
        H, hd = cfg.n_heads, d // cfg.n_heads
        end = start + R
        # a block's earlier rows must not see its later ones; one row sees everything
        future = np.arange(start, end)[:, None] < np.arange(end) if R > 1 else None
        keys, values = kv
        h = h.reshape(R * S, d)  # row r of context s at r·S + s, the order of the (R, S, H, hd) reshapes
        for li, p in enumerate(self.layers):
            k, v = keys[:, li], values[:, li]  # (S, H, hd, rows) and (S, H, rows, hd)
            qkv = _proj(_layernorm(h), p["wqkv"])
            k[..., start:end] = qkv[:, d : 2 * d].reshape(R, S, H, hd).transpose(1, 2, 3, 0)
            v[:, :, start:end] = qkv[:, 2 * d :].reshape(R, S, H, hd).transpose(1, 2, 0, 3)
            if li == len(self.layers) - 1:  # keep only the rows the logits read
                h, qkv, future, R = h[-S:], qkv[-S:], None, 1
            q = qkv[:, :d].reshape(R, S, H, hd).transpose(1, 2, 0, 3)
            attn = np.einsum("shrd,shdt->shrt", q, k[..., :end])
            if future is not None:
                np.copyto(attn, -np.inf, where=future)
            attn -= np.maximum.reduce(attn, axis=-1, keepdims=True)  # the method's arithmetic, without its overhead
            np.exp(attn, out=attn)
            attn /= np.add.accumulate(attn, axis=-1)[..., -1:]  # in order, so a masked tail adds exact zeros
            ctx = np.einsum("shrt,shtd->rshd", attn, v[:, :, :end]).reshape(R * S, d)
            h = h + _proj(ctx, p["wo"])
            h = h + _proj(np.tanh(_proj(_layernorm(h), p["w1"])), p["w2"])
        return _proj(_layernorm(h), self.unembed), np.add.reduce(attn.reshape(S, H, end), axis=1) / H  # mean over heads

    def _extend(self, kv, start: int, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_rows`` in blocks of at most _BLOCK rows: the same bytes as one call."""
        for a in range(0, len(h), _BLOCK):
            scores = self._rows(kv, start + a, h[a : a + _BLOCK])
        return scores

    # -- prefix cache -------------------------------------------------------

    def _cached_forward(self, tokens: np.ndarray, masks: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Scores of an effective context masked at ``masks``, computing only
        the rows no stream holds. An unmasked miss right after a masked call of
        the same prompt, from any thread, also computes itself masked at that
        call's positions and keeps it as a tip, unless it is one. Call under the lock."""
        key, counts = tokens.tobytes(), self._counts
        last, self._last = self._last, (masks, tokens) if masks else None
        counts["calls"] += 1
        entry = self._tips.pop(key, None)
        if entry is not None:
            counts["full_hits"] += 1
            counts["sibling_hits"] += entry[2]
            self._tips[key] = (*entry[:2], False)  # re-inserted: now the most recently used
            return entry[1]
        T, sibling = len(tokens), None
        if last and not masks and last[0][-1] < T:
            positions, masked = last
            sibling = tokens.copy()
            sibling[positions] = self.vocab.mask_id
            p, sib_key = positions[-1] + 1, sibling.tobytes()
            if sibling[:p].tobytes() != masked[:p].tobytes() or sib_key == key or sib_key in self._tips:
                sibling = None
        s, start = self._stream_for(tokens, key)
        contexts, step = tokens[None], 1
        if sibling is not None:
            self._n[s] = T  # claimed, so the sibling takes another stream
            s2, first = self._stream_for(sibling, sib_key)
            contexts, step, start = np.stack((tokens, sibling)), s2 - s, min(start, first)
        new, (keys, values) = contexts[:, start:], self._kv
        S, h = len(new), self._embed(new, start).transpose(1, 0, 2)
        # streams s and s2 as one view of the store: a negative step reaches one below s, stream 0 included
        logits, rows = self._extend((keys[s::step][:S], values[s::step][:S]), start, h)
        self._tokens[s::step][:S, start:T] = new
        if sibling is not None:
            self._n[s2] = T
            self._tips[sib_key] = (s2, (logits[1], rows[1]), True)
            counts["siblings_computed"] += 1
        counts["rows_computed"] += S * (T - start)
        counts["rows_reused"] += S * start
        self._n[s] = T
        entry = self._tips[key] = (s, (logits[0], rows[0]), False)  # the original last: now the most recently used
        return entry[1]

    def _stream_for(self, tokens: np.ndarray, key: bytes) -> tuple[int, int]:
        """The stream to extend, with room for the context, and its first row
        to compute: the stream that shares the longest prefix, or a copy of
        the shared rows in an unused, else the least recently used, other
        stream when that one holds rows past them. Its old tip is out of ``_tips``."""
        T, n = len(tokens), self._n
        held = self._kv[1].shape[-2]
        if T > held:  # the whole store doubles, keeping every stream's rows
            grown = self._new_kv(min(max(T, 2 * held), self.max_positions), _STREAMS)
            for s in range(_STREAMS):
                grown[0][s, ..., : n[s]] = self._kv[0][s, ..., : n[s]]
                grown[1][s, ..., : n[s], :] = self._kv[1][s, ..., : n[s], :]
            self._kv = grown
        hit = self._tips.pop(key[: -tokens.itemsize], None)  # the common case: one token past a tip
        if hit is not None:
            return hit[0], n[hit[0]]
        # unused positions hold -1, so a stream's run of equal tokens ends at its n
        same = np.logical_and.accumulate(self._tokens[:, :T] == tokens, axis=1).sum(axis=1)
        src = int(same.argmax())
        shared = min(int(same[src]), T - 1)  # the last row is always computed: its scores are the answer
        dst = src
        if shared < n[src]:  # an unused stream, else the least recently used other one
            dst = n.index(0) if 0 in n else next(s for s, *_ in self._tips.values() if s != src)
        self._tips.pop(self._tokens[dst, : n[dst]].tobytes(), None)  # before its tokens change
        if dst != src:
            keys, values = self._kv
            keys[dst, ..., :shared] = keys[src, ..., :shared]
            values[dst, ..., :shared, :] = values[src, ..., :shared, :]
            self._tokens[dst, :shared] = tokens[:shared]
            self._tokens[dst, shared:] = -1
            n[dst] = shared
        return dst, shared

    # -- public API ---------------------------------------------------------

    def score(self, context_tokens, mask_positions=frozenset(), want_attention: bool = False) -> ScoreResult:
        tokens, masks = check_score_args(context_tokens, mask_positions, self.vocab.size, self.max_positions)
        if masks:
            tokens[masks] = self.vocab.mask_id
        with self._lock:
            logits, att_row = self._cached_forward(tokens, masks)
        # copies: the cache keeps its own
        return ScoreResult(logits=logits.copy(), attention=att_row.copy() if want_attention else None)

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
        return self._extend(self._new_kv(len(h)), 0, h[:, None])[0][0]

    def stats(self) -> dict:
        """A snapshot of the cache's counters, with rows computed per call and the share of siblings asked for."""
        with self._lock:
            c = dict(self._counts)
        return {**c, "rows_per_call": c["rows_computed"] / max(c["calls"], 1),
                "sibling_hit_share": c["sibling_hits"] / max(c["siblings_computed"], 1)}

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
        masks = list(mask_positions) if np.iterable(mask_positions) else mask_positions  # read once, or refused inside
        self.calls += 1
        self.masked_calls += bool(masks)
        return self.inner.score(context_tokens, masks, want_attention=want_attention)
