"""Anchored-span resolution and augmented-logit arithmetic.

The engine runs two forward passes per step — one on the original context and
one with the anchored prompt span replaced by the mask token — and combines
the two logit vectors. With strength w the combined vector is

    w * original + (1 - w) * masked

which is equivalently original + (w - 1) * (original - masked): the masked
pass ablates the anchored span's semantics, so the difference isolates its
contribution and w scales it. w = 1 reproduces the unmodified model, w > 1
amplifies the span, w = 0 ignores it, w < 0 reverses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vocab import VocabSpec

DEFAULT_OPEN = "⟦"  # ⟦
DEFAULT_CLOSE = "⟧"  # ⟧


@dataclass(frozen=True)
class PromptSpec:
    """Ordered prompt segments, each flagged anchored or plain."""

    segments: tuple[tuple[str, bool], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("prompt must have at least one segment")

    @property
    def text(self) -> str:
        return "".join(t for t, _ in self.segments)

    @property
    def has_anchors(self) -> bool:
        return any(a for _, a in self.segments)


@dataclass(frozen=True)
class AnchoringConfig:
    """How (and whether) to anchor during decoding.

    mode "fixed" uses a single strength ``omega``; mode "confidence" reweights
    the per-token logit difference by ``lam * (1 - p_t)`` where p_t is the
    token's original softmax probability. ``top_k`` (fixed mode only)
    restricts the candidate tokens and trace storage to the top-k original
    logits. ``activation`` selects whether
    the harness anchors every task or only after a failed baseline attempt.
    """

    mode: str = "fixed"  # off | fixed | confidence
    omega: float = 1.25
    lam: float = 1.0
    top_k: int | None = None
    activation: str = "on_test_failure"  # always | on_test_failure

    def __post_init__(self):
        if self.mode not in ("off", "fixed", "confidence"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.activation not in ("always", "on_test_failure"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.mode == "fixed" and not np.isfinite(self.omega):
            raise ValueError("omega must be finite")
        if self.mode == "confidence" and self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be positive")


@dataclass(frozen=True)
class AnchorResolution:
    """Context indices covered by anchored segments; prompt region only and
    frozen for the whole decode (generated tokens are never masked)."""

    token_positions: frozenset[int]
    prompt_length: int

    def __post_init__(self):
        if any(not (0 <= p < self.prompt_length) for p in self.token_positions):
            raise ValueError("anchor positions must lie within the prompt")


# -- markup ------------------------------------------------------------------


def parse_markup(text: str, open_delim: str = DEFAULT_OPEN, close_delim: str = DEFAULT_CLOSE) -> PromptSpec:
    """Parse anchor markup: spans between the delimiters are anchored; a
    doubled delimiter escapes to the literal character."""
    segments: list[tuple[str, bool]] = []
    buf: list[str] = []
    anchored = False
    i = 0
    while i < len(text):
        for delim, opens in ((open_delim, True), (close_delim, False)):
            if text.startswith(delim, i):
                if text.startswith(delim * 2, i):
                    buf.append(delim)
                    i += 2 * len(delim)
                    break
                if opens == anchored:
                    which = "open" if opens else "close"
                    raise ValueError(f"unbalanced {which} delimiter at offset {i}")
                if buf:
                    segments.append(("".join(buf), anchored))
                    buf = []
                anchored = opens
                i += len(delim)
                break
        else:
            buf.append(text[i])
            i += 1
    if anchored:
        raise ValueError("unterminated anchored span")
    if buf or not segments:
        segments.append(("".join(buf), anchored))
    return PromptSpec(tuple(segments))


# -- resolution and masking --------------------------------------------------


def resolve_anchors(prompt: PromptSpec, vocab: VocabSpec) -> tuple[list[int], AnchorResolution]:
    """Tokenize the prompt segment by segment and collect the anchored index
    ranges. Segments tokenize independently, so spans always align to token
    boundaries in the toy vocabulary."""
    tokens: list[int] = []
    positions: set[int] = set()
    for text, anchored in prompt.segments:
        seg_tokens = vocab.tokenize(text)
        if anchored:
            positions.update(range(len(tokens), len(tokens) + len(seg_tokens)))
        tokens.extend(seg_tokens)
    return tokens, AnchorResolution(frozenset(positions), prompt_length=len(tokens))


def build_masked_context(full_context, resolution: AnchorResolution, mask_id: int) -> list[int]:
    """Copy of the context with anchored positions replaced by the mask token.
    Positions past the prompt (generated tokens) are never touched. Decoding
    passes the positions to ``score(mask_positions=...)`` instead; this is
    the reference form of that masked context."""
    context = list(full_context)
    if resolution.prompt_length > len(context):
        raise ValueError("context shorter than the resolved prompt")
    for p in resolution.token_positions:
        if p >= len(context):
            raise ValueError(f"anchor position {p} out of range")
        context[p] = mask_id
    return context


# -- logit combination -------------------------------------------------------


def _check_lengths(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")


def combine_fixed(original, masked, omega: float) -> np.ndarray:
    """w * original + (1 - w) * masked, elementwise; no normalization."""
    original = np.asarray(original, dtype=np.float64)
    masked = np.asarray(masked, dtype=np.float64)
    _check_lengths(original, masked)
    if not np.isfinite(omega):
        raise ValueError("omega must be finite")
    return omega * original + (1.0 - omega) * masked


def softmax(logits: np.ndarray) -> np.ndarray:
    m = np.max(logits)
    e = np.exp(logits - m)
    return e / e.sum()


def combine_confidence(original, masked, lam: float) -> np.ndarray:
    """Confidence-modulated combination: each token's difference weight is
    lam * (1 - p_t), so tokens the model is already confident about move
    little and uncertain tokens move more."""
    original = np.asarray(original, dtype=np.float64)
    masked = np.asarray(masked, dtype=np.float64)
    _check_lengths(original, masked)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    p = softmax(original)
    return original + lam * (1.0 - p) * (original - masked)

