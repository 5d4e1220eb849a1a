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

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .vocab import VocabSpec

DEFAULT_OPEN = "⟦"  # ⟦
DEFAULT_CLOSE = "⟧"  # ⟧


def is_int(x) -> bool:
    """The rule for every count and token id: a Python or numpy int, never a bool, though Python makes it one."""
    return type(x) is int or isinstance(x, np.integer)


def is_real(x) -> bool:
    """The rule for every strength: an int (by ``is_int``) or a Python or numpy float, finite as a float; no bool."""
    try:
        return (is_int(x) or isinstance(x, (float, np.floating))) and math.isfinite(x)
    except OverflowError:  # an int past float's range
        return False


@dataclass(frozen=True)
class PromptSpec:
    """Ordered prompt segments, each flagged anchored or plain."""

    segments: tuple[tuple[str, bool], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("prompt must have at least one segment")


@dataclass(frozen=True)
class AnchoringConfig:
    """How (and whether) to anchor during decoding.

    mode "fixed" uses a single strength ``omega``; mode "confidence" reweights
    the per-token logit difference by ``lam * (1 - p_t)`` where p_t is the
    token's original softmax probability. ``top_k`` (fixed mode only; set in
    confidence mode it raises ValueError) restricts the candidate tokens and
    trace storage to the top-k original logits. When a task is anchored is the
    harness's policy, ``harness.evaluate``'s ``activation``.
    """

    mode: str = "fixed"  # off | fixed | confidence
    omega: float = 1.25
    lam: float = 1.0
    top_k: int | None = None

    def __post_init__(self):
        if self.mode not in ("off", "fixed", "confidence"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "fixed" and not is_real(self.omega):
            raise ValueError(f"omega must be a finite real number, not {self.omega!r}")
        if self.mode == "confidence" and not (is_real(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be a finite real number >= 0, not {self.lam!r}")
        if self.top_k is not None and not (is_int(self.top_k) and self.top_k >= 1):
            raise ValueError("top_k must be a positive int")
        if self.mode == "confidence" and self.top_k is not None:
            raise ValueError("top_k truncation is only supported in fixed mode")

    def applies_to(self, resolution: AnchorResolution) -> bool:
        """Mode is not off and the prompt has anchored tokens. Where this is
        false every decoder uses the original logits alone."""
        return self.mode != "off" and bool(resolution.token_positions)


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


def check_delimiters(open_delim: str, close_delim: str) -> None:
    """Neither delimiter may start with the other, which also rules out an
    empty or repeated one: where one does, the longer one's text also reads
    as the shorter one or its doubled escape, so a span may never close."""
    if open_delim.startswith(close_delim) or close_delim.startswith(open_delim):
        raise ValueError(
            f"anchor delimiters must be non-empty and differ, and neither may start with the other,"
            f" got {open_delim!r} and {close_delim!r}"
        )


def parse_markup(text: str, open_delim: str = DEFAULT_OPEN, close_delim: str = DEFAULT_CLOSE) -> PromptSpec:
    """Parse anchor markup: spans between the delimiters (check_delimiters)
    are anchored; a doubled delimiter escapes to the literal character."""
    check_delimiters(open_delim, close_delim)
    literal = {open_delim * 2: open_delim, close_delim * 2: close_delim}
    # the doubled forms first; check_delimiters keeps an open and a close form from matching at one offset
    pieces = re.split("(" + "|".join(map(re.escape, (*literal, open_delim, close_delim))) + ")", text)
    segments: list[tuple[str, bool]] = []
    buf, anchored, offset = pieces[0], False, len(pieces[0])
    for delim, following in zip(pieces[1::2], pieces[2::2]):
        if delim in literal:
            buf += literal[delim]
        elif (delim == open_delim) == anchored:
            raise ValueError(f"unbalanced {'open' if anchored else 'close'} delimiter at offset {offset}")
        else:
            if buf:
                segments.append((buf, anchored))
            buf, anchored = "", not anchored
        buf += following
        offset += len(delim) + len(following)
    if anchored:
        raise ValueError("unterminated anchored span")
    if buf or not segments:
        segments.append((buf, anchored))
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
    """Softmax along the last axis."""
    m = np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=-1, keepdims=True)


def combine_confidence(original, masked, lam: float) -> np.ndarray:
    """Confidence-modulated combination: each token's difference weight is
    lam * (1 - p_t), so tokens the model is already confident about move
    little and uncertain tokens move more."""
    original = np.asarray(original, dtype=np.float64)
    masked = np.asarray(masked, dtype=np.float64)
    _check_lengths(original, masked)
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError("lambda must be finite and nonnegative")
    p = softmax(original)
    return original + lam * (1.0 - p) * (original - masked)

