"""Attention instruments: prompt-attention ratio curves, finite-difference
token sensitivity, and passed-vs-failed length statistics."""

from __future__ import annotations

import csv
import statistics
from typing import TYPE_CHECKING

import numpy as np

from .anchoring import is_int, is_real
from .errors import UnsupportedOperationError

if TYPE_CHECKING:
    from .decoding import GenerationTrace

ROW_SUM_TOL = 1e-6


def attention_ratio(attention_row, prompt_length: int) -> float:
    """Fraction of the (normalized) attention row's mass on prompt positions.

    Rows are probability vectors, so the ratio is just the prefix sum over
    the first prompt_length positions.
    """
    row = np.asarray(attention_row, dtype=np.float64)
    # NaN passes the sum check below, [1.5, -0.5] sums to 1, and len() of a 2-d row counts its rows
    if row.ndim != 1 or not (np.isfinite(row) & (row >= 0)).all():
        raise ValueError("attention row must be a vector of finite, non-negative entries")
    if abs(float(row.sum()) - 1.0) > ROW_SUM_TOL:
        raise ValueError(f"attention row sums to {row.sum()}, not 1")
    if not is_int(prompt_length):
        raise ValueError("prompt_length must be an int")
    if not (0 <= prompt_length <= len(row)):
        raise ValueError("prompt_length out of range")
    if prompt_length == len(row):
        return 1.0  # whole row is prompt mass; avoid rounding below 1
    return float(row[:prompt_length].sum())


def dilution_curve(trace: GenerationTrace) -> list[float]:
    """Attention-to-prompt ratio (alpha) at every step of a trace captured
    with want_attention. At step 1 the context is all prompt, so alpha is 1."""
    prompt_length = len(trace.prompt_tokens)
    alphas = []
    for i, (_, score) in enumerate(trace.steps):
        if score.attention_row is None:
            raise ValueError(f"step {i} has no attention row; decode with want_attention")
        alphas.append(attention_ratio(score.attention_row, prompt_length))
    return alphas


def gradient_attention(backend, context_tokens, delta: float = 1e-3) -> np.ndarray:
    """Per-token sensitivity via central finite differences.

    For each context position the score is the Euclidean norm (over embedding
    dimensions) of the numerical gradient of the next-step argmax token's
    logit with respect to that position's input embedding. Requires a backend
    exposing embed()/forward_from_embeddings() (the toy model or a test
    double); remote backends cannot support it. delta must be finite and > 0.
    """
    if not (is_real(delta) and delta > 0):
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    if not (hasattr(backend, "embed") and hasattr(backend, "forward_from_embeddings")):
        raise UnsupportedOperationError("gradient probes need embedding access (toy backend only)")
    base = backend.embed(context_tokens)
    target = int(np.argmax(backend.forward_from_embeddings(base)))
    n, d = base.shape
    scores = np.zeros(n)
    for i in range(n):
        grad = np.zeros(d)
        for j in range(d):
            plus = base.copy()
            plus[i, j] += delta
            minus = base.copy()
            minus[i, j] -= delta
            f_plus = backend.forward_from_embeddings(plus)[target]
            f_minus = backend.forward_from_embeddings(minus)[target]
            grad[j] = (f_plus - f_minus) / (2.0 * delta)
        scores[i] = float(np.linalg.norm(grad))
    return scores


def length_stats(results) -> dict[tuple[str, str], tuple[float, float, int]]:
    """Aggregate (token_count, passed, group) triples into generated-token
    counts per cell: (group, status) -> (mean, median, count), status in
    {"passed", "failed"}."""
    if not results:
        raise ValueError("no results")
    buckets: dict[tuple[str, str], list[int]] = {}
    for count, passed, group in results:
        if not (is_int(count) and count >= 0):
            raise ValueError(f"token count {count!r} is not an int >= 0")
        key = (str(group), "passed" if passed else "failed")
        buckets.setdefault(key, []).append(count)
    return {
        key: (statistics.mean(vals), float(statistics.median(vals)), len(vals))
        for key, vals in buckets.items()
    }


def write_curve_csv(alphas: list[float], fp) -> None:
    w = csv.writer(fp)
    w.writerow(["step", "alpha"])
    for i, a in enumerate(alphas):
        w.writerow([i, repr(a)])


def write_length_stats_csv(cells: dict[tuple[str, str], tuple[float, float, int]], fp) -> None:
    w = csv.writer(fp)
    w.writerow(["group", "status", "mean", "median", "count"])
    for (group, status), (mean, median, count) in sorted(cells.items()):
        w.writerow([group, status, repr(mean), repr(median), count])
