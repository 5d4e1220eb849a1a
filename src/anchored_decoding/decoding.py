"""Autoregressive decoding: baseline greedy and anchored greedy share one
token loop, and the hybrid anchored beam search (candidates from augmented
logits, beam scores from original probabilities) shares its prompt
resolution, its per-step scoring and its candidate rule."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .anchoring import (
    AnchoringConfig,
    AnchorResolution,
    PromptSpec,
    combine_confidence,
    combine_fixed,
    resolve_anchors,
    softmax,
)
from .errors import DecodeError, TransportError
from .toy_model import CountingBackend, top_k_pairs
from .wire import _fmt

# Full-vector trace storage is capped; past this vocab size traces keep
# top-k pairs per side instead (default k=100).
FULL_STORAGE_VOCAB_LIMIT = 512
DEFAULT_STORAGE_TOP_K = 100

Pairs = list[tuple[int, float]]


@dataclass(frozen=True)
class DecodeLimits:
    max_new_tokens: int = 64

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")


@dataclass
class StepScore:
    """One decoding step's score vectors. Each vector is either a full
    float64 array or, when truncated, a list of (id, logit) pairs."""

    original: np.ndarray | Pairs
    masked: np.ndarray | Pairs | None = None
    augmented: np.ndarray | Pairs | None = None
    attention_row: np.ndarray | None = None


@dataclass
class GenerationTrace:
    prompt_tokens: list[int]
    resolution: AnchorResolution | None
    steps: list[tuple[int, StepScore]]
    finished_reason: str  # stop_token | length_limit | transport_error
    wall_times: list[float]

    @property
    def generated_tokens(self) -> list[int]:
        return [t for t, _ in self.steps]


@dataclass(frozen=True)
class BeamCandidate:
    tokens: tuple[int, ...]
    score: float  # accumulated log-prob under the ORIGINAL distribution
    finished: bool


def _resolve_prompt(backend, prompt) -> tuple[list[int], AnchorResolution]:
    """Accept a PromptSpec (tokenized against the backend's vocabulary) or a
    pre-resolved (prompt_tokens, AnchorResolution) pair, the form a backend
    whose vocabulary has no surface strings requires."""
    if isinstance(prompt, PromptSpec):
        return resolve_anchors(prompt, backend.vocab)
    prompt_tokens, resolution = prompt
    return list(prompt_tokens), resolution


def _prepare(backend, prompt, config: AnchoringConfig):
    """Prompt resolution and anchoring rule shared by anchored_decode and
    beam_search_anchored. Returns (prompt_tokens, resolution, config), the
    config replaced by None when anchoring does not apply (mode off, or no
    anchored tokens in the prompt)."""
    prompt_tokens, resolution = _resolve_prompt(backend, prompt)
    applies = config.mode != "off" and resolution.token_positions
    return prompt_tokens, resolution, config if applies else None


def _pairs(vec: np.ndarray, k: int | None) -> np.ndarray | Pairs:
    if k is None or k >= len(vec):
        return vec
    ids, vals = top_k_pairs(vec, k)
    return list(zip(ids.tolist(), vals.tolist()))


def _score_step(backend, context, resolution, config, want_attention: bool = False):
    """Score one step: the original pass and, with a config, the masked pass
    (anchored prompt positions replaced by the mask token through
    ``mask_positions``) combined into augmented logits. Returns (original
    result, masked logits, augmented logits); the last two are None without
    a config. A TransportError becomes a DecodeError."""
    try:
        orig = backend.score(context, want_attention=want_attention)
        if config is None:
            return orig, None, None
        masked = backend.score(context, mask_positions=resolution.token_positions).logits
    except TransportError as exc:
        raise DecodeError(str(exc)) from exc
    if config.mode == "confidence":
        return orig, masked, combine_confidence(orig.logits, masked, config.lam)
    return orig, masked, combine_fixed(orig.logits, masked, config.omega)


def _candidates(original: np.ndarray, augmented, config, n: int) -> np.ndarray:
    """The candidate rule of every decoder: the n best ids of the augmented
    logits (of the original ones without a config), best first, ties to the
    lowest id. With config.top_k only the original top-k ids are eligible,
    so fewer than n may come back."""
    if config is None or config.top_k is None:
        return top_k_pairs(original if augmented is None else augmented, n)[0]
    ids = np.sort(top_k_pairs(original, config.top_k)[0])
    return ids[top_k_pairs(augmented[ids], min(n, len(ids)))[0]]


def _decode(backend, prompt_tokens, resolution, config, limits, want_attention) -> GenerationTrace:
    """Token loop of greedy_decode (config None) and anchored_decode. With
    config.top_k the trace keeps the three vectors at the original top-k ids
    in top-k order. A DecodeError from the scoring step carries the steps
    completed so far."""
    top_k = config.top_k if config is not None else None
    store_k = DEFAULT_STORAGE_TOP_K if backend.vocab.size > FULL_STORAGE_VOCAB_LIMIT else None
    context = list(prompt_tokens)
    trace = GenerationTrace(list(prompt_tokens), resolution, [], "length_limit", [])
    for _ in range(limits.max_new_tokens):
        if len(context) >= backend.max_positions:
            break
        t0 = time.perf_counter()
        try:
            orig, masked, aug = _score_step(backend, context, resolution, config, want_attention)
        except DecodeError as exc:
            trace.finished_reason = "transport_error"
            exc.partial_trace = trace
            raise
        token = int(_candidates(orig.logits, aug, config, 1)[0])
        vectors = (orig.logits, masked, aug)
        if top_k is None:
            stored = [None if v is None else _pairs(v, store_k) for v in vectors]
        else:
            ids, _ = top_k_pairs(orig.logits, top_k)
            stored = [list(zip(ids.tolist(), v[ids].tolist())) for v in vectors]
        trace.wall_times.append(time.perf_counter() - t0)
        trace.steps.append((token, StepScore(*stored, attention_row=orig.attention)))
        context.append(token)
        if token in backend.vocab.stop_ids:
            trace.finished_reason = "stop_token"
            break
    return trace


def greedy_decode(backend, prompt_tokens, limits: DecodeLimits, want_attention: bool = False) -> GenerationTrace:
    """Baseline decode: argmax of the original logits each step (ties break
    to the lowest token id); no masked pass."""
    return _decode(backend, prompt_tokens, None, None, limits, want_attention)


def anchored_decode(
    backend,
    prompt: PromptSpec,
    config: AnchoringConfig,
    limits: DecodeLimits,
    want_attention: bool = False,
) -> GenerationTrace:
    """Anchored decode: two score() calls per step (original context, then
    the same context with ``mask_positions`` set to the anchored span), next
    token = argmax of the augmented logits. The mask set is frozen at prompt
    resolution; generated tokens are never masked. Raises ValueError when
    anchoring does not apply (mode off, or no anchored tokens)."""
    prompt_tokens, resolution, anchored = _prepare(backend, prompt, config)
    if anchored is None:
        raise ValueError("anchored_decode needs mode fixed or confidence and an anchored span")
    return _decode(backend, prompt_tokens, resolution, anchored, limits, want_attention)


def beam_search_anchored(
    backend,
    prompt: PromptSpec,
    config: AnchoringConfig,
    beam_width: int,
    limits: DecodeLimits,
) -> list[BeamCandidate]:
    """Hybrid beam search: candidate tokens come from the AUGMENTED logits
    (top beam_width per expanded prefix, under the same top_k rule as
    anchored_decode) while every extension is scored by the log of its
    ORIGINAL softmax probability, so amplified-but-noisy low-rank logits
    widen the search without corrupting the ranking. With mode off or no
    anchored tokens it is a plain beam search over the original logits.

    Prefixes are expanded best-first. Log-probabilities only decrease along
    a path, so a prefix's score bounds all of its completions and the first
    beam_width terminal sequences popped are exactly the beam_width best of
    the candidate-filtered search tree (the same set an exhaustive
    enumeration under the per-step candidate rule would rank on top). Ties
    break to the lexicographically smallest token sequence. Cost grows with
    beam width and sequence length; widths here are small (Pass@k scale).
    A TransportError aborts with a DecodeError (no partial trace).
    """
    import heapq

    if not (1 <= beam_width <= backend.vocab.size):
        raise ValueError("beam_width out of range")
    prompt_tokens, resolution, config = _prepare(backend, prompt, config)
    stop_ids = backend.vocab.stop_ids

    heap: list[tuple[float, tuple[int, ...], bool]] = [(0.0, (), False)]
    results: list[BeamCandidate] = []
    while heap and len(results) < beam_width:
        neg_score, tokens, finished = heapq.heappop(heap)
        score = -neg_score
        context = prompt_tokens + list(tokens)
        terminal = (
            finished
            or len(tokens) >= limits.max_new_tokens
            or len(context) >= backend.max_positions
        )
        if terminal:
            results.append(BeamCandidate(tokens, score, finished))
            continue
        orig, _, aug = _score_step(backend, context, resolution, config)
        logp = np.log(softmax(orig.logits))
        for tid in _candidates(orig.logits, aug, config, beam_width).tolist():
            heapq.heappush(
                heap,
                (-(score + float(logp[tid])), tokens + (tid,), tid in stop_ids),
            )
    results.sort(key=lambda b: (-b.score, b.tokens))
    return results


@dataclass(frozen=True)
class OverheadReport:
    baseline_tokens_per_sec: float
    anchored_tokens_per_sec: float
    baseline_tokens: int
    anchored_tokens: int
    baseline_calls: int
    anchored_calls: int


def measure_overhead(backend, prompt: PromptSpec, config: AnchoringConfig, limits: DecodeLimits) -> OverheadReport:
    """Run baseline and anchored decodes on the same prompt and report
    throughput. The anchored loop issues exactly two score() calls per
    emitted token against the baseline's one."""
    prompt_tokens, _ = _resolve_prompt(backend, prompt)

    counting = CountingBackend(backend)
    t0 = time.perf_counter()
    base = greedy_decode(counting, prompt_tokens, limits)
    base_secs = time.perf_counter() - t0
    base_calls = counting.calls

    counting = CountingBackend(backend)
    t0 = time.perf_counter()
    anch = anchored_decode(counting, prompt, config, limits)
    anch_secs = time.perf_counter() - t0

    return OverheadReport(
        baseline_tokens_per_sec=len(base.steps) / base_secs if base_secs > 0 else float("inf"),
        anchored_tokens_per_sec=len(anch.steps) / anch_secs if anch_secs > 0 else float("inf"),
        baseline_tokens=len(base.steps),
        anchored_tokens=len(anch.steps),
        baseline_calls=base_calls,
        anchored_calls=counting.calls,
    )


# -- trace export ------------------------------------------------------------


def _vec_json(vec: np.ndarray | Pairs | None):
    if vec is None:
        return None
    if isinstance(vec, np.ndarray):
        return [_fmt(v) for v in vec]
    return [[i, _fmt(v)] for i, v in vec]


def export_trace(trace: GenerationTrace, fp) -> None:
    """One JSON line per step; vectors are 17-significant-digit decimal
    strings ((id, decimal) pairs when truncated). alpha is the step's
    attention-to-prompt ratio when attention was captured."""
    prompt_len = trace.resolution.prompt_length if trace.resolution else len(trace.prompt_tokens)
    for i, (token, score) in enumerate(trace.steps):
        alpha = None
        if score.attention_row is not None:
            alpha = _fmt(float(np.sum(score.attention_row[:prompt_len])))
        fp.write(
            json.dumps(
                {
                    "step": i,
                    "token": token,
                    "orig": _vec_json(score.original),
                    "masked": _vec_json(score.masked),
                    "aug": _vec_json(score.augmented),
                    "alpha": alpha,
                }
            )
            + "\n"
        )
