"""Autoregressive decoding: one best-first search is the only decode loop.
The hybrid anchored beam search (candidates from augmented logits, beam
scores from original probabilities) runs it at the beam width; baseline
greedy and anchored greedy decoding are its width-1 case."""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass

import numpy as np

from .anchoring import (
    AnchoringConfig,
    PromptSpec,
    combine_confidence,
    combine_fixed,
    is_int,
    resolve_anchors,
    softmax,
)
from .attention_analysis import attention_ratio
from .errors import CapacityError, DecodeError, TransportError
from .toy_model import top_k_pairs
from .wire import _fmt

Pairs = list[tuple[int, float]]


@dataclass(frozen=True)
class DecodeLimits:
    max_new_tokens: int = 64

    def __post_init__(self):
        if not (is_int(self.max_new_tokens) and self.max_new_tokens >= 1):
            raise ValueError("max_new_tokens must be an int >= 1")


@dataclass
class StepScore:
    """One step's score vectors, all three at the ids the candidate rule ranked:
    full float64 arrays, or with config.top_k (id, logit) pairs at the original
    top-k ids in top-k order. So augmented = combine(original, masked) holds."""

    original: np.ndarray | Pairs
    masked: np.ndarray | Pairs | None = None
    augmented: np.ndarray | Pairs | None = None
    attention_row: np.ndarray | None = None


@dataclass
class GenerationTrace:
    prompt_tokens: list[int]
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


def check_search_args(vocab_size: int, config: AnchoringConfig, width: int) -> None:
    """The rule for a search's inputs against the vocabulary, applied before
    any score() call: width, an int, and config.top_k whatever the mode, in 1..V."""
    if not (is_int(width) and 1 <= width <= vocab_size):
        raise ValueError(f"beam width must be in 1..{vocab_size}")
    if config.top_k is not None and config.top_k > vocab_size:  # AnchoringConfig holds top_k >= 1
        raise ValueError(f"top_k must be in 1..{vocab_size}")


def _prepare(backend, prompt, config: AnchoringConfig, width: int):
    """Input checks (check_search_args at ``width``) and prompt resolution
    shared by the decoders. ``prompt`` is a PromptSpec (tokenized against the
    backend's vocabulary) or a pre-resolved (prompt_tokens, AnchorResolution) pair
    whose prompt_length is len(prompt_tokens), the form a backend without
    surface strings requires. Returns (prompt_tokens, resolution, config),
    the config replaced by None where it does not apply to the prompt
    (AnchoringConfig.applies_to)."""
    check_search_args(backend.vocab.size, config, width)
    if isinstance(prompt, PromptSpec):
        prompt_tokens, resolution = resolve_anchors(prompt, backend.vocab)
    else:
        prompt_tokens, resolution = prompt
        if resolution.prompt_length != len(prompt_tokens):
            raise ValueError(f"prompt_length {resolution.prompt_length} != {len(prompt_tokens)} prompt tokens")
    return list(prompt_tokens), resolution, config if config.applies_to(resolution) else None


def _candidates(original: np.ndarray, augmented, top_ids, n: int) -> np.ndarray:
    """The candidate rule of every decoder, on the full vectors every backend
    returns: the n best ids of the augmented logits (of the original ones
    without a config), best first, ties to the lowest id. With top_ids (the
    original top-k ids under config.top_k) just those ids are eligible, so
    fewer than n may come back."""
    if top_ids is None:
        return top_k_pairs(original if augmented is None else augmented, n)[0]
    ids = np.sort(top_ids)
    return ids[top_k_pairs(augmented[ids], min(n, len(ids)))[0]]


def _search(prompt_tokens, resolution, config, limits, width, stop_ids, max_positions, want_attention=False):
    """The one decode loop, a best-first search that does no I/O: greedy and
    anchored decoding run it at width 1, the beam at beam_width. Each
    expansion yields its requests, (context, mask_positions, want_attention)
    for the original pass and with a config the masked pass, and is sent
    their ScoreResults. A prompt longer than max_positions raises
    CapacityError before the first yield; a path ends on a stop token, at
    max_new_tokens or at max_positions. Each expanded prefix is scored once;
    its children are the candidate rule's ``width`` best ids, each scored by
    the log of its ORIGINAL softmax probability, so amplified-but-noisy
    low-rank logits widen the search without corrupting the ranking.

    Log-probabilities only decrease along a path, so a prefix's score bounds
    all of its completions and the first ``width`` paths to end are exactly
    the ``width`` best of the candidate-filtered search tree (the same set an
    exhaustive enumeration under the per-step candidate rule would rank on
    top), best first as popped (a child's key is never below its parent's),
    ties to the lexicographically smallest token sequence. Cost grows with
    width and sequence length; widths here are small (Pass@k scale).
    Returns those paths as (score, tokens, finished, steps), each step a
    (token, StepScore, seconds). A TransportError thrown in becomes a
    DecodeError whose partial_trace is the expanded path's at width 1, else None."""
    if len(prompt_tokens) > max_positions:
        raise CapacityError(f"prompt length {len(prompt_tokens)} exceeds max_positions {max_positions}")
    heap = [(0.0, (), False, ())]  # (-score, tokens, finished, steps)
    paths = []
    while heap and len(paths) < width:
        neg_score, tokens, finished, steps = heapq.heappop(heap)
        score = -neg_score
        context = prompt_tokens + list(tokens)
        if finished or len(tokens) >= limits.max_new_tokens or len(context) >= max_positions:
            paths.append((score, tokens, finished, steps))
            continue
        t0 = time.perf_counter()
        requests = [(context, (), want_attention)] + ([] if config is None else [(context, resolution.token_positions, False)])
        try:
            orig, *rest = yield requests
        except TransportError as exc:
            raise DecodeError(str(exc), _trace(prompt_tokens, steps, "transport_error") if width == 1 else None) from exc
        masked = aug = top_ids = None
        if config is not None:
            masked = rest[0].logits
            top_ids = None if config.top_k is None else top_k_pairs(orig.logits, config.top_k)[0]
            combine, strength = (combine_confidence, config.lam) if config.mode == "confidence" else (combine_fixed, config.omega)
            aug = combine(orig.logits, masked, strength)
        children = _candidates(orig.logits, aug, top_ids, width).tolist()
        stored = (orig.logits, masked, aug)
        if top_ids is not None:
            stored = [list(zip(top_ids.tolist(), v[top_ids].tolist())) for v in stored]
        step = StepScore(*stored, attention_row=orig.attention)
        seconds = time.perf_counter() - t0
        logp = np.log(softmax(orig.logits))
        for tid in children:
            path = steps + ((tid, step, seconds),)
            heapq.heappush(heap, (-(score + float(logp[tid])), tokens + (tid,), tid in stop_ids, path))
    return paths


def _drive(backend, search):
    """The one driver, and the one place a backend is scored: answers each request
    list a search yields with backend.score, in order, and throws a TransportError
    into the search. Returns the search's paths and the number of passes answered."""
    passes, results = 0, None
    try:
        while True:
            requests = search.send(results)
            try:
                results = [backend.score(c, m, want_attention=w) for c, m, w in requests]
            except TransportError as exc:
                search.throw(exc)  # the search raises the DecodeError
            passes += len(results)
    except StopIteration as stop:
        return stop.value, passes


def _trace(prompt_tokens, steps, reason) -> GenerationTrace:
    return GenerationTrace(list(prompt_tokens), [s[:2] for s in steps], reason, [s[2] for s in steps])


def _decode(backend, prompt_tokens, resolution, config, limits, want_attention=False):
    """greedy_decode (config None) and anchored_decode: the search's one path at width 1, as a trace, and its passes."""
    stop_ids, max_positions = backend.vocab.stop_ids, backend.max_positions
    search = _search(list(prompt_tokens), resolution, config, limits, 1, stop_ids, max_positions, want_attention)
    [(_, _, finished, steps)], passes = _drive(backend, search)
    return _trace(prompt_tokens, steps, "stop_token" if finished else "length_limit"), passes


def greedy_decode(backend, prompt_tokens, limits: DecodeLimits, want_attention: bool = False) -> GenerationTrace:
    """Baseline decode: argmax of the original logits each step (ties break
    to the lowest token id); no masked pass."""
    return _decode(backend, prompt_tokens, None, None, limits, want_attention)[0]


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
    resolution; generated tokens are never masked. Where anchoring does not
    apply (mode off, or no anchored tokens) it is greedy_decode: one score()
    call per step, no masked pass."""
    prompt_tokens, resolution, config = _prepare(backend, prompt, config, 1)
    return _decode(backend, prompt_tokens, resolution, config, limits, want_attention)[0]


def beam_search_anchored(
    backend,
    prompt: PromptSpec,
    config: AnchoringConfig,
    beam_width: int,
    limits: DecodeLimits,
) -> list[BeamCandidate]:
    """Hybrid beam search: the search at beam_width. Candidate tokens come
    from the AUGMENTED logits (top beam_width per expanded prefix, under the
    same top_k rule as anchored_decode) while every extension is scored by
    the log of its ORIGINAL softmax probability. With mode off or no
    anchored tokens it is a plain beam search over the original logits.
    A TransportError aborts with a DecodeError (no partial trace).
    """
    prompt_tokens, resolution, config = _prepare(backend, prompt, config, beam_width)
    search = _search(prompt_tokens, resolution, config, limits, beam_width, backend.vocab.stop_ids, backend.max_positions)
    paths, _ = _drive(backend, search)
    return [BeamCandidate(tokens, score, finished) for score, tokens, finished, _ in paths]


@dataclass(frozen=True)
class OverheadReport:
    baseline_tokens_per_sec: float
    anchored_tokens_per_sec: float
    baseline_tokens: int
    anchored_tokens: int
    baseline_calls: int
    anchored_calls: int


def measure_overhead(backend, prompt: PromptSpec, config: AnchoringConfig, limits: DecodeLimits) -> OverheadReport:
    """Run the baseline decode, then the anchored decode, of one prompt and report the
    passes their driver answered and throughput over step time: the traces' wall_times,
    which leave out prompt resolution and trace assembly. Where the config applies, the
    anchored loop issues exactly two score() calls per emitted token against the baseline's one."""
    prompt_tokens, resolution, config = _prepare(backend, prompt, config, 1)
    base, base_calls = _decode(backend, prompt_tokens, None, None, limits)
    anch, anch_calls = _decode(backend, prompt_tokens, resolution, config, limits)
    base_secs, anch_secs = sum(base.wall_times), sum(anch.wall_times)
    return OverheadReport(
        baseline_tokens_per_sec=len(base.steps) / base_secs if base_secs > 0 else float("inf"),
        anchored_tokens_per_sec=len(anch.steps) / anch_secs if anch_secs > 0 else float("inf"),
        baseline_tokens=len(base.steps),
        anchored_tokens=len(anch.steps),
        baseline_calls=base_calls,
        anchored_calls=anch_calls,
    )


# -- trace export ------------------------------------------------------------


def _vec_json(vec: np.ndarray | Pairs | None):
    if vec is None:
        return None
    if isinstance(vec, np.ndarray):
        return [_fmt(v) for v in vec]
    return [[i, _fmt(v)] for i, v in vec]


def export_trace(trace: GenerationTrace, fp) -> None:
    """One JSON line per step; vectors are 17-significant-digit decimal strings
    ((id, decimal) pairs when truncated). alpha, when attention was captured,
    is the step's attention_ratio over the prompt tokens, as in dilution_curve."""
    for i, (token, score) in enumerate(trace.steps):
        alpha = None
        if score.attention_row is not None:
            alpha = _fmt(attention_ratio(score.attention_row, len(trace.prompt_tokens)))
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
