import io
import json

import numpy as np
import pytest

from anchored_decoding import (
    AnchoringConfig,
    AnchorResolution,
    CountingBackend,
    DecodeLimits,
    ScoreResult,
    VocabSpec,
    anchored_decode,
    beam_search_anchored,
    build_masked_context,
    combine_confidence,
    combine_fixed,
    export_trace,
    greedy_decode,
    measure_overhead,
    parse_markup,
    resolve_anchors,
)
from anchored_decoding.anchoring import softmax
from anchored_decoding.decoding import DEFAULT_STORAGE_TOP_K, FULL_STORAGE_VOCAB_LIMIT
from anchored_decoding.errors import DecodeError, TransportError
from anchored_decoding.toy_model import top_k_pairs

from conftest import make_backend, random_marked_prompt

LIMITS = DecodeLimits(8)


def fixed(omega, **kw):
    return AnchoringConfig(mode="fixed", omega=omega, **kw)


# -- greedy ------------------------------------------------------------------


def test_greedy_deterministic(backend):
    a = greedy_decode(backend, [3, 5, 2], LIMITS)
    b = greedy_decode(backend, [3, 5, 2], LIMITS)
    assert a.generated_tokens == b.generated_tokens


def test_greedy_replay_oracle(backend):
    trace = greedy_decode(backend, [3, 5, 2], LIMITS)
    ctx = [3, 5, 2]
    for token, score in trace.steps:
        logits = backend.score(ctx).logits
        assert token == int(np.argmax(logits))
        assert np.array_equal(score.original, logits)
        ctx.append(token)
    assert len(trace.steps) <= LIMITS.max_new_tokens


def test_greedy_stop_token_reason(backend):
    trace = greedy_decode(backend, [3, 5, 2], DecodeLimits(32))
    if trace.finished_reason == "stop_token":
        assert trace.generated_tokens[-1] in backend.vocab.stop_ids
    else:
        assert len(trace.steps) == 32 or trace.finished_reason == "length_limit"


def test_greedy_respects_capacity():
    backend = make_backend(max_positions=6)
    trace = greedy_decode(backend, [3, 5, 2], DecodeLimits(20))
    assert len(trace.prompt_tokens) + len(trace.steps) <= 6
    if trace.finished_reason == "length_limit":
        assert len(trace.steps) <= 3


# -- anchored ----------------------------------------------------------------


def test_omega_one_equals_greedy(backend):
    prompt = parse_markup("ab⟦cd⟧")
    tokens, _ = resolve_anchors(prompt, backend.vocab)
    assert (
        anchored_decode(backend, prompt, fixed(1.0), LIMITS).generated_tokens
        == greedy_decode(backend, tokens, LIMITS).generated_tokens
    )


def test_omega_zero_equals_greedy_on_masked_prompt(backend):
    prompt = parse_markup("ab⟦cd⟧")
    tokens, res = resolve_anchors(prompt, backend.vocab)
    masked_prompt = build_masked_context(tokens, res, backend.vocab.mask_id)
    assert (
        anchored_decode(backend, prompt, fixed(0.0), LIMITS).generated_tokens
        == greedy_decode(backend, masked_prompt, LIMITS).generated_tokens
    )


def test_anchored_replay_oracle(backend):
    prompt = parse_markup("ab⟦cd⟧")
    tokens, res = resolve_anchors(prompt, backend.vocab)
    trace = anchored_decode(backend, prompt, fixed(1.25), LIMITS)
    ctx = list(tokens)
    for token, _ in trace.steps:
        orig = backend.score(ctx).logits
        masked = backend.score(build_masked_context(ctx, res, backend.vocab.mask_id)).logits
        aug = 1.25 * orig + (1 - 1.25) * masked
        assert token == int(np.argmax(aug))
        ctx.append(token)


def test_trace_self_consistency(backend):
    prompt = parse_markup("ab⟦cd⟧")
    for config in (fixed(1.4), AnchoringConfig(mode="confidence", lam=0.7)):
        trace = anchored_decode(backend, prompt, config, LIMITS)
        for _, score in trace.steps:
            if config.mode == "confidence":
                want = combine_confidence(score.original, score.masked, config.lam)
            else:
                want = combine_fixed(score.original, score.masked, config.omega)
            assert np.allclose(score.augmented, want, atol=1e-12)


def test_anchored_requires_anchors(backend):
    with pytest.raises(ValueError):
        anchored_decode(backend, parse_markup("abcd"), fixed(1.25), LIMITS)
    with pytest.raises(ValueError):
        anchored_decode(backend, parse_markup("ab⟦cd⟧"), AnchoringConfig(mode="off"), LIMITS)


def test_argmax_shift_invariance(rng):
    # combination is affine: a constant shift on both inputs shifts the output
    for _ in range(20):
        a = rng.normal(size=16)
        b = rng.normal(size=16)
        c = float(rng.normal())
        base = combine_fixed(a, b, 1.3)
        shifted = combine_fixed(a + c, b + c, 1.3)
        assert np.allclose(shifted, base + c, atol=1e-9)
        assert np.argmax(shifted) == np.argmax(base)


# -- truncation --------------------------------------------------------------


def test_truncated_decode_matches_full_when_k_is_vocab(backend):
    prompt = parse_markup("ab⟦cd⟧")
    full = anchored_decode(backend, prompt, fixed(1.25), LIMITS)
    trunc = anchored_decode(backend, prompt, fixed(1.25, top_k=backend.vocab.size), LIMITS)
    assert trunc.generated_tokens == full.generated_tokens
    for (_, fs), (_, ts) in zip(full.steps, trunc.steps):
        ids = [i for i, _ in ts.augmented]
        vals = [v for _, v in ts.augmented]
        assert vals == [fs.augmented[i] for i in ids]


def test_truncated_combined_values_equal_full(backend, rng):
    prompt = parse_markup("ab⟦cd⟧")
    tokens, res = resolve_anchors(prompt, backend.vocab)
    trace = anchored_decode(backend, prompt, fixed(1.25, top_k=5), LIMITS)
    ctx = list(tokens)
    for token, score in trace.steps:
        orig = backend.score(ctx).logits
        masked = backend.score(build_masked_context(ctx, res, backend.vocab.mask_id)).logits
        full_aug = combine_fixed(orig, masked, 1.25)
        for i, v in score.augmented:
            assert v == full_aug[i]
        # whenever the full argmax is inside the original top-k, they agree
        full_arg = int(np.argmax(full_aug))
        if full_arg in [i for i, _ in score.original]:
            assert token == full_arg
        ctx.append(token)


def test_truncated_confidence_rejected(backend):
    with pytest.raises(ValueError):
        anchored_decode(backend, parse_markup("ab⟦cd⟧"), AnchoringConfig(mode="confidence", top_k=4), LIMITS)
    with pytest.raises(ValueError):
        beam_search_anchored(backend, parse_markup("ab⟦cd⟧"), AnchoringConfig(mode="confidence", top_k=4), 2, LIMITS)


# -- beam search -------------------------------------------------------------


def exhaustive_hybrid(backend, prompt, config, k, limits):
    """Enumerate every suffix allowed by the per-step top-k-of-augmented
    candidate rule (with config.top_k, among the original top-k ids only);
    rank by accumulated original log-prob, ties lexicographic."""
    prompt_tokens, res = resolve_anchors(prompt, backend.vocab)
    stop_ids = backend.vocab.stop_ids
    done = []

    def rec(tokens, score):
        if tokens and (tokens[-1] in stop_ids or len(tokens) >= limits.max_new_tokens):
            done.append((tokens, score))
            return
        ctx = prompt_tokens + list(tokens)
        if len(ctx) >= backend.max_positions:
            done.append((tokens, score))
            return
        orig = backend.score(ctx).logits
        masked = backend.score(build_masked_context(ctx, res, backend.vocab.mask_id)).logits
        if config.mode == "confidence":
            aug = combine_confidence(orig, masked, config.lam)
        else:
            aug = combine_fixed(orig, masked, config.omega)
        if config.top_k is None:
            ids = top_k_pairs(aug, k)[0].tolist()
        else:
            eligible = top_k_pairs(orig, config.top_k)[0].tolist()
            ids = sorted(eligible, key=lambda t: (-aug[t], t))[:k]
        logp = np.log(softmax(orig))
        for t in ids:
            rec(tokens + (t,), score + float(logp[t]))

    rec((), 0.0)
    done.sort(key=lambda item: (-item[1], item[0]))
    return done[:k]


def test_beam_width_one_equals_anchored_greedy(backend):
    prompt = parse_markup("ab⟦cd⟧")
    config = fixed(1.25)
    beams = beam_search_anchored(backend, prompt, config, 1, LIMITS)
    trace = anchored_decode(backend, prompt, config, LIMITS)
    assert len(beams) == 1
    assert list(beams[0].tokens) == trace.generated_tokens
    # score recomputation from original log-probs
    ctx, _ = resolve_anchors(prompt, backend.vocab)
    total = 0.0
    for t in beams[0].tokens:
        total += float(np.log(softmax(backend.score(ctx).logits))[t])
        ctx.append(t)
    assert abs(beams[0].score - total) < 1e-9


def test_beam_omega_one_uses_original_candidates(backend):
    # at omega=1 augmented == original, so the hybrid equals a pure
    # original-logit search: verify against the enumeration oracle at omega=1
    prompt = parse_markup("ab⟦cd⟧")
    beams = beam_search_anchored(backend, prompt, fixed(1.0), 3, DecodeLimits(4))
    oracle = exhaustive_hybrid(backend, prompt, fixed(1.0), 3, DecodeLimits(4))
    assert [(b.tokens, round(b.score, 9)) for b in beams] == [
        (t, round(s, 9)) for t, s in oracle
    ]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_beam_matches_exhaustive_enumeration(k):
    rng = np.random.default_rng(42)
    for seed in range(6):
        backend = make_backend(seed=seed, vocab_size=12, embed_dim=16, max_positions=32)
        prompt = parse_markup(random_marked_prompt(rng, backend.vocab))
        limits = DecodeLimits(5)
        # top_k below the width leaves fewer candidates per prefix than k
        for config in (fixed(1.25), fixed(1.25, top_k=1), fixed(1.25, top_k=2)):
            beams = beam_search_anchored(backend, prompt, config, k, limits)
            oracle = exhaustive_hybrid(backend, prompt, config, k, limits)
            assert [b.tokens for b in beams] == [t for t, _ in oracle]
            for b, (_, s) in zip(beams, oracle):
                assert abs(b.score - s) < 1e-9


def test_beam_finished_flag(backend):
    beams = beam_search_anchored(backend, parse_markup("ab⟦cd⟧"), fixed(1.25), 3, DecodeLimits(16))
    for b in beams:
        if b.finished:
            assert b.tokens[-1] in backend.vocab.stop_ids


# -- overhead ----------------------------------------------------------------


def test_call_counts(backend):
    # the gating audits count masked passes by mask_positions, so every
    # anchored step and beam expansion must issue its masked pass that way
    prompt = parse_markup("ab⟦cd⟧")
    tokens, _ = resolve_anchors(prompt, backend.vocab)

    counting = CountingBackend(backend)
    base = greedy_decode(counting, tokens, LIMITS)
    assert counting.calls == len(base.steps)
    assert counting.masked_calls == 0

    for config in (fixed(1.25), fixed(1.25, top_k=4), AnchoringConfig(mode="confidence", lam=1.0)):
        counting = CountingBackend(backend)
        anch = anchored_decode(counting, prompt, config, LIMITS)
        assert counting.calls == 2 * len(anch.steps)
        assert counting.masked_calls == len(anch.steps)

    counting = CountingBackend(backend)
    beam_search_anchored(counting, prompt, fixed(1.25), 2, DecodeLimits(4))
    assert 0 < counting.masked_calls == counting.calls - counting.masked_calls


def test_measure_overhead(backend):
    report = measure_overhead(backend, parse_markup("ab⟦cd⟧"), fixed(1.25), LIMITS)
    assert report.baseline_calls == report.baseline_tokens
    assert report.anchored_calls == 2 * report.anchored_tokens
    assert report.baseline_tokens_per_sec > 0
    assert report.anchored_tokens_per_sec > 0


class FailingBackend:
    """Passes score() through until the given call, which raises TransportError."""

    def __init__(self, inner, fail_on: int):
        self.inner = inner
        self.vocab = inner.vocab
        self.max_positions = inner.max_positions
        self.fail_on = fail_on
        self.calls = 0

    def score(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.fail_on:
            raise TransportError("connection reset")
        return self.inner.score(*args, **kwargs)


def test_transport_failure_keeps_partial_trace(backend):
    prompt = parse_markup("abc⟦de⟧")
    tokens, _ = resolve_anchors(prompt, backend.vocab)
    # the third call fails: after two greedy steps, or after one anchored step
    for decode, completed in (
        (lambda b: greedy_decode(b, tokens, LIMITS), 2),
        (lambda b: anchored_decode(b, prompt, fixed(1.25), LIMITS), 1),
    ):
        full = decode(backend)
        assert len(full.steps) > completed
        with pytest.raises(DecodeError) as info:
            decode(FailingBackend(backend, fail_on=3))
        partial = info.value.partial_trace
        assert partial.finished_reason == "transport_error"
        assert partial.generated_tokens == full.generated_tokens[:completed]
    # beam search has no single trace to keep
    with pytest.raises(DecodeError) as info:
        beam_search_anchored(FailingBackend(backend, fail_on=3), prompt, fixed(1.25), 2, LIMITS)
    assert info.value.partial_trace is None


# -- trace export ------------------------------------------------------------


def test_export_trace_ndjson(backend):
    prompt = parse_markup("ab⟦cd⟧")
    trace = anchored_decode(backend, prompt, fixed(1.25), LIMITS, want_attention=True)
    buf = io.StringIO()
    export_trace(trace, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == len(trace.steps)
    for i, line in enumerate(lines):
        obj = json.loads(line)
        assert obj["step"] == i
        assert obj["token"] == trace.steps[i][0]
        # decimal strings round-trip the stored float64 exactly
        orig = np.array([float(s) for s in obj["orig"]])
        assert np.array_equal(orig, trace.steps[i][1].original)
        assert obj["alpha"] is not None and 0.0 <= float(obj["alpha"]) <= 1.0


def test_export_trace_truncated_pairs(backend):
    trace = anchored_decode(backend, parse_markup("ab⟦cd⟧"), fixed(1.25, top_k=4), LIMITS)
    buf = io.StringIO()
    export_trace(trace, buf)
    obj = json.loads(buf.getvalue().split("\n")[0])
    assert len(obj["orig"]) == 4
    ids = [i for i, _ in obj["orig"]]
    assert ids == [i for i, _ in trace.steps[0][1].original]


class WideBackend:
    """Vocab-600 stub, past the full-storage limit: seeded logits per context
    length and pass, so the original and masked vectors differ."""

    vocab = VocabSpec(size=600, mask_id=0, stop_ids=frozenset({1}))
    max_positions = 64

    def score(self, context, mask_positions=frozenset(), want_attention=False):
        rng = np.random.default_rng([len(context), int(bool(mask_positions))])
        return ScoreResult(logits=rng.normal(size=self.vocab.size))


def test_trace_storage_capped_past_vocab_limit():
    backend = WideBackend()
    assert backend.vocab.size > FULL_STORAGE_VOCAB_LIMIT
    anchors = frozenset({1, 2})
    ctx = [2, 3, 4, 5]
    trace = anchored_decode(backend, (ctx, AnchorResolution(anchors, 4)), fixed(1.25), LIMITS)
    assert trace.steps
    for token, score in trace.steps:
        orig = backend.score(ctx).logits
        masked = backend.score(ctx, mask_positions=anchors).logits
        full = (orig, masked, combine_fixed(orig, masked, 1.25))
        stored = (score.original, score.masked, score.augmented)
        for vec, pairs in zip(full, stored):
            # each vector keeps its own top-k, ties to the lower id
            best = sorted(range(len(vec)), key=lambda i: (-vec[i], i))[:DEFAULT_STORAGE_TOP_K]
            assert pairs == [(i, vec[i]) for i in best]
        assert token == int(np.argmax(full[2]))
        ctx.append(token)
    buf = io.StringIO()
    export_trace(trace, buf)
    for line, (_, score) in zip(buf.getvalue().splitlines(), trace.steps):
        obj = json.loads(line)
        for key, pairs in (("orig", score.original), ("masked", score.masked), ("aug", score.augmented)):
            assert [(i, float(v)) for i, v in obj[key]] == pairs
