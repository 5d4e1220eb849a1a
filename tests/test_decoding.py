import io
import json
from types import SimpleNamespace

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
from anchored_decoding import decoding
from anchored_decoding.anchoring import softmax
from anchored_decoding.errors import CapacityError, DecodeError, TransportError
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
    # a prompt past max_positions is refused by every decoder before any score() call
    counting = CountingBackend(backend)
    over = parse_markup("abc⟦de⟧fg")  # 7 tokens
    with pytest.raises(CapacityError, match="prompt length 7 exceeds max_positions 6"):
        greedy_decode(counting, resolve_anchors(over, backend.vocab)[0], DecodeLimits(20))
    with pytest.raises(CapacityError):
        anchored_decode(counting, over, fixed(1.25), DecodeLimits(20))
    with pytest.raises(CapacityError):
        beam_search_anchored(counting, over, fixed(1.25), 2, DecodeLimits(20))
    assert counting.calls == 0
    # one of exactly max_positions tokens leaves no room to decode
    trace = anchored_decode(counting, parse_markup("abc⟦de⟧f"), fixed(1.25), DecodeLimits(20))
    assert trace.steps == [] and trace.finished_reason == "length_limit"
    assert counting.calls == 0


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


def _ids_and_values(vec):
    """A stored vector as (ids, values); a full array is stored at every id."""
    if isinstance(vec, np.ndarray):
        return list(range(len(vec))), vec
    ids, values = zip(*vec)
    return list(ids), np.array(values)


def test_trace_vectors_share_ids_and_recombine(backend, rng):
    # each step stores original, masked and augmented at the ids the
    # candidate rule ranked, so augmented is recomputed from the other two
    # bit for bit, at any vocabulary size
    cases = [
        (backend, parse_markup(random_marked_prompt(rng, backend.vocab)), config)
        for config in (None, fixed(1.4), fixed(1.4, top_k=4), AnchoringConfig(mode="confidence", lam=0.7))
        for _ in range(3)
    ]
    cases.append((WideBackend(), ([2, 3, 4, 5], AnchorResolution(frozenset({1, 2}), 4)), fixed(1.25)))
    for b, prompt, config in cases:
        if config is None:
            trace = greedy_decode(b, resolve_anchors(prompt, b.vocab)[0], LIMITS)
        else:
            trace = anchored_decode(b, prompt, config, LIMITS)
        assert trace.steps
        for _, score in trace.steps:
            ids, orig = _ids_and_values(score.original)
            if config is None:
                assert ids == list(range(b.vocab.size))
                assert score.masked is None and score.augmented is None
                continue
            assert len(ids) == (config.top_k or b.vocab.size)
            masked_ids, masked = _ids_and_values(score.masked)
            aug_ids, aug = _ids_and_values(score.augmented)
            assert masked_ids == aug_ids == ids
            if config.mode == "confidence":
                assert np.array_equal(aug, combine_confidence(orig, masked, config.lam))
            else:
                assert np.array_equal(aug, combine_fixed(orig, masked, config.omega))


def test_anchored_decode_is_greedy_where_anchoring_does_not_apply(backend):
    # mode off, or a prompt without an anchored span: the original logits
    # alone, one score() call per step and no masked pass (top_k included)
    limits = DecodeLimits(12)
    for markup, config in (
        ("ab⟦cd⟧", AnchoringConfig(mode="off")),
        ("ab⟦cd⟧", AnchoringConfig(mode="off", top_k=3)),
        ("abcd", fixed(1.25)),
        ("abcd", fixed(1.25, top_k=3)),
        ("abcd", AnchoringConfig(mode="confidence", lam=2.0)),
    ):
        tokens, resolution = resolve_anchors(parse_markup(markup), backend.vocab)
        assert not config.applies_to(resolution)
        greedy = greedy_decode(backend, tokens, limits, want_attention=True)
        counting = CountingBackend(backend)
        trace = anchored_decode(counting, parse_markup(markup), config, limits, want_attention=True)
        assert counting.masked_calls == 0 and counting.calls == len(trace.steps), (markup, config)
        assert trace.generated_tokens == greedy.generated_tokens
        assert trace.finished_reason == greedy.finished_reason
        for (_, got), (_, want) in zip(trace.steps, greedy.steps):
            assert got.masked is None and got.augmented is None
            assert np.array_equal(got.original, want.original)
            assert np.array_equal(got.attention_row, want.attention_row)
    assert fixed(1.25).applies_to(resolve_anchors(parse_markup("ab⟦cd⟧"), backend.vocab)[1])


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


def test_search_inputs_outside_vocab_rejected_before_any_call(backend):
    # a top_k above the vocabulary, in any mode, and a beam width outside
    # 1..V cost no score() call (over remote:, no round trip)
    size = backend.vocab.size
    prompt = parse_markup("ab⟦cd⟧")
    counting = CountingBackend(backend)
    for config in (fixed(1.25, top_k=size + 1), AnchoringConfig(mode="off", top_k=size + 1)):
        with pytest.raises(ValueError, match=f"top_k must be in 1..{size}"):
            anchored_decode(counting, prompt, config, LIMITS)
        with pytest.raises(ValueError, match=f"top_k must be in 1..{size}"):
            beam_search_anchored(counting, prompt, config, 2, LIMITS)
    for width in (0, size + 1, 2.5, True):  # a width is an int, and a bool is not one
        with pytest.raises(ValueError, match=f"beam width must be in 1..{size}"):
            beam_search_anchored(counting, prompt, fixed(1.25), width, LIMITS)
    for count in (0, 2.5, True):  # as is a token count
        with pytest.raises(ValueError, match="max_new_tokens"):
            DecodeLimits(count)
    assert counting.calls == 0


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
    # greedy and anchored decoding are the search at width 1: the beam of
    # width 1 has their tokens, is finished exactly where they stop on a stop
    # token, and scores the original log-prob sum bit for bit
    configs = (
        AnchoringConfig(mode="off"),
        fixed(1.25),
        fixed(1.25, top_k=2),
        AnchoringConfig(mode="confidence", lam=1.0),
    )
    cases = [(backend, "ab⟦cd⟧")] + [(make_backend(seed=seed), "ab⟦cd⟧") for seed in range(6)]
    short = make_backend(seed=0, max_positions=7)  # 4 prompt tokens: the capacity ends each decode at 3
    cases = [(b, parse_markup(text)) for b, text in cases + [(short, "ab⟦cd⟧")]]
    # a prompt that ends on the stop token: text never tokenizes to one, so it comes pre-resolved
    tokens, res = resolve_anchors(parse_markup("ab⟦cd⟧"), backend.vocab)
    on_stop = (tokens + [min(backend.vocab.stop_ids)], AnchorResolution(res.token_positions, len(tokens) + 1))
    cases.append((backend, on_stop))
    reasons = set()
    for b, prompt in cases:
        for config in configs:
            beams = beam_search_anchored(b, prompt, config, 1, LIMITS)
            trace = anchored_decode(b, prompt, config, LIMITS)
            assert len(beams) == 1
            assert list(beams[0].tokens) == trace.generated_tokens
            assert beams[0].finished == (trace.finished_reason == "stop_token")
            reasons.add(trace.finished_reason)
            if b is short:
                assert len(trace.prompt_tokens) + len(trace.steps) == short.max_positions
            if prompt is on_stop:
                assert trace.steps  # a stop token in the prompt does not end the decode
            # score recomputation from original log-probs
            ctx = list(on_stop[0]) if prompt is on_stop else resolve_anchors(prompt, b.vocab)[0]
            total = 0.0
            for t in beams[0].tokens:
                total += float(np.log(softmax(b.score(ctx).logits))[t])
                ctx.append(t)
            assert beams[0].score == total
    assert reasons == {"stop_token", "length_limit"}


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
    # the driver's pass counts are what a CountingBackend around the same backend counts
    tokens, _ = resolve_anchors(parse_markup("ab⟦cd⟧"), backend.vocab)
    for config in (fixed(1.25), fixed(1.25, top_k=4), AnchoringConfig(mode="off")):
        counting = CountingBackend(backend)
        report = measure_overhead(counting, parse_markup("ab⟦cd⟧"), config, LIMITS)
        assert report.baseline_calls + report.anchored_calls == counting.calls
        counting = CountingBackend(backend)
        greedy_decode(counting, tokens, LIMITS)
        assert report.baseline_calls == counting.calls


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


# -- the search without a backend --------------------------------------------

VOCAB = VocabSpec.toy(16)


def scripted(context, mask_positions) -> ScoreResult:
    """Logits that depend only on the context and whether it is masked, the
    stop ids far below the rest so every path runs to max_new_tokens."""
    logits = np.random.default_rng([*context, len(mask_positions)]).normal(size=VOCAB.size)
    logits[sorted(VOCAB.stop_ids)] = -10.0
    return ScoreResult(logits=logits)


def answer(requests):
    return [scripted(context, masks) for context, masks, _ in requests]


def by_hand(search, log):
    """Drive a search with scripted results, appending each request list to log; returns its paths."""
    results = None
    try:
        while True:
            requests = search.send(results)
            log.append(requests)
            results = answer(requests)
    except StopIteration as stop:
        return stop.value


def new_search(markup, config, width, max_positions=64, want_attention=False):
    # _prepare reads the vocabulary alone, so its stand-in backend has no score()
    tokens, resolution, config = decoding._prepare(SimpleNamespace(vocab=VOCAB), parse_markup(markup), config, width)
    limits = DecodeLimits(4)
    search = decoding._search(tokens, resolution, config, limits, width, VOCAB.stop_ids, max_positions, want_attention)
    return tokens, search


def test_search_yields_each_steps_requests():
    tokens, resolution = resolve_anchors(parse_markup("abc⟦de⟧"), VOCAB)
    greedy = decoding._search(tokens, None, None, DecodeLimits(4), 1, VOCAB.stop_ids, 64, True)
    cases = [
        (greedy, True, False),
        (new_search("abc⟦de⟧", AnchoringConfig(mode="off"), 1)[1], False, False),
        (new_search("abc⟦de⟧", fixed(1.25), 1, want_attention=True)[1], True, True),
        (new_search("abc⟦de⟧", fixed(1.25, top_k=4), 1)[1], False, True),
    ]
    for search, want_attention, anchored in cases:
        log = []
        [(_, generated, finished, steps)] = by_hand(search, log)
        assert len(log) == len(steps) == 4 and not finished
        for i, (requests, (token, step, _)) in enumerate(zip(log, steps)):
            context = tokens + list(generated[:i])
            # the original pass, then with a config the masked pass, which never asks for attention
            want = [(context, (), want_attention)] + ([(context, resolution.token_positions, False)] if anchored else [])
            assert requests == want
            if not anchored:
                assert step.masked is None and step.augmented is None
                continue
            orig, masked = (r.logits for r in answer(requests))
            augmented = combine_fixed(orig, masked, 1.25)
            if isinstance(step.original, list):  # top_k: the three vectors at the original top 4 ids
                ids = [i for i, _ in step.original]
                assert len(ids) == 4 and step.augmented == [(i, augmented[i]) for i in ids]
            else:
                assert np.array_equal(step.augmented, augmented) and token == int(np.argmax(augmented))


def test_search_refuses_an_over_long_prompt_before_its_first_yield():
    for config, width in ((AnchoringConfig(mode="off"), 1), (fixed(1.25), 1), (fixed(1.25), 2)):
        _, search = new_search("abc⟦de⟧fg", config, width, max_positions=6)
        with pytest.raises(CapacityError, match="prompt length 7 exceeds max_positions 6"):
            next(search)


def test_transport_error_thrown_into_the_search():
    for width in (1, 2):
        tokens, search = new_search("abc⟦de⟧", fixed(1.25), width)
        full = by_hand(search, [])
        _, search = new_search("abc⟦de⟧", fixed(1.25), width)
        requests = next(search)
        for _ in range(2):
            requests = search.send(answer(requests))
        with pytest.raises(DecodeError, match="connection reset") as info:
            search.throw(TransportError("connection reset"))
        assert isinstance(info.value.__cause__, TransportError)
        if width == 1:
            # the two completed steps, not the one being expanded
            partial = info.value.partial_trace
            assert partial.finished_reason == "transport_error" and partial.prompt_tokens == tokens
            assert partial.generated_tokens == list(full[0][1][:2]) and len(partial.wall_times) == 2
        else:
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
    # a greedy trace has no masked pass: its masked and augmented vectors are null
    buf = io.StringIO()
    export_trace(greedy_decode(backend, [2, 3, 4], LIMITS), buf)
    assert buf.getvalue()
    for line in buf.getvalue().splitlines():
        obj = json.loads(line)
        assert obj["masked"] is None and obj["aug"] is None and obj["alpha"] is None and len(obj["orig"]) == 16


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


def test_wide_vocab_trace_stores_vectors_at_candidate_ids():
    # no vocabulary size changes what a step stores: without top_k the full
    # arrays, with top_k all three vectors at the original top-k ids
    backend = WideBackend()
    anchors = frozenset({1, 2})
    for top_k in (None, 100):
        ctx = [2, 3, 4, 5]
        trace = anchored_decode(backend, (ctx, AnchorResolution(anchors, 4)), fixed(1.25, top_k=top_k), LIMITS)
        assert trace.steps
        for token, score in trace.steps:
            orig = backend.score(ctx).logits
            masked = backend.score(ctx, mask_positions=anchors).logits
            full = (orig, masked, combine_fixed(orig, masked, 1.25))
            stored = (score.original, score.masked, score.augmented)
            if top_k is None:
                for vec, array in zip(full, stored):
                    assert np.array_equal(array, vec)
                assert token == int(np.argmax(full[2]))
            else:
                best = sorted(range(len(orig)), key=lambda i: (-orig[i], i))[:top_k]
                for vec, pairs in zip(full, stored):
                    assert pairs == [(i, vec[i]) for i in best]
                assert token == min(best, key=lambda i: (-full[2][i], i))
            ctx.append(token)
        buf = io.StringIO()
        export_trace(trace, buf)
        for line, (_, score) in zip(buf.getvalue().splitlines(), trace.steps):
            obj = json.loads(line)
            for key, vec in (("orig", score.original), ("masked", score.masked), ("aug", score.augmented)):
                if top_k is None:
                    assert np.array_equal([float(v) for v in obj[key]], vec)
                else:
                    assert [(i, float(v)) for i, v in obj[key]] == vec


def test_prompt_length_must_match_tokens(backend):
    # a pre-resolved pair whose prompt_length is not len(tokens) is rejected
    # before any score() call
    prompt = ([2, 3, 4, 5], AnchorResolution(frozenset({1}), 2))
    counting = CountingBackend(backend)
    with pytest.raises(ValueError, match="prompt_length"):
        anchored_decode(counting, prompt, fixed(1.25), LIMITS, want_attention=True)
    with pytest.raises(ValueError, match="prompt_length"):
        beam_search_anchored(counting, prompt, fixed(1.25), 2, LIMITS)
    assert counting.calls == 0
