"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them inline)."""

import json
import socket
from contextlib import contextmanager

import numpy as np

from anchored_decoding import (
    AnchoringConfig,
    CountingBackend,
    DecodeLimits,
    LogitServer,
    TuneSpec,
    anchored_decode,
    beam_search_anchored,
    build_masked_context,
    combine_confidence,
    combine_fixed,
    greedy_decode,
    grid_search,
    kfold_split,
    measure_overhead,
    parse_markup,
    resolve_anchors,
)
from anchored_decoding.anchoring import softmax
from anchored_decoding.harness import Task, evaluate, run_toy_program
from anchored_decoding.attention_analysis import attention_ratio, gradient_attention
from anchored_decoding.tuning import DEFAULT_GRID
from anchored_decoding.wire import handle_request

from conftest import make_backend, random_marked_prompt
from test_attention import LinearDouble
from test_decoding import exhaustive_hybrid


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


WIDE_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789+-*/=()<>,.:; ABCDEFGHIJKL"


def random_backend(rng, vocab_size=None, max_positions=64):
    from anchored_decoding import ToyBackend, ToyModelConfig, VocabSpec

    return ToyBackend(
        ToyModelConfig(
            seed=int(rng.integers(0, 2**31)),
            vocab=VocabSpec.toy(vocab_size or int(rng.integers(8, 65)), WIDE_ALPHABET),
            embed_dim=16,
            n_layers=int(rng.integers(1, 3)),
            n_heads=2,
            max_positions=max_positions,
        )
    )


def test_criterion_1_omega_endpoint_equivalences():
    rng = np.random.default_rng(101)
    with criterion(1, "exact omega-endpoint equivalences over 100 random configs"):
        for _ in range(100):
            backend = random_backend(rng)
            total = int(rng.integers(4, 33))
            anchored_len = int(rng.integers(1, total))
            prompt = parse_markup(
                random_marked_prompt(
                    rng, backend.vocab, plain_len=total - anchored_len, anchored_len=anchored_len
                )
            )
            tokens, res = resolve_anchors(prompt, backend.vocab)
            limits = DecodeLimits(8)

            at_one = anchored_decode(backend, prompt, AnchoringConfig(mode="fixed", omega=1.0), limits)
            assert at_one.generated_tokens == greedy_decode(backend, tokens, limits).generated_tokens

            masked_prompt = build_masked_context(tokens, res, backend.vocab.mask_id)
            at_zero = anchored_decode(backend, prompt, AnchoringConfig(mode="fixed", omega=0.0), limits)
            assert (
                at_zero.generated_tokens
                == greedy_decode(backend, masked_prompt, limits).generated_tokens
            )


def test_criterion_2_combination_arithmetic():
    rng = np.random.default_rng(202)
    with criterion(2, "combination arithmetic vs closed forms (1000 pairs)"):
        for _ in range(1000):
            n = int(rng.integers(2, 64))
            a = rng.normal(scale=3, size=n)
            b = rng.normal(scale=3, size=n)
            for omega in (-0.5, 0.0, 0.5, 1.0, 1.25, 2.0):
                out = combine_fixed(a, b, omega)
                assert np.allclose(out, omega * a + (1 - omega) * b, atol=1e-9)
                assert np.allclose(out, a + (omega - 1) * (a - b), atol=1e-9)
            lam = float(rng.uniform(0, 2))
            p = softmax(a)
            assert np.allclose(combine_confidence(a, b, lam), a + lam * (1 - p) * (a - b), atol=1e-9)
        # uniform-logit degeneracy: confidence == fixed at omega = 1 + lam(1 - 1/V)
        for _ in range(50):
            V = int(rng.integers(2, 64))
            a = np.full(V, float(rng.normal()))
            b = rng.normal(size=V)
            lam = float(rng.uniform(0, 2))
            assert np.allclose(
                combine_confidence(a, b, lam),
                combine_fixed(a, b, 1 + lam * (1 - 1 / V)),
                atol=1e-9,
            )


def test_criterion_3_beam_exhaustive_oracle():
    rng = np.random.default_rng(303)
    with criterion(3, "hybrid beam search equals exhaustive enumeration"):
        for trial in range(5):
            backend = random_backend(rng, vocab_size=int(rng.integers(8, 17)), max_positions=48)
            prompt = parse_markup(random_marked_prompt(rng, backend.vocab))
            config = AnchoringConfig(mode="fixed", omega=1.25)
            limits = DecodeLimits(6)
            for k in (1, 2, 3):
                beams = beam_search_anchored(backend, prompt, config, k, limits)
                oracle = exhaustive_hybrid(backend, prompt, config, k, limits)
                assert [b.tokens for b in beams] == [t for t, _ in oracle]
                for b, (_, s) in zip(beams, oracle):
                    assert abs(b.score - s) < 1e-9


def test_criterion_4_truncation_consistency():
    rng = np.random.default_rng(404)
    with criterion(4, "top-k truncation consistency"):
        # inside the original top-k, truncated combined logits are exact
        backend = make_backend(seed=5)
        prompt = parse_markup("ab⟦cd⟧")
        tokens, res = resolve_anchors(prompt, backend.vocab)
        trace = anchored_decode(
            backend, prompt, AnchoringConfig(mode="fixed", omega=1.25, top_k=5), DecodeLimits(8)
        )
        ctx = list(tokens)
        for token, score in trace.steps:
            orig = backend.score(ctx).logits
            masked = backend.score(build_masked_context(ctx, res, backend.vocab.mask_id)).logits
            full_aug = combine_fixed(orig, masked, 1.25)
            for i, v in score.augmented:
                assert v == full_aug[i]
            ctx.append(token)
        # with k = vocab size the decode trace is bit-identical to untruncated
        for seed in range(5):
            backend = random_backend(rng, vocab_size=16)
            prompt = parse_markup(random_marked_prompt(rng, backend.vocab))
            full = anchored_decode(
                backend, prompt, AnchoringConfig(mode="fixed", omega=1.25), DecodeLimits(8)
            )
            trunc = anchored_decode(
                backend,
                prompt,
                AnchoringConfig(mode="fixed", omega=1.25, top_k=backend.vocab.size),
                DecodeLimits(8),
            )
            assert trunc.generated_tokens == full.generated_tokens
            for (_, fs), (_, ts) in zip(full.steps, trunc.steps):
                for i, v in ts.augmented:
                    assert v == fs.augmented[i]


def test_criterion_5_attention_instruments():
    rng = np.random.default_rng(505)
    with criterion(5, "attention instruments (alpha bounds, gradients)"):
        for _ in range(100):
            backend = random_backend(rng)
            prompt = parse_markup(random_marked_prompt(rng, backend.vocab))
            trace = anchored_decode(
                backend,
                prompt,
                AnchoringConfig(mode="fixed", omega=1.25),
                DecodeLimits(4),
                want_attention=True,
            )
            plen = len(trace.prompt_tokens)
            for step_index, (_, score) in enumerate(trace.steps):
                row = score.attention_row
                assert abs(float(row.sum()) - 1.0) < 1e-6
                alpha = attention_ratio(row, plen)
                assert 0.0 <= alpha <= 1.0
                if step_index == 0:
                    assert alpha == 1.0  # context is all prompt at step 1
        double = LinearDouble(seed=1)
        scores = gradient_attention(double, [0, 1, 2, 3])
        target = int(np.argmax(double.w @ double.emb.sum(axis=0)))
        assert np.allclose(scores, np.linalg.norm(double.w[target]), atol=1e-6)
        toy = make_backend(seed=3)
        a = gradient_attention(toy, [3, 5, 2, 7], delta=1e-3)
        b = gradient_attention(toy, [3, 5, 2, 7], delta=5e-4)
        assert np.all(np.abs(a - b) / np.maximum(np.abs(a), 1e-12) < 1e-4)


def test_criterion_6_tuning_protocol():
    rng = np.random.default_rng(606)
    grid = DEFAULT_GRID
    with criterion(6, "grid-search tuning protocol"):
        hits = 0
        for _ in range(50):
            peak = float(grid[rng.integers(0, len(grid))])

            def tent(omega, task_ids, peak=peak):
                return 1.0 - abs(omega - peak)

            spec = TuneSpec(folds=5, seed=int(rng.integers(0, 100)))
            fast = grid_search(tent, list(range(25)), spec)
            full = grid_search(
                tent, list(range(25)), TuneSpec(folds=5, seed=spec.seed, early_exit=False)
            )
            assert fast.recommended == full.recommended
            hits += fast.recommended == peak
        assert hits == 50
        for _ in range(1000):
            n = int(rng.integers(2, 80))
            folds = int(rng.integers(2, n + 1))
            split = kfold_split(list(range(n)), folds, seed=int(rng.integers(0, 10**6)))
            assert sorted(t for f in split for t in f) == list(range(n))
            sizes = [len(f) for f in split]
            assert max(sizes) - min(sizes) <= 1


def test_criterion_7_harness_end_to_end():
    with criterion(7, "harness end-to-end (pass@k, gating, dominance)"):
        backend = make_backend(seed=7)
        limits = DecodeLimits(8)
        config = AnchoringConfig(mode="fixed", omega=1.25)
        rng = np.random.default_rng(707)
        corpus = []
        want = {}
        for i in range(30):
            prompt = random_marked_prompt(rng, backend.vocab)
            tokens, _ = resolve_anchors(parse_markup(prompt), backend.vocab)
            program = backend.vocab.detokenize(
                greedy_decode(backend, tokens, limits).generated_tokens
            )
            passing = bool(rng.integers(0, 2))
            expected = run_toy_program(program, "ab") if passing else "@@impossible@@"
            tid = f"t{i:02d}"
            corpus.append(Task(id=tid, prompt=prompt, entry_check=(("ab", expected),)))
            want[tid] = passing
        report = evaluate(backend, corpus, config, limits)
        assert report.pass_at_1 == sum(want.values()) / 30
        # pass@10 over beam candidates on a small all-fail subset: stays 0
        beam_report = evaluate(
            backend,
            [t for t in corpus if not want[t.id]][:3],
            config,
            DecodeLimits(4),
            beam_k=3,
        )
        assert beam_report.pass_at_k[3] == 0.0
        # gating audit: baseline-passing tasks trigger no masked pass
        passing_corpus = [t for t in corpus if want[t.id]]
        counting = CountingBackend(backend)
        gated = evaluate(counting, passing_corpus, config, limits)
        assert gated.pass_at_1 == 1.0
        assert counting.masked_calls == 0
        # dominance on every generated corpus
        for trial in range(3):
            sub = list(rng.choice(len(corpus), size=10, replace=False))
            chosen = [corpus[i] for i in sub]
            base = evaluate(backend, chosen, AnchoringConfig(mode="off"), limits)
            gated = evaluate(backend, chosen, config, limits)
            assert gated.pass_at_1 >= base.pass_at_1


def test_criterion_8_overhead_accounting():
    with criterion(8, "overhead accounting (2 calls/token, wall ratio)"):
        backend = make_backend(seed=7, vocab_size=32, max_positions=128)
        # prompt chosen so decoding runs the full 64 tokens or stops late
        prompt = parse_markup("abc⟦defg⟧")
        config = AnchoringConfig(mode="fixed", omega=1.25)
        limits = DecodeLimits(64)
        report = measure_overhead(backend, prompt, config, limits)
        assert report.baseline_calls == report.baseline_tokens
        assert report.anchored_calls == 2 * report.anchored_tokens
        # wall-clock ratio, best of three to damp scheduler noise
        ratios = []
        for _ in range(3):
            r = measure_overhead(backend, prompt, config, limits)
            per_base = 1.0 / r.baseline_tokens_per_sec
            per_anch = 1.0 / r.anchored_tokens_per_sec
            ratios.append(per_anch / per_base)
        assert min(ratios) <= 2.5


def test_criterion_9_wire_protocol():
    rng = np.random.default_rng(909)
    backend = make_backend(seed=7)
    with criterion(9, "wire protocol loopback bit-exactness (500 requests)"):
        server = LogitServer(backend)
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                f = sock.makefile("rwb")
                for _ in range(500):
                    kind = rng.integers(0, 10)
                    if kind == 0:  # bad mask index
                        req = {"v": 1, "op": "score", "tokens": [3, 4], "mask_positions": [9]}
                    elif kind == 1:  # unknown field
                        req = {"v": 1, "op": "score", "tokens": [3], "extra": True}
                    else:
                        n = int(rng.integers(1, 12))
                        tokens = [int(t) for t in rng.integers(0, backend.vocab.size, size=n)]
                        masks = sorted(
                            int(i) for i in rng.choice(n, size=int(rng.integers(0, min(n, 4))), replace=False)
                        )
                        req = {
                            "v": 1,
                            "op": "score",
                            "tokens": tokens,
                            "mask_positions": masks,
                            "want_attention": bool(rng.integers(0, 2)),
                            "top_k": None if rng.integers(0, 2) else int(rng.integers(1, backend.vocab.size + 1)),
                        }
                    line = json.dumps(req)
                    f.write((line + "\n").encode())
                    f.flush()
                    over_wire = json.loads(f.readline())
                    local = handle_request(backend, line)
                    assert over_wire == local  # serialized decimals identical
                    if kind == 0:
                        assert over_wire["code"] == "bad_mask_index"
                    elif kind == 1:
                        assert over_wire["code"] == "bad_request"
                    else:
                        assert over_wire["ok"] is True
        finally:
            server.stop()
