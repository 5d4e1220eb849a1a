import io
import json

import numpy as np
import pytest

from anchored_decoding import AnchoringConfig, DecodeLimits, anchored_decode, export_trace, parse_markup
from anchored_decoding.attention_analysis import (
    attention_ratio,
    dilution_curve,
    gradient_attention,
    length_stats,
    write_curve_csv,
    write_length_stats_csv,
)
from anchored_decoding.errors import UnsupportedOperationError

from conftest import make_backend, random_marked_prompt


class LinearDouble:
    """Test double: logits = W @ sum of embeddings, so the sensitivity of any
    logit to every position is the corresponding weight row."""

    def __init__(self, seed=0, n_positions=4, dim=8, vocab=10, dead_position=None):
        rng = np.random.default_rng(seed)
        self.emb = rng.normal(size=(n_positions, dim))
        self.w = rng.normal(size=(vocab, dim))
        self.dead = dead_position

    def embed(self, tokens):
        return self.emb[: len(tokens)].copy()

    def forward_from_embeddings(self, embedded):
        total = np.zeros(embedded.shape[1])
        for i, row in enumerate(embedded):
            if i != self.dead:
                total += row
        return self.w @ total


def test_attention_ratio_all_mass_on_prompt():
    assert attention_ratio([0.5, 0.5, 0.0, 0.0], 2) == 1.0


def test_attention_ratio_uniform_half():
    assert abs(attention_ratio([0.25] * 4, 2) - 0.5) < 1e-12


def test_attention_ratio_partial_sum_oracle(backend, rng):
    ctx = rng.integers(0, backend.vocab.size, size=8).tolist()
    row = backend.score(ctx, want_attention=True).attention
    for plen in (0, 3, 8):
        assert abs(attention_ratio(row, plen) - sum(row[:plen])) < 1e-9


def test_attention_ratio_rejects_unnormalized():
    with pytest.raises(ValueError):
        attention_ratio([0.5, 0.6], 1)


@pytest.mark.parametrize(
    "row", [[np.nan, 1.0], [1.0, np.nan, 0.0], [1.5, -0.5], [-0.0001, 1.0001], [np.inf, 0.0], [[0.5, 0.5]], 1.0]
)
def test_attention_ratio_rejects_rows_that_are_not_probability_vectors(row):
    # a NaN entry made the sum check read False and alpha nan; [1.5, -0.5] sums to 1 and gave alpha 1.5;
    # [[0.5, 0.5]] has len 1, so a prompt of 1 took all of it and gave alpha 1.0
    with pytest.raises(ValueError, match="vector of finite, non-negative entries"):
        attention_ratio(row, 1)


def test_attention_ratio_permutation_invariance(rng):
    # alpha depends only on the prompt-prefix sum
    row = rng.dirichlet(np.ones(10))
    plen = 4
    tail = row[plen:].copy()
    rng.shuffle(tail)
    permuted = np.concatenate([row[:plen], tail])
    assert abs(attention_ratio(row, plen) - attention_ratio(permuted, plen)) < 1e-12


def test_dilution_curve_alpha_one_at_step_one(backend):
    trace = anchored_decode(
        backend,
        parse_markup("ab⟦cd⟧"),
        AnchoringConfig(mode="fixed", omega=1.25),
        DecodeLimits(8),
        want_attention=True,
    )
    alphas = dilution_curve(trace)
    assert len(alphas) == len(trace.steps)
    assert alphas[0] == 1.0  # context is all prompt at step 1
    assert all(0.0 <= a <= 1.0 for a in alphas)


def test_dilution_curve_compositional_oracle(backend):
    trace = anchored_decode(
        backend,
        parse_markup("ab⟦cd⟧"),
        AnchoringConfig(mode="fixed", omega=1.1),
        DecodeLimits(50),
        want_attention=True,
    )
    plen = len(trace.prompt_tokens)
    for alpha, (_, score) in zip(dilution_curve(trace), trace.steps):
        assert abs(alpha - attention_ratio(score.attention_row, plen)) < 1e-9


def test_export_alpha_equals_dilution_curve(rng):
    # export_trace reads each step's alpha as dilution_curve does; at step 0
    # the row is all prompt, which an unchecked prefix sum can round below 1
    config = AnchoringConfig(mode="fixed", omega=1.25)
    for seed in range(3):
        for vocab_size in (16, 32, 52):
            backend = make_backend(seed=seed, vocab_size=vocab_size)
            for _ in range(3):
                prompt = parse_markup(random_marked_prompt(rng, backend.vocab))
                trace = anchored_decode(backend, prompt, config, DecodeLimits(4), want_attention=True)
                buf = io.StringIO()
                export_trace(trace, buf)
                alphas = [float(json.loads(line)["alpha"]) for line in buf.getvalue().splitlines()]
                assert alphas == dilution_curve(trace)


def test_dilution_curve_requires_attention(backend):
    trace = anchored_decode(
        backend, parse_markup("ab⟦cd⟧"), AnchoringConfig(mode="fixed", omega=1.25), DecodeLimits(4)
    )
    with pytest.raises(ValueError):
        dilution_curve(trace)


def test_gradient_attention_linear_oracle():
    double = LinearDouble()
    scores = gradient_attention(double, [0, 1, 2, 3])
    target = int(np.argmax(double.w @ double.emb.sum(axis=0)))
    want = np.linalg.norm(double.w[target])
    assert np.allclose(scores, want, atol=1e-6)


def test_gradient_attention_dead_input():
    double = LinearDouble(dead_position=0)
    scores = gradient_attention(double, [0, 1, 2, 3])
    assert scores[0] < 1e-9
    assert np.all(scores[1:] > 1e-3)


def test_gradient_attention_step_size_stability(backend):
    ctx = [3, 5, 2, 7]
    a = gradient_attention(backend, ctx, delta=1e-3)
    b = gradient_attention(backend, ctx, delta=5e-4)
    assert np.all(np.abs(a - b) / np.maximum(np.abs(a), 1e-12) < 1e-4)


def test_gradient_attention_unsupported_backend():
    class Opaque:
        pass

    with pytest.raises(UnsupportedOperationError):
        gradient_attention(Opaque(), [1, 2])


def test_length_stats_single_cell():
    stats = length_stats([(10, True, "easy")])
    assert stats[("easy", "passed")] == (10, 10.0, 1)


def test_length_stats_spreadsheet_oracle():
    rows = [
        (10, True, "easy"),
        (20, True, "easy"),
        (30, False, "easy"),
        (5, False, "hard"),
        (15, False, "hard"),
        (100, False, "hard"),
    ]
    stats = length_stats(rows)
    assert stats[("easy", "passed")] == (15, 15.0, 2)
    assert stats[("easy", "failed")] == (30, 30.0, 1)
    assert stats[("hard", "failed")] == (40, 15.0, 3)


def test_length_stats_paper_fixture_renders():
    # Published reference cells (overall passed 390 vs failed 622 tokens):
    # formatting fixture only, not a reproduction target.
    stats = length_stats([(390, True, "overall"), (622, False, "overall")])
    buf = io.StringIO()
    write_length_stats_csv(stats, buf)
    lines = buf.getvalue().strip().split("\r\n")
    assert lines[0] == "group,status,mean,median,count"
    assert any(line.startswith("overall,failed,622") for line in lines)
    assert any(line.startswith("overall,passed,390") for line in lines)


def test_curve_csv():
    buf = io.StringIO()
    write_curve_csv([1.0, 0.5], buf)
    lines = buf.getvalue().strip().split("\r\n")
    assert lines == ["step,alpha", "0,1.0", "1,0.5"]
