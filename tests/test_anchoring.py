import numpy as np
import pytest

from anchored_decoding import (
    AnchoringConfig,
    AnchorResolution,
    PromptSpec,
    VocabSpec,
    build_masked_context,
    combine_confidence,
    combine_fixed,
    parse_markup,
    resolve_anchors,
)
from anchored_decoding.anchoring import softmax

VOCAB = VocabSpec.toy(16)


# -- markup ------------------------------------------------------------------


def test_parse_markup_basic():
    spec = parse_markup("ab⟦cd⟧ef")
    assert spec.segments == (("ab", False), ("cd", True), ("ef", False))


def test_parse_markup_escaping():
    spec = parse_markup("a⟦⟦b")
    assert spec.segments == (("a⟦b", False),)
    spec = parse_markup("⟦x⟧⟧⟧")
    assert spec.segments == (("x⟧", True),)


def test_parse_markup_custom_delims():
    spec = parse_markup("a[b]c", "[", "]")
    assert spec.segments == (("a", False), ("b", True), ("c", False))
    # an empty delimiter matched everywhere without advancing (a hang), and
    # equal delimiters, or one that starts with the other, could never close a span
    cases = (("ab", "", "⟧"), ("ab", "⟦", ""), ("ab", "", ""), ("a|b|c", "|", "|"),
             ("a[b[[", "[", "[["), ("a<b<<", "<", "<<"), ("a[[b[", "[[", "["))
    for text, open_delim, close_delim in cases:
        with pytest.raises(ValueError, match="non-empty and differ"):
            parse_markup(text, open_delim, close_delim)


def test_parse_markup_unbalanced():
    with pytest.raises(ValueError):
        parse_markup("a⟦b")
    with pytest.raises(ValueError):
        parse_markup("a⟧b")


def test_parse_markup_multi_character_delimiters():
    cases = [
        ("ab<<cd>>", "<<", ">>", (("ab", False), ("cd", True))),
        ("a<<<<b", "<<", ">>", (("a<<b", False),)),  # a doubled delimiter is its literal
        ("<<x>>>>>>", "<<", ">>", (("x>>", True),)),
        ("<<<<<<x>>", "<<", ">>", (("<<", False), ("x", True))),  # the doubled form is read first
        ("xabyababbaz", "ab", "ba", (("x", False), ("yab", True), ("z", False))),  # "yab" holds an escaped "ab"
        ("ababa", "ab", "ba", (("aba", False),)),  # "abab" then "a": no open delimiter is left
        ("aba1cc2c", "aba", "c", (("1c2", True),)),
        ("q<<>>r", "<<", ">>", (("q", False), ("r", False))),  # an empty span leaves no segment
    ]
    for text, open_delim, close_delim, segments in cases:
        assert parse_markup(text, open_delim, close_delim).segments == segments, text
    unbalanced = [
        ("ab>>cd", "<<", ">>", "unbalanced close delimiter at offset 2"),
        ("<<a<<b>>", "<<", ">>", "unbalanced open delimiter at offset 3"),
        ("a<<<<b<<c>>d>>", "<<", ">>", "unbalanced close delimiter at offset 12"),
        ("zbaab", "ab", "ba", "unbalanced close delimiter at offset 1"),
        ("aba", "ab", "ba", "unterminated anchored span"),
    ]
    for text, open_delim, close_delim, message in unbalanced:
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_markup(text, open_delim, close_delim)


# -- resolution --------------------------------------------------------------


def test_resolve_simple():
    spec = PromptSpec((("ab", False), ("cd", True)))
    tokens, res = resolve_anchors(spec, VOCAB)
    assert tokens == VOCAB.tokenize("abcd")
    assert sorted(res.token_positions) == [2, 3]


def test_resolve_full_cover():
    spec = PromptSpec((("abc", True),))
    tokens, res = resolve_anchors(spec, VOCAB)
    assert sorted(res.token_positions) == list(range(len(tokens)))


def test_resolve_prefix_sum_oracle():
    segments = (("a", True), ("b", False), ("c", True))
    tokens, res = resolve_anchors(PromptSpec(segments), VOCAB)
    # re-derive positions from the per-segment token counts
    expected = set()
    offset = 0
    for text, anchored in segments:
        n = len(VOCAB.tokenize(text))
        if anchored:
            expected.update(range(offset, offset + n))
        offset += n
    assert res.token_positions == frozenset(expected)
    assert sorted(res.token_positions) == [0, 2]


def test_resolve_untokenizable():
    with pytest.raises(ValueError, match="cannot tokenize"):
        resolve_anchors(PromptSpec((("aZZ", True),)), VOCAB)


def test_tokenize_never_yields_reserved_ids():
    # the surface strings of the mask and stop tokens are not prompt text:
    # a vocabulary without their characters refuses them, one with them reads characters
    for text in ("ab<eos>", "a<mask>b"):
        with pytest.raises(ValueError, match="cannot tokenize substring '<"):
            VOCAB.tokenize(text)
    wide = VocabSpec.toy(52)
    text = "a<mask>b<eos>"
    tokens = wide.tokenize(text)
    assert wide.mask_id not in tokens and not wide.stop_ids & set(tokens)
    assert tokens == [wide.tokenize(c)[0] for c in text]
    assert wide.detokenize(tokens) == text


# -- masking -----------------------------------------------------------------


def test_masked_context_basic():
    res = AnchorResolution(frozenset({1, 2}), prompt_length=3)
    assert build_masked_context([5, 6, 7, 8, 9], res, 0) == [5, 0, 0, 8, 9]


def test_masked_context_empty_positions():
    res = AnchorResolution(frozenset(), prompt_length=3)
    ctx = [5, 6, 7, 8]
    assert build_masked_context(ctx, res, 0) == ctx


def test_masked_context_index_diff_oracle(rng):
    ctx = rng.integers(2, 16, size=50).tolist()
    positions = frozenset(int(i) for i in rng.choice(40, size=10, replace=False))
    res = AnchorResolution(positions, prompt_length=40)
    masked = build_masked_context(ctx, res, 0)
    diffs = {i for i in range(50) if masked[i] != ctx[i]}
    assert diffs == positions  # ctx values start at 2, so mask_id 0 always differs
    assert all(masked[i] == 0 for i in positions)


def test_masked_context_never_touches_generated(rng):
    for _ in range(20):
        prompt_len = int(rng.integers(2, 10))
        total = prompt_len + int(rng.integers(0, 8))
        ctx = rng.integers(0, 16, size=total).tolist()
        k = int(rng.integers(1, prompt_len + 1))
        positions = frozenset(int(i) for i in rng.choice(prompt_len, size=k, replace=False))
        masked = build_masked_context(ctx, AnchorResolution(positions, prompt_len), 0)
        assert masked[prompt_len:] == ctx[prompt_len:]


# -- combination -------------------------------------------------------------


def test_combine_fixed_endpoints(rng):
    a = rng.normal(size=16)
    b = rng.normal(size=16)
    assert np.array_equal(combine_fixed(a, b, 1.0), a)
    assert np.array_equal(combine_fixed(a, b, 0.0), b)


def test_combine_fixed_example():
    out = combine_fixed([2.0, 0.0], [0.0, 1.0], 1.25)
    assert np.allclose(out, [2.5, -0.25], atol=1e-12)


def test_combine_fixed_equivalent_form(rng):
    for _ in range(100):
        a = rng.normal(size=32)
        b = rng.normal(size=32)
        omega = float(rng.uniform(-2, 3))
        assert np.allclose(combine_fixed(a, b, omega), a + (omega - 1) * (a - b), atol=1e-9)


def test_combine_fixed_linearity(rng):
    a, b, c, d = (rng.normal(size=16) for _ in range(4))
    lhs = combine_fixed(a, b, 1.3) + combine_fixed(c, d, 1.3)
    rhs = combine_fixed(a + c, b + d, 1.3)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_combine_fixed_length_mismatch():
    with pytest.raises(ValueError):
        combine_fixed([1.0, 2.0], [1.0], 1.0)


def test_combine_confidence_identity_at_zero(rng):
    a = rng.normal(size=16)
    b = rng.normal(size=16)
    assert np.array_equal(combine_confidence(a, b, 0.0), a)


def test_combine_confidence_saturation():
    out = combine_confidence([10.0, -10.0], [0.0, 0.0], 1.0)
    assert abs(out[0] - 10.0) < 1e-3  # p ~ 1 => weight ~ 0


def test_combine_confidence_example():
    out = combine_confidence([1.0, 1.0], [0.0, 2.0], 0.5)
    assert np.allclose(out, [1.25, 0.75], atol=1e-12)


def test_combine_confidence_closed_form(rng):
    for _ in range(50):
        a = rng.normal(size=24)
        b = rng.normal(size=24)
        lam = float(rng.uniform(0, 2))
        p = softmax(a)
        want = a + lam * (1 - p) * (a - b)
        assert np.allclose(combine_confidence(a, b, lam), want, atol=1e-9)


def test_softmax_rows_along_last_axis(rng):
    # the attention kernel's causal rows (-inf above the diagonal) and the
    # decoder's 1-d vectors go through the same function
    scores = np.where(np.tril(np.ones((5, 5), dtype=bool)), rng.normal(size=(5, 5)), -np.inf)
    rows = softmax(scores)
    for row, want in zip(rows, scores):
        assert np.array_equal(row, softmax(want))
    assert np.allclose(rows.sum(axis=-1), 1.0) and np.all(np.triu(rows, 1) == 0)


def test_combine_confidence_uniform_degenerates_to_fixed(rng):
    V = 16
    a = np.full(V, 0.37)
    b = rng.normal(size=V)
    lam = 0.8
    want = combine_fixed(a, b, 1 + lam * (1 - 1 / V))
    assert np.allclose(combine_confidence(a, b, lam), want, atol=1e-9)


def test_combine_confidence_negative_lambda():
    with pytest.raises(ValueError):
        combine_confidence([1.0], [0.0], -0.1)
    for lam in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            combine_confidence([1.0], [0.0], lam)


# -- config validation -------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        AnchoringConfig(mode="bogus")
    with pytest.raises(ValueError):
        AnchoringConfig(mode="fixed", omega=float("inf"))
    with pytest.raises(ValueError):
        AnchoringConfig(mode="confidence", lam=-1.0)
    for lam in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            AnchoringConfig(mode="confidence", lam=lam)
    for top_k in (0, 2.5, True):  # a count is an int, and a bool is not one
        with pytest.raises(ValueError, match="top_k"):
            AnchoringConfig(top_k=top_k)
    with pytest.raises(ValueError, match="only supported in fixed mode"):
        AnchoringConfig(mode="confidence", top_k=2)


def test_anchor_positions_must_be_in_prompt():
    with pytest.raises(ValueError):
        AnchorResolution(frozenset({5}), prompt_length=3)
