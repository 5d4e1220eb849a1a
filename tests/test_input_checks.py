"""Refusals of out-of-range input that no other test reaches: each call raises, naming the fault."""

import numpy as np
import pytest

from anchored_decoding import (
    AnchoringConfig,
    AnchorResolution,
    DecodeLimits,
    LogitServer,
    PromptSpec,
    ToyModelConfig,
    VocabSpec,
    build_masked_context,
    combine_fixed,
)
from anchored_decoding.anchoring import is_int
from anchored_decoding.attention_analysis import attention_ratio, length_stats
from anchored_decoding.errors import CapacityError, MaskIndexError
from anchored_decoding.harness import evaluate, pass_at_k
from anchored_decoding.toy_model import check_score_args

from conftest import make_backend

OPAQUE = VocabSpec(size=8, mask_id=0, stop_ids=frozenset({1}))

CASES = {
    "prompt without segments": (lambda: PromptSpec(()), ValueError, "at least one segment"),
    "context shorter than the prompt": (
        lambda: build_masked_context([3, 4], AnchorResolution(frozenset({0}), prompt_length=3), 0),
        ValueError,
        "shorter than the resolved prompt",
    ),
    "omega nan": (lambda: combine_fixed([1.0, 2.0], [0.0, 1.0], float("nan")), ValueError, "omega must be finite"),
    "prompt past the attention row": (lambda: attention_ratio([0.5, 0.5], 3), ValueError, "prompt_length out of range"),
    "bool prompt_length": (lambda: attention_ratio([0.5, 0.5], True), ValueError, "prompt_length must be an int"),
    "float prompt_length": (lambda: attention_ratio([0.5, 0.5], 1.0), ValueError, "prompt_length must be an int"),
    "no length results": (lambda: length_stats([]), ValueError, "no results"),
    "no pass@k outcomes": (lambda: pass_at_k([], 1), ValueError, "no outcomes"),
    "empty corpus": (
        lambda: evaluate(make_backend(), [], AnchoringConfig(), DecodeLimits()), ValueError, "empty corpus"
    ),
    "zero embed_dim": (
        lambda: ToyModelConfig(seed=0, vocab=VocabSpec.toy(16), embed_dim=0), ValueError, "dimensions must be positive"
    ),
    "bool n_layers": (
        lambda: ToyModelConfig(seed=0, vocab=VocabSpec.toy(16), n_layers=True), ValueError, "n_layers must be an int"
    ),
    "float n_heads": (
        lambda: ToyModelConfig(seed=0, vocab=VocabSpec.toy(16), n_heads=2.0), ValueError, "n_heads must be an int"
    ),
    "float embed_dim": (
        lambda: ToyModelConfig(seed=0, vocab=VocabSpec.toy(16), embed_dim=32.0), ValueError, "embed_dim must be an int"
    ),
    "bool max_positions": (
        lambda: ToyModelConfig(seed=0, vocab=VocabSpec.toy(16), max_positions=True),
        ValueError,
        "max_positions must be an int",
    ),
    "bool seed": (lambda: ToyModelConfig(seed=True, vocab=VocabSpec.toy(16)), ValueError, "seed must be an int"),
    "float seed": (lambda: ToyModelConfig(seed=1.5, vocab=VocabSpec.toy(16)), ValueError, "seed must be an int"),
    "str seed": (lambda: ToyModelConfig(seed="3", vocab=VocabSpec.toy(16)), ValueError, "seed must be an int"),
    "negative seed": (lambda: ToyModelConfig(seed=-1, vocab=VocabSpec.toy(16)), ValueError, "seed must be >= 0"),
    "toy vocab past the alphabet": (lambda: VocabSpec.toy(60), ValueError, "alphabet too small"),
    "bool port": (lambda: LogitServer(make_backend(), port=True), ValueError, "port must be an int in 0..65535"),
    "str port": (lambda: LogitServer(make_backend(), port="8080"), ValueError, "port must be an int in 0..65535"),
    "tokenize opaque": (lambda: OPAQUE.tokenize("ab"), ValueError, "no surface strings"),
    "detokenize opaque": (lambda: OPAQUE.detokenize([2, 3]), ValueError, "no surface strings"),
}


@pytest.mark.parametrize("case", CASES)
def test_refused(case):
    call, kind, message = CASES[case]
    with pytest.raises(kind, match=message):
        call()


def per_item_check_score_args(context_tokens, mask_positions, vocab_size, max_positions):
    """check_score_args as it was before its C-speed pass: one Python test per token."""
    if isinstance(context_tokens, np.ndarray) and context_tokens.ndim == 1:
        context_tokens = context_tokens.tolist()
    if not isinstance(context_tokens, (list, tuple)) or not context_tokens:
        raise ValueError("context_tokens must be a non-empty sequence of ints")
    n = len(context_tokens)
    if n > max_positions:
        raise CapacityError(f"context length {n} exceeds max_positions {max_positions}")
    if not all(is_int(t) and 0 <= t < vocab_size for t in context_tokens):
        raise ValueError(f"token ids must be ints in 0..{vocab_size - 1}")
    masks = list(mask_positions)
    for m in masks:
        if not is_int(m):
            raise ValueError(f"mask position {m!r} is not an int in 0..{n - 1}")
        if not 0 <= m < n:
            raise MaskIndexError(f"mask position {m} is outside the context, 0..{n - 1}")
    return np.array(context_tokens, dtype=np.int64), sorted({int(m) for m in masks})


def odd_value(rng, bound):
    """An id or position that the rule may refuse: a bool, numpy int, float, out of range or huge."""
    return [
        True, False, np.int64(rng.integers(0, bound)), np.int32(bound), float(rng.integers(0, bound)),
        -1, bound, 2**70, -(2**70), "1", None, np.bool_(True), np.float64(1.0),
    ][int(rng.integers(0, 13))]


def outcome(call):
    try:
        tokens, masks = call()
    except Exception as e:  # the verdict is the exception's type and message
        return type(e), str(e)
    return tokens.dtype, tokens.tolist(), masks


def test_score_args_rule_matches_the_per_item_rule():
    # same verdict, same exception type and message, same result, on mostly bad input
    rng = np.random.default_rng(10)
    vocab, limit = 16, 40
    containers = [list, tuple, iter, frozenset]  # iter: one-shot
    for _ in range(3000):
        n = int(rng.integers(0, 45))
        tokens = [int(t) for t in rng.integers(0, vocab, size=n)]
        masks = [int(m) for m in rng.integers(0, max(n, 1), size=int(rng.integers(0, 5)))]
        for _ in range(int(rng.integers(0, 3))):
            if tokens and rng.random() < 0.7:
                tokens[int(rng.integers(0, n))] = odd_value(rng, vocab)
            if masks and rng.random() < 0.5:
                masks[int(rng.integers(0, len(masks)))] = odd_value(rng, max(n, 1))
        as_context = containers[int(rng.integers(0, 3))]
        if as_context is iter and rng.random() < 0.5 and all(type(t) is int and abs(t) < 2**62 for t in tokens):
            as_context = lambda ts: np.array(ts, dtype=np.int64 if rng.random() < 0.7 else np.float64)  # noqa: E731
        context = as_context(tokens)
        as_masks = containers[int(rng.integers(0, 4))]
        got = outcome(lambda: check_score_args(context, as_masks(masks), vocab, limit))
        want = outcome(lambda: per_item_check_score_args(context, as_masks(masks), vocab, limit))
        assert got == want, (context, masks)
