"""Refusals of out-of-range input that no other test reaches: each call raises, naming the fault."""

import pytest

from anchored_decoding import (
    AnchoringConfig,
    AnchorResolution,
    DecodeLimits,
    PromptSpec,
    ToyModelConfig,
    VocabSpec,
    build_masked_context,
    combine_fixed,
)
from anchored_decoding.attention_analysis import attention_ratio, length_stats
from anchored_decoding.harness import evaluate, pass_at_k

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
    "tokenize opaque": (lambda: OPAQUE.tokenize("ab"), ValueError, "no surface strings"),
    "detokenize opaque": (lambda: OPAQUE.detokenize([2, 3]), ValueError, "no surface strings"),
}


@pytest.mark.parametrize("case", CASES)
def test_refused(case):
    call, kind, message = CASES[case]
    with pytest.raises(kind, match=message):
        call()
