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
    "no length results": (lambda: length_stats([]), ValueError, "no results"),
    "no pass@k outcomes": (lambda: pass_at_k([], 1), ValueError, "no outcomes"),
    "empty corpus": (
        lambda: evaluate(make_backend(), [], AnchoringConfig(), DecodeLimits()), ValueError, "empty corpus"
    ),
    "zero embed_dim": (
        lambda: ToyModelConfig(seed=0, vocab=VocabSpec.toy(16), embed_dim=0), ValueError, "dimensions must be positive"
    ),
    "toy vocab past the alphabet": (lambda: VocabSpec.toy(60), ValueError, "alphabet too small"),
    "tokenize opaque": (lambda: OPAQUE.tokenize("ab"), ValueError, "no surface strings"),
    "detokenize opaque": (lambda: OPAQUE.detokenize([2, 3]), ValueError, "no surface strings"),
}


@pytest.mark.parametrize("case", CASES)
def test_refused(case):
    call, kind, message = CASES[case]
    with pytest.raises(kind, match=message):
        call()
