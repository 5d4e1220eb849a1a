"""Anchored decoding: amplify selected prompt spans during autoregressive
generation by combining logits from an original and a mask-substituted
prompt."""

from .anchoring import (
    AnchoringConfig,
    AnchorResolution,
    PromptSpec,
    build_masked_context,
    combine_confidence,
    combine_fixed,
    parse_markup,
    resolve_anchors,
)
from .decoding import (
    BeamCandidate,
    DecodeLimits,
    GenerationTrace,
    StepScore,
    anchored_decode,
    beam_search_anchored,
    export_trace,
    greedy_decode,
    measure_overhead,
)
from .toy_model import CountingBackend, ScoreResult, ToyBackend, ToyModelConfig
from .tuning import TuneReport, TuneSpec, grid_search, kfold_split
from .vocab import VocabSpec
from .wire import LogitServer, RemoteBackend

__version__ = "0.1.0"

__all__ = [
    "AnchorResolution",
    "AnchoringConfig",
    "BeamCandidate",
    "CountingBackend",
    "DecodeLimits",
    "GenerationTrace",
    "LogitServer",
    "PromptSpec",
    "RemoteBackend",
    "ScoreResult",
    "StepScore",
    "ToyBackend",
    "ToyModelConfig",
    "TuneReport",
    "TuneSpec",
    "VocabSpec",
    "anchored_decode",
    "beam_search_anchored",
    "build_masked_context",
    "combine_confidence",
    "combine_fixed",
    "export_trace",
    "greedy_decode",
    "grid_search",
    "kfold_split",
    "measure_overhead",
    "parse_markup",
    "resolve_anchors",
]
