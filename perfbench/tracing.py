"""Span tracing for the traced benchmark run.

Spans are recorded only on the benchmark's side of each layer boundary: a
backend wrapper around ``score()`` and module-attribute wrappers around the
package functions listed in ``LAYER_FUNCTIONS``. The wrappers are installed
for the traced pass and restored afterwards. Spans stay in memory until the
run ends and are then written as NDJSON.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from anchored_decoding import anchoring, decoding, harness

# (module, attribute, span name). A name imported into another module is
# wrapped there too, because that module looks it up in its own globals.
LAYER_FUNCTIONS = [
    (anchoring, "parse_markup", "anchoring.parse_markup"),
    (anchoring, "resolve_anchors", "anchoring.resolve_anchors"),
    (harness, "parse_markup", "anchoring.parse_markup"),
    (harness, "resolve_anchors", "anchoring.resolve_anchors"),
    (decoding, "resolve_anchors", "anchoring.resolve_anchors"),
    (decoding, "combine_fixed", "decoding.combine"),
    (decoding, "combine_confidence", "decoding.combine"),
    (decoding, "greedy_decode", "decoding.greedy_decode"),
    (decoding, "anchored_decode", "decoding.anchored_decode"),
    (decoding, "beam_search_anchored", "decoding.beam_search"),
    (harness, "greedy_decode", "decoding.greedy_decode"),
    (harness, "anchored_decode", "decoding.anchored_decode"),
    (harness, "beam_search_anchored", "decoding.beam_search"),
    (harness, "run_tests", "harness.run_tests"),
    (harness, "evaluate", "harness.evaluate"),
]

DECODE_SPANS = ("decoding.greedy_decode", "decoding.anchored_decode", "decoding.beam_search")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans with their parent and request id. A span opened on a
    worker thread with no open span of its own hangs under the innermost
    span open on the thread that opened the request."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        outer = stack[-1] if stack else (self._request_stack[-1] if self._request_stack else None)
        span = Span(
            next(self._ids),
            name,
            perf_counter(),
            0.0,
            outer.id if outer else None,
            outer.request if outer else None,
            attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)

    @contextmanager
    def request(self, request_id: int):
        with self.span("bench.request") as span:
            span.request = request_id
            self._request_stack = self._stack()
            try:
                yield span
            finally:
                self._request_stack = []

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for s in self.spans:
                fp.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "request": s.request,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


def _decode_attrs(args, result) -> dict:
    if isinstance(result, list):  # beam_search_anchored(backend, prompt, config, beam_width, limits)
        return {"candidates": len(result), "width": args[3], "max_new": args[4].max_new_tokens}
    return {"tokens": len(result.steps)}


class LayerPatches:
    """Installs the module-attribute wrappers; ``restore`` puts the
    originals back."""

    def __init__(self, tracer: Tracer):
        self._saved = []
        for module, attr, name in LAYER_FUNCTIONS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(tracer, original, name))

    @staticmethod
    def _wrap(tracer, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if name in DECODE_SPANS:
                    span.attrs.update(_decode_attrs(args, result))
                return result

        return wrapper

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class TracedBackend:
    """``score()`` wrapper that opens one span per call and classifies it.

    A call is a masked pass when its effective context (after
    ``mask_positions``) starts with a registered masked prompt; the package's
    own ``CountingBackend.masked_calls`` stays 0 because decoding masks the
    context itself. ``reused`` counts leading positions already scored as a
    prefix earlier in the same request: the ceiling for a prefix cache.
    """

    RECORD_EVERY = 10
    RECORD_MAX = 300

    def __init__(self, inner, tracer: Tracer, span_name: str):
        self.inner = inner
        self.vocab = inner.vocab
        self.max_positions = inner.max_positions
        self.tracer = tracer
        self.span_name = span_name
        self.calls = 0
        self._masked_prompts: dict[int, set[tuple[int, ...]]] = {}
        self._tries: dict[int | None, dict] = {}
        self._lock = threading.Lock()
        # (context, mask positions) of every RECORD_EVERY-th call, for replays
        self.recorded: list[tuple[list[int], list[int]]] = []

    def register_masked_prompt(self, masked_tokens) -> None:
        masked_tokens = tuple(masked_tokens)
        self._masked_prompts.setdefault(len(masked_tokens), set()).add(masked_tokens)

    def score(self, context_tokens, mask_positions=frozenset(), **kwargs):
        with self.tracer.span(self.span_name) as span:
            result = self.inner.score(context_tokens, mask_positions, **kwargs)
        effective = [int(t) for t in context_tokens]
        for m in mask_positions:
            effective[m] = self.vocab.mask_id
        masked = any(
            tuple(effective[:n]) in prompts for n, prompts in self._masked_prompts.items() if n <= len(effective)
        )
        with self._lock:
            self.calls += 1
            if self.calls % self.RECORD_EVERY == 0 and len(self.recorded) < self.RECORD_MAX:
                self.recorded.append(([int(t) for t in context_tokens], sorted(mask_positions)))
            if span.request not in self._tries:
                self._tries = {span.request: {}}  # one request at a time
            node = self._tries[span.request]
            reused = 0
            for tok in effective:
                child = node.get(tok)
                if child is None:
                    break
                node = child
                reused += 1
            for tok in effective[reused:]:
                node = node.setdefault(tok, {})
        span.attrs.update(
            tokens=len(effective), masked=masked, via_mask_positions=bool(mask_positions), reused=reused
        )
        return result


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans
    (children on worker threads may overlap, so their union is taken)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.duration - covered
    return out
