"""Per-layer metrics of the traced run, computed from its spans.

Every metric is reported for every workload. A metric whose layer the
workload does not exercise reads 0 and is listed under ``not_exercised``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter

from anchored_decoding import wire
from tracing import DECODE_SPANS, self_times

LAYERS = ("anchoring", "toy_model", "decoding", "harness", "wire")
MICRO_LENGTHS = (32, 128, 256)
MICRO_REPEATS = 7


def _mean(xs):
    return sum(xs) / len(xs) if xs else None


def _median(xs):
    return float(statistics.median(xs)) if xs else None


def _ratio(a, b):
    return a / b if a is not None and b else None


def score_microbench(backend, vocab_size: int) -> dict[int, float]:
    """Median ms of one score() call at each context length in MICRO_LENGTHS."""
    out = {}
    for length in MICRO_LENGTHS:
        context = [2 + k % (vocab_size - 2) for k in range(length)]
        backend.score(context)
        times = []
        for _ in range(MICRO_REPEATS):
            t0 = perf_counter()
            backend.score(context)
            times.append(perf_counter() - t0)
        out[length] = statistics.median(times) * 1e3
    return out


def wire_replay(local_backend, recorded, remote_call_ms: list[float]) -> dict:
    """Replays recorded score requests through the public handle_request on
    a local backend, splitting a remote call into server and client parts."""
    handle, server, score, share, size = [], [], [], [], []
    for tokens, masks in recorded:
        line = json.dumps(
            {"v": wire.PROTOCOL_VERSION, "op": "score", "tokens": tokens, "mask_positions": masks,
             "want_attention": False, "top_k": None}
        )
        t0 = perf_counter()
        response = wire.handle_request(local_backend, line)
        t1 = perf_counter()
        payload = (json.dumps(response) + "\n").encode("utf-8")
        t2 = perf_counter()
        local_backend.score(tokens, frozenset(masks))
        t3 = perf_counter()
        handle.append((t1 - t0) * 1e3)
        server.append((t2 - t0) * 1e3)
        score.append((t3 - t2) * 1e3)
        share.append(1.0 - (t3 - t2) / (t2 - t0))
        size.append(len(payload))
    remote_ms = _median(remote_call_ms)
    return {
        "handle_request_ms": _median(handle),
        "server_encode_share": _median(share),
        "client_overhead_ms": remote_ms - _median(server) if remote_ms is not None and server else None,
        "response_bytes_per_call": _mean(size),
        "remote_over_local_ratio": _ratio(remote_ms, _median(score)),
        "score_ms": _median(score),
    }


def layer_metrics(wl, spans, traced_backend, traced_ops, untraced_ops):
    """Returns (metrics name -> (value, unit), not-exercised names, errors)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        if s.name in DECODE_SPANS + (wl.score_span,) and not s.attrs:
            continue  # the call raised; its op already counts as failed
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
    scores = by_name[wl.score_span]
    request_wall = sum(s.duration for s in by_name["bench.request"])
    n_ops = len(traced_ops)
    errors = []

    def calls_in(span):
        return [c for c in children[span.id] if c.name == wl.score_span]

    raw = {}  # name -> (value or None, unit)

    # toy_model: the score() boundary. On remote-short the calls cross the
    # wire, so the per-call cost comes from replaying them locally.
    replay = None
    if wl.score_span == "wire.score":
        remote_ms = [s.duration * 1e3 for s in scores]
        replay = wire_replay(wl.local, traced_backend.recorded, remote_ms)
        score_ms = replay["score_ms"]
        score_busy = _ratio(score_ms * len(scores) / 1e3, request_wall) if score_ms is not None else None
    else:
        score_ms = _mean([s.duration * 1e3 for s in scores])
        score_busy = _ratio(sum(s.duration for s in scores), request_wall)
    context_tokens = sum(s.attrs["tokens"] for s in scores)
    raw["toy_model.score_calls"] = (len(scores), "count")
    raw["toy_model.score_ms_per_call"] = (score_ms, "ms")
    raw["toy_model.score_busy_share"] = (score_busy, "ratio")
    raw["toy_model.context_tokens_per_call"] = (_ratio(context_tokens, len(scores)), "tokens")
    raw["toy_model.prefix_reuse_share"] = (_ratio(sum(s.attrs["reused"] for s in scores), context_tokens), "ratio")
    for length, ms in score_microbench(wl.local, wl.vocab_size).items():
        raw[f"toy_model.score_ms.t{length}"] = (ms, "ms")

    # decoding: the loops, combine and beam search.
    greedy = by_name["decoding.greedy_decode"]
    anchored = by_name["decoding.anchored_decode"]
    beams = by_name["decoding.beam_search"]
    for span, per_token in [(s, 1) for s in greedy] + [(s, 2) for s in anchored]:
        calls = len(calls_in(span))
        if calls != per_token * span.attrs["tokens"]:
            errors.append(f"{span.name}: {calls} score() calls for {span.attrs['tokens']} tokens")
    greedy_tokens = sum(s.attrs["tokens"] for s in greedy)
    anchored_tokens = sum(s.attrs["tokens"] for s in anchored)
    anchored_calls = [c for s in anchored for c in calls_in(s)]
    original = [c for c in anchored_calls if not c.attrs["masked"]]
    masked = [c for c in anchored_calls if c.attrs["masked"]]
    first, last = [], []
    for s in anchored:
        starts = sorted(c.start for c in calls_in(s) if not c.attrs["masked"])
        if len(starts) >= 2:
            first.append((starts[1] - starts[0]) * 1e3)
            last.append((s.end - starts[-1]) * 1e3)
    loops = greedy + anchored
    loop_self = sum(s.duration - sum(c.duration for c in calls_in(s)) for s in loops)
    all_masked = [s for s in scores if s.attrs["masked"]]
    raw["decoding.score_calls_per_token"] = (_ratio(len(anchored_calls), anchored_tokens), "count")
    raw["decoding.greedy_score_calls_per_token"] = (
        _ratio(sum(len(calls_in(s)) for s in greedy), greedy_tokens), "count"
    )
    raw["decoding.original_pass_ms"] = (_mean([c.duration * 1e3 for c in original]), "ms")
    raw["decoding.masked_pass_ms"] = (_mean([c.duration * 1e3 for c in masked]), "ms")
    raw["decoding.combine_us_per_step"] = (_mean([s.duration * 1e6 for s in by_name["decoding.combine"]]), "us")
    raw["decoding.step_ms_first"] = (_mean(first), "ms")
    raw["decoding.step_ms_last"] = (_mean(last), "ms")
    raw["decoding.anchored_over_greedy_ratio"] = (
        _ratio(
            _ratio(sum(s.duration for s in anchored), anchored_tokens),
            _ratio(sum(s.duration for s in greedy), greedy_tokens),
        ),
        "ratio",
    )
    raw["decoding.self_ms_per_token"] = (
        _ratio(loop_self * 1e3, greedy_tokens + anchored_tokens) if loops else None, "ms"
    )
    raw["decoding.masked_via_mask_positions_share"] = (
        _ratio(sum(s.attrs["via_mask_positions"] for s in all_masked), len(all_masked)) if all_masked else None,
        "ratio",
    )
    raw["decoding.beam_score_calls_per_search"] = (_mean([len(calls_in(s)) for s in beams]), "count")
    raw["decoding.beam_expanded_share"] = (
        _mean(
            [
                len(calls_in(s)) / 2 / sum(s.attrs["width"] ** d for d in range(s.attrs["max_new"]))
                for s in beams
            ]
        ),
        "ratio",
    )

    # harness: sandboxed tests and gating. Work inside evaluate() runs on
    # its pool threads; those spans hang under the evaluate span.
    run_tests = by_name["harness.run_tests"]
    evals = by_name["harness.evaluate"]
    busy = sum(c.duration for e in evals for c in children[e.id])
    gating = wl.report(traced_ops)
    raw["harness.run_tests_calls"] = (len(run_tests), "count")
    raw["harness.run_tests_ms_p50"] = (_median([s.duration * 1e3 for s in run_tests]), "ms")
    raw["harness.sandbox_busy_share"] = (_ratio(sum(s.duration for s in run_tests), busy), "ratio")
    raw["harness.anchored_activation_share"] = (gating.get("anchored_activation_share", (None,))[0], "ratio")
    raw["harness.anchored_rescue_share"] = (gating.get("anchored_rescue_share", (None,))[0], "ratio")
    raw["harness.busy_over_wall"] = (_ratio(busy, sum(e.duration for e in evals)), "ratio")

    # anchoring: markup parsing and tokenization, per prompt submitted.
    markup = by_name["anchoring.parse_markup"] + by_name["anchoring.resolve_anchors"]
    raw["anchoring.markup_us_per_prompt"] = (
        _ratio(sum(s.duration for s in markup) * 1e6, n_ops * wl.prompts_per_op) if markup else None, "us"
    )

    # wire: the NDJSON protocol, measured on remote-short only.
    replay = replay or {}
    raw["wire.handle_request_ms"] = (replay.get("handle_request_ms"), "ms")
    raw["wire.server_encode_share"] = (replay.get("server_encode_share"), "ratio")
    raw["wire.client_overhead_ms"] = (replay.get("client_overhead_ms"), "ms")
    raw["wire.response_bytes_per_call"] = (replay.get("response_bytes_per_call"), "bytes")
    raw["wire.remote_over_local_ratio"] = (replay.get("remote_over_local_ratio"), "ratio")

    # Self time per layer: span time not covered by its child spans.
    selfs = self_times(spans)
    per_layer_self = defaultdict(float)
    for s in spans:
        per_layer_self[s.layer] += selfs[s.id]
    for layer in LAYERS:
        value = per_layer_self[layer] * 1e3 / n_ops if layer in per_layer_self else None
        raw[f"{layer}.self_ms_per_op"] = (value, "ms")

    # Tracing overhead: the same ops, traced against untraced.
    untraced_s = sum(op.seconds for op in untraced_ops)
    traced_s = sum(op.seconds for op in traced_ops)
    raw["trace.overhead_share"] = (traced_s / untraced_s - 1.0 if untraced_s else None, "ratio")
    raw["trace.overhead_ms_per_op"] = ((traced_s - untraced_s) * 1e3 / n_ops, "ms")

    metrics = {name: (0.0 if v is None else float(v), unit) for name, (v, unit) in raw.items()}
    not_exercised = [name for name, (v, _) in raw.items() if v is None]
    return metrics, not_exercised, errors
