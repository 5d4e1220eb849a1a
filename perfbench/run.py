"""Benchmark of the anchored_decoding package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: decode-long, beam-trie, eval-sandbox, remote-short (see NOTES.md).
The run times the workload's set-up several times, runs ops 0, 1, ... until
``--seconds`` have passed (decode-long: a fixed number of rounds), and
checks every output. With ``--trace 1`` it runs untraced for half the time,
reruns the same ops with span tracing on, and reports per-layer metrics and
the tracing overhead instead of the end-to-end ones; the spans go to
``.bench_work/trace-<workload>-<seed>.ndjson``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a report with the workload-specific figures. The exit status is 0 only
when every output checked out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDENS = HERE / "goldens.json"
MAX_ERRORS_SHOWN = 5


def load_package() -> bool:
    """Puts the checkout's ``src`` first on the path and imports the package
    from there; False when the checkout holds no package source."""
    if not (SRC / "anchored_decoding" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import anchored_decoding

    return Path(anchored_decoding.__file__).resolve().is_relative_to(SRC)


def digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]


def load_goldens(workload: str, seed: int) -> list[str] | None:
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    return goldens["ops"].get(workload) if goldens["seed"] == seed else None


def run_ops(wl, seed: int, seconds: float | None = None, count: int | None = None, tracer=None, between=None):
    """Runs ops 0, 1, ... for ``seconds`` (at least one op) or exactly
    ``count`` ops. An op that raises is kept as an op with an error.
    ``between(fraction done)`` is called after every op but the last."""
    from contextlib import nullcontext

    from workloads import Op

    if count is None and wl.seconds_per_op:
        count = max(1, round(seconds / wl.seconds_per_op))

    inputs, ops = [], []
    t_start = perf_counter()
    i = 0
    while (i < count) if count is not None else (i == 0 or perf_counter() - t_start < seconds):
        inp = wl.inputs(seed, i)
        with tracer.request(i) if tracer else nullcontext():
            try:
                op = wl.run(inp)
            except Exception:
                op = Op(errors=[traceback.format_exc(limit=4)])
        inputs.append(inp)
        ops.append(op)
        i += 1
        if between:
            done = i / count if count is not None else (perf_counter() - t_start) / seconds
            if done < 1:
                between(done)
    return inputs, ops


def check_ops(wl, inputs, ops, goldens) -> list[tuple[int, list[str]]]:
    """(op index, errors) for every op whose output is wrong."""
    failures = []
    for i, (inp, op) in enumerate(zip(inputs, ops)):
        errors = list(op.errors)
        if not errors:
            try:
                errors += wl.verify(inp, op)
            except Exception:
                errors.append(traceback.format_exc(limit=4))
            if goldens is not None and i < len(goldens) and digest(op.output) != goldens[i]:
                errors.append(f"output digest {digest(op.output)} differs from golden {goldens[i]}")
        if errors:
            failures.append((i, errors))
    return failures


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(ops, setup_times) -> dict:
    """The gated metrics."""
    seconds = sum(op.seconds for op in ops)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_per_s": (sum(op.units for op in ops) / seconds if seconds else 0.0, "1/s"),
    }


def latency_figures(ops) -> dict:
    """Ungated request latency percentiles, each only where at least ten
    samples lie beyond it."""
    latencies = [ms for op in ops for ms in op.latencies_ms]
    out = {"requests": (len(latencies), "count"), "request_ms_p50": (percentile(latencies, 50), "ms")}
    if len(latencies) >= 100:
        out["request_ms_p90"] = (percentile(latencies, 90), "ms")
    if len(latencies) >= 1000:
        out["request_ms_p99"] = (percentile(latencies, 99), "ms")
    return out


def traced_pass(wl, seed, untraced_ops, trace_path):
    """Reruns the untraced run's ops with tracing on; returns the per-layer
    metrics, the names not exercised, and the failures of the rerun."""
    from perlayer import layer_metrics
    from tracing import LayerPatches, TracedBackend, Tracer

    tracer = Tracer()
    wl.use_backend(wl.raw, traced=lambda clock: TracedBackend(clock, tracer, wl.score_span))
    backend = wl.backend
    patches = LayerPatches(tracer)
    try:
        inputs, ops = run_ops(wl, seed, count=len(untraced_ops), tracer=tracer)
    finally:
        patches.restore()
        wl.use_backend(wl.raw)
    failures = check_ops(wl, inputs, ops, None)
    for i, (a, b) in enumerate(zip(untraced_ops, ops)):
        if digest(a.output) != digest(b.output):
            failures.append((i, ["traced output differs from untraced output"]))
    metrics, not_exercised, errors = layer_metrics(wl, tracer.spans, backend, ops, untraced_ops)
    if errors:
        failures.append((-1, errors))
    tracer.write(trace_path)
    return metrics, not_exercised, failures


def main(argv=None, wrap_backend=None) -> int:
    """Runs the benchmark and returns the exit status. ``wrap_backend``, if
    given, wraps the backend the ops score with (used by the self-test)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not load_package():
        print(f"perfbench: no anchored_decoding package under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](wrap_backend)
    goldens = load_goldens(wl.name, args.seed)

    # Set-up probes are spread over the run, so that their median does not
    # rest on one phase of the machine's speed: two before, the rest at even
    # shares of the run, any left over after it.
    setup_times = []

    def probe(done=1.0):
        if len(setup_times) < 2 + done * (wl.setup_probes - 2):
            setup_times.append(wl.setup_probe())

    try:
        probe(0.0)
        probe(0.0)
        wl.setup()
        # A traced run spends half its time untraced, half rerunning those ops traced.
        seconds = args.seconds / 2 if args.trace else args.seconds
        inputs, ops = run_ops(wl, args.seed, seconds=seconds, between=probe)
        while len(setup_times) < wl.setup_probes:
            probe()
        failures = check_ops(wl, inputs, ops, goldens)
        try:
            sample_errors = wl.sample_check(args.seed)
        except Exception:
            sample_errors = [traceback.format_exc(limit=4)]
        if sample_errors:
            failures.append((-1, sample_errors))
        metrics = end_to_end(ops, setup_times)
        report = dict(metrics, **latency_figures(ops), **wl.report(ops))
        not_exercised = []
        if args.trace:
            trace_path = WORK / f"trace-{wl.name}-{args.seed}.ndjson"
            metrics, not_exercised, traced_failures = traced_pass(wl, args.seed, ops, trace_path)
            failures += traced_failures
            report.update(metrics)
    finally:
        wl.close()

    attempted = len(ops) + 1  # ops plus the omega = 1 sample check
    failed = len({i for i, _ in failures})
    for i, errors in failures[:MAX_ERRORS_SHOWN]:
        print(f"perfbench: {'check' if i < 0 else f'op {i}'} failed: {'; '.join(errors)}", file=sys.stderr)
    report["failed_share"] = (failed / attempted, "ratio")
    report_line = {
        "workload": wl.name,
        "seed": args.seed,
        "ops": len(ops),
        "sent": attempted,
        "succeeded": attempted - failed,
        "failed": failed,
        "golden_checked": min(len(ops), len(goldens)) if goldens else 0,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in report.items()},
    }
    if args.trace:
        report_line["not_exercised"] = not_exercised
    print(json.dumps({"report": report_line}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
