"""Self-test of the benchmark. Usage, from the root of a checkout:

    python3 perfbench/selftest.py

1. A short run of every workload, untraced and traced, prints every metric
   BENCHMARK.json names, with its unit, and every workload-specific figure.
2. A backend wrapper that changes one emitted token makes the run report a
   failed share above 0 and exit non-zero (decode-long, beam-trie and
   remote-short; in eval-sandbox a changed token is visible only when it
   changes a test outcome).
3. In a directory holding only BENCHMARK.json and the benchmark, the
   command exits non-zero without printing a result.

Exits non-zero on the first check that fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

REPORT_METRICS = {
    "decode-long": ["greedy_tokens_per_s", "fixed_tokens_per_s", "confidence_tokens_per_s"],
    "beam-trie": ["beam_searches_per_s"],
    "eval-sandbox": ["tasks_per_s", "anchored_activation_share", "anchored_rescue_share"],
    "remote-short": ["fixed_tokens_per_s", "remote_call_ms_p50", "remote_call_ms_p99"],
}
FLIP_WORKLOADS = ("beam-trie", "remote-short", "decode-long")


class FlipOneToken:
    """score() wrapper that, on its first call, puts a token other than the
    argmax far on top, so exactly one emitted token changes."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.max_positions = inner.max_positions
        self.calls = 0

    def score(self, context_tokens, mask_positions=frozenset(), **kwargs):
        from anchored_decoding.toy_model import ScoreResult

        result = self.inner.score(context_tokens, mask_positions, **kwargs)
        self.calls += 1
        if self.calls != 1:
            return result
        logits = result.logits.copy()
        other = (int(logits.argmax()) + 1) % len(logits)
        logits[other] = logits.max() + 100.0
        return ScoreResult(logits=logits, ids=result.ids, attention=result.attention)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest: FAIL {message}", file=sys.stderr)
        sys.exit(1)


def declared() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_cli(workload: str, trace: int, cwd: Path) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics_present() -> None:
    names = declared()
    for workload in REPORT_METRICS:
        for trace in (0, 1):
            code, lines = run_cli(workload, trace, run.ROOT)
            check(code == 0, f"{workload} --trace {trace} exited {code}")
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
            check(result["correct"] and result["failed"] == 0, f"{workload}: outputs wrong")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == names[trace], f"{workload} --trace {trace}: metrics {sorted(set(units) ^ set(names[trace]))}")
            for name in REPORT_METRICS[workload] + ["failed_share"] if trace == 0 else ["trace.overhead_share"]:
                check(name in report["metrics"] and report["metrics"][name]["unit"], f"{workload}: {name}")
            print(f"selftest: ok   {workload} --trace {trace}: {len(units)} metrics")


def check_flip_fails() -> None:
    for workload in FLIP_WORKLOADS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", workload, "--seed", "0", "--seconds", "1"], wrap_backend=FlipOneToken)
        report = json.loads(out.getvalue().strip().splitlines()[-2])["report"]
        check(code != 0, f"{workload}: a flipped token still exited 0")
        share = report["metrics"]["failed_share"]["value"]
        check(share > 0, f"{workload}: a flipped token left failed_share at 0")
        print(f"selftest: ok   {workload}: flipped token gives failed_share {share:.3f}, exit {code}")


def check_bare_directory_fails() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run_cli("beam-trie", 0, bare)
        check(code != 0 and not any(line.startswith('{"correct"') for line in lines), "bare directory run")
        print(f"selftest: ok   bare directory: exit {code}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_metrics_present()
    check_flip_fails()
    check_bare_directory_fails()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
