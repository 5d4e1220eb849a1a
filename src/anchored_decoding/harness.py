"""Evaluation harness: task corpora, sandboxed test execution, the
anchor-on-failure activation policy, Pass@k, and length bucketing."""

from __future__ import annotations

import csv
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .anchoring import AnchoringConfig, parse_markup, resolve_anchors
from .decoding import DecodeLimits, anchored_decode, beam_search_anchored, greedy_decode

SANDBOX_ENV_VAR = "ANCHOR_SANDBOX_DIR"

_TASK_FIELDS = {"id", "prompt", "tests", "entry_check", "difficulty", "meta"}

# Each test runs in a process group of its own, so a timeout can kill every
# process it started. A group, not a session: where the kernel groups the
# scheduler by session (autogroup), a session per test would make and tear
# down a scheduling group per test, which makes run times uneven.
_OWN_GROUP = {"process_group": 0} if sys.version_info >= (3, 11) else {"preexec_fn": os.setpgrp}


@dataclass(frozen=True)
class Task:
    id: str
    prompt: str
    tests: tuple[dict, ...] = ()
    entry_check: tuple[tuple[str, str], ...] = ()
    difficulty: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.tests and not self.entry_check:
            raise ValueError(f"task {self.id!r} has neither tests nor entry_check")


@dataclass(frozen=True)
class TestOutcome:
    passed: bool
    output: str
    exit_status: int | None
    duration: float


@dataclass(frozen=True)
class TestResult:
    passed: bool
    outcomes: tuple[TestOutcome, ...]
    timed_out: bool


@dataclass
class TaskRecord:
    task_id: str
    baseline_passed: bool | None
    anchored_passed: bool | None
    final_passed: bool
    candidate_outcomes: list[bool]
    generated_len: int
    error: str | None = None


@dataclass
class EvalReport:
    records: list[TaskRecord]
    pass_at_1: float
    pass_at_k: dict[int, float]
    bucket_pass1: dict[str, float]
    bucket_counts: dict[str, int]
    wall_seconds: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "tasks": [
                    {
                        "id": r.task_id,
                        "baseline_passed": r.baseline_passed,
                        "anchored_passed": r.anchored_passed,
                        "final_passed": r.final_passed,
                        "candidates": r.candidate_outcomes,
                        "generated_len": r.generated_len,
                        "error": r.error,
                    }
                    for r in self.records
                ],
                "pass_at_1": self.pass_at_1,
                "pass_at_k": {str(k): v for k, v in self.pass_at_k.items()},
                "bucket_pass1": self.bucket_pass1,
                "bucket_counts": self.bucket_counts,
                "wall_seconds": self.wall_seconds,
            },
            indent=2,
        )

    def write_csv(self, fp) -> None:
        w = csv.writer(fp)
        w.writerow(["task_id", "baseline_passed", "anchored_passed", "final_passed"])
        for r in self.records:
            w.writerow([r.task_id, r.baseline_passed, r.anchored_passed, r.final_passed])


# -- corpus ------------------------------------------------------------------


def task_from_dict(obj: dict) -> Task:
    unknown = set(obj) - _TASK_FIELDS
    if unknown:
        raise ValueError(f"unknown task fields: {sorted(unknown)}")
    if "id" not in obj or "prompt" not in obj:
        raise ValueError("task needs id and prompt")
    entry_check = obj.get("entry_check") or []
    return Task(
        id=str(obj["id"]),
        prompt=str(obj["prompt"]),
        tests=tuple(obj.get("tests") or []),
        entry_check=tuple((p["in"], p["out"]) for p in entry_check),
        difficulty=obj.get("difficulty"),
        meta=obj.get("meta") or {},
    )


def task_to_dict(task: Task) -> dict:
    return {
        "id": task.id,
        "prompt": task.prompt,
        "tests": list(task.tests),
        "entry_check": [{"in": a, "out": b} for a, b in task.entry_check] or None,
        "difficulty": task.difficulty,
        "meta": task.meta,
    }


def load_corpus(path) -> list[Task]:
    """Newline-delimited JSON, one task per line; duplicate ids rejected."""
    tasks: list[Task] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                task = task_from_dict(json.loads(line))
            except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if task.id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate task id {task.id!r}")
            seen.add(task.id)
            tasks.append(task)
    return tasks


def write_corpus(tasks, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for task in tasks:
            fp.write(json.dumps(task_to_dict(task)) + "\n")


# -- toy-language evaluator --------------------------------------------------

# A toy program is a string of single-character ops applied left to right to
# the input string; characters without an assigned op are no-ops, so any
# generated token sequence is a runnable program.
#   d  duplicate      (s -> s + s)
#   r  reverse
#   x  drop last char
#   h  keep first half (floor)
#   s  swap first and last char


def run_toy_program(program: str, inp: str) -> str:
    s = inp
    for op in program:
        if op == "d":
            s = s + s
        elif op == "r":
            s = s[::-1]
        elif op == "x":
            s = s[:-1]
        elif op == "h":
            s = s[: len(s) // 2]
        elif op == "s" and len(s) >= 2:
            s = s[-1] + s[1:-1] + s[0]
    return s


# -- sandboxed execution -----------------------------------------------------


def run_tests(program_text: str, task: Task, timeout_ms: int = 5000) -> TestResult:
    """Run a task's checks against a candidate program.

    Toy tasks (entry_check present) use the built-in evaluator. Command
    tests each run in a private sandbox directory holding the program under
    the test's declared filename; exit status 0 within the timeout passes.
    The sandbox is deleted afterwards and the working directory is restored.
    """
    if timeout_ms < 1:
        raise ValueError("timeout must be >= 1 ms")
    outcomes: list[TestOutcome] = []
    timed_out = False

    if task.entry_check:
        for inp, expected in task.entry_check:
            t0 = time.perf_counter()
            got = run_toy_program(program_text, inp)
            outcomes.append(
                TestOutcome(got == expected, got, None, time.perf_counter() - t0)
            )
    for test in task.tests:
        sandbox = tempfile.mkdtemp(prefix="anchor-", dir=os.environ.get(SANDBOX_ENV_VAR))
        try:
            filename = test.get("file", "solution.txt")
            with open(os.path.join(sandbox, filename), "w", encoding="utf-8") as fp:
                fp.write(program_text)
            t0 = time.perf_counter()
            with subprocess.Popen(
                test["cmd"], shell=True, cwd=sandbox, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                **_OWN_GROUP,
            ) as proc:
                try:
                    out, err = proc.communicate(timeout=timeout_ms / 1000.0)
                    status = proc.returncode
                except subprocess.TimeoutExpired as exc:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                    out, err, status = exc.stdout or b"", exc.stderr or b"", None
                    timed_out = True
            output = (out + err).decode(errors="replace")
            outcomes.append(TestOutcome(status == 0, output, status, time.perf_counter() - t0))
        finally:
            shutil.rmtree(sandbox, ignore_errors=True)
    passed = bool(outcomes) and all(o.passed for o in outcomes) and not timed_out
    return TestResult(passed, tuple(outcomes), timed_out)


# -- metrics -----------------------------------------------------------------


def pass_at_k(candidate_outcomes: list[list[bool]], k: int) -> float:
    """Fraction of tasks where any of the top k candidates passed. Tasks with
    fewer than k candidates are counted over the candidates they have."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not candidate_outcomes:
        raise ValueError("no outcomes")
    hits = sum(1 for outcomes in candidate_outcomes if any(outcomes[:k]))
    return hits / len(candidate_outcomes)


def _nearest_rank(sorted_vals: list[int], pct: float) -> int:
    import math

    rank = max(1, math.ceil(pct / 100.0 * len(sorted_vals)))
    return sorted_vals[rank - 1]


def bucket_by_length(lengths: dict[str, int]) -> dict[str, list[str]]:
    """Short/Medium/Long task ids from ``{task id: prompt token count}`` at
    the 33rd/66th nearest-rank percentiles; boundary ties fall to the lower
    bucket. Ids keep the mapping's order."""
    if len(lengths) < 3:
        raise ValueError("need at least 3 tasks to bucket")
    ordered = sorted(lengths.values())
    p33 = _nearest_rank(ordered, 33)
    p66 = _nearest_rank(ordered, 66)
    buckets = {"Short": [], "Medium": [], "Long": []}
    for task_id, n in lengths.items():
        if n <= p33:
            buckets["Short"].append(task_id)
        elif n <= p66:
            buckets["Medium"].append(task_id)
        else:
            buckets["Long"].append(task_id)
    return buckets


# -- end-to-end evaluation ---------------------------------------------------


def evaluate(
    backend,
    corpus,
    config: AnchoringConfig,
    limits: DecodeLimits,
    beam_k: int | None = None,
    timeout_ms: int = 5000,
    workers: int = 1,
    open_delim: str = "⟦",
    close_delim: str = "⟧",
) -> EvalReport:
    """Evaluate a corpus under the configured activation policy.

    on_test_failure: greedy baseline first; the anchored pass runs only for
    tasks whose baseline failed, and its output replaces the answer only if
    it passes (so Pass@1 never drops below baseline). always: anchored pass
    only. Tasks without an anchored span, and every task under mode off, get
    the greedy baseline under either policy. With beam_k, Pass@k is computed
    over the beam candidates (a plain beam search where anchoring does not
    apply).

    beam_k and timeout_ms are checked before the first task. Each prompt is
    resolved once; a prompt that fails to parse or tokenize is an error in its
    task's record, and that task is left out of the length buckets.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("empty corpus")
    if beam_k is not None and not (1 <= beam_k <= backend.vocab.size):
        raise ValueError(f"beam_k must be in 1..{backend.vocab.size}")
    if timeout_ms < 1:
        raise ValueError("timeout must be >= 1 ms")
    t_start = time.perf_counter()
    prompt_lengths: dict[str, int] = {}  # task id -> prompt token count

    def eval_task(task: Task) -> TaskRecord:
        def passes(tokens) -> bool:
            return run_tests(backend.vocab.detokenize(tokens), task, timeout_ms).passed

        try:
            spec = parse_markup(task.prompt, open_delim, close_delim)
            prompt_tokens, resolution = prompt = resolve_anchors(spec, backend.vocab)
            prompt_lengths[task.id] = len(prompt_tokens)
            if beam_k is not None:
                candidates = beam_search_anchored(backend, prompt, config, beam_k, limits)
                outcomes = [passes(c.tokens) for c in candidates]
                gen_len = len(candidates[0].tokens) if candidates else 0
                return TaskRecord(task.id, None, None, any(outcomes[:1]), outcomes, gen_len)
            anchor = config.mode != "off" and bool(resolution.token_positions)
            if anchor and config.activation == "always":
                trace = anchored_decode(backend, prompt, config, limits)
                passed = passes(trace.generated_tokens)
                return TaskRecord(task.id, None, passed, passed, [passed], len(trace.steps))
            base_trace = greedy_decode(backend, prompt_tokens, limits)
            base_passed = passes(base_trace.generated_tokens)
            anchored_passed = None
            final = base_passed
            gen_len = len(base_trace.steps)
            if anchor and not base_passed:
                trace = anchored_decode(backend, prompt, config, limits)
                anchored_passed = passes(trace.generated_tokens)
                if anchored_passed:
                    final = True
                    gen_len = len(trace.steps)
            return TaskRecord(task.id, base_passed, anchored_passed, final, [final], gen_len)
        except Exception as exc:  # per-task failures never abort the run
            return TaskRecord(task.id, None, None, False, [False], 0, error=str(exc))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(eval_task, corpus))
    else:
        records = [eval_task(t) for t in corpus]
    records.sort(key=lambda r: r.task_id)

    outcome_matrix = [r.candidate_outcomes for r in records]
    p1 = pass_at_k(outcome_matrix, 1)
    pk = {1: p1}
    if beam_k is not None:
        pk[beam_k] = pass_at_k(outcome_matrix, beam_k)

    bucket_pass1: dict[str, float] = {}
    bucket_counts: dict[str, int] = {}
    lengths = {t.id: prompt_lengths[t.id] for t in corpus if t.id in prompt_lengths}
    if len(lengths) >= 3:
        by_id = {r.task_id: r for r in records}
        for name, ids in bucket_by_length(lengths).items():
            bucket_counts[name] = len(ids)
            if ids:
                bucket_pass1[name] = sum(1 for i in ids if by_id[i].final_passed) / len(ids)

    return EvalReport(
        records=records,
        pass_at_1=p1,
        pass_at_k=pk,
        bucket_pass1=bucket_pass1,
        bucket_counts=bucket_counts,
        wall_seconds=time.perf_counter() - t_start,
    )
