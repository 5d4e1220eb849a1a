"""Evaluation harness: task corpora, sandboxed test execution, the
anchor-on-failure activation policy, Pass@k, and length bucketing."""

from __future__ import annotations

import contextlib
import csv
import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from .anchoring import (
    DEFAULT_CLOSE, DEFAULT_OPEN, AnchoringConfig, check_delimiters, is_int, parse_markup, resolve_anchors,
)
from .decoding import DecodeLimits, anchored_decode, beam_search_anchored, check_search_args, greedy_decode

SANDBOX_ENV_VAR = "ANCHOR_SANDBOX_DIR"
DEFAULT_TIMEOUT_MS = 5000  # per test command
MAX_OUTPUT_BYTES = 1 << 16  # of a test's output kept in its TestOutcome
MAX_FILE_BYTES = 1 << 24  # per file a test writes, its output file included (RLIMIT_FSIZE)

_TASK_FIELDS = {"id", "prompt", "tests", "entry_check", "difficulty"}
# The eval report's keys that differ from their TaskRecord/EvalReport field names
_REPORT_KEYS = {"records": "tasks", "task_id": "id", "candidate_outcomes": "candidates"}
DEFAULT_TEST_FILE = "solution.txt"  # where a test without a file finds the program

# Each test runs in a process group of its own, so its end can kill every
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

    def __post_init__(self):
        if not (isinstance(self.id, str) and isinstance(self.prompt, str)):
            raise ValueError(f"task {self.id!r}: id and prompt must be strings")
        if not isinstance(self.difficulty, (str, type(None))):
            raise ValueError(f"task {self.id!r}: difficulty must be a string or null")
        if not self.tests and not self.entry_check:
            raise ValueError(f"task {self.id!r} has neither tests nor entry_check")
        for i, test in enumerate(self.tests):
            if not (isinstance(test, dict) and isinstance(test.get("cmd"), str) and test.keys() <= {"cmd", "file"}):
                raise ValueError(f"task {self.id!r}: test {i} must be an object with a string cmd and at most a file")
            name = test.get("file", DEFAULT_TEST_FILE)  # written into the sandbox, so it may not leave it
            if not isinstance(name, str) or name in ("", ".", "..") or os.path.basename(name) != name:
                raise ValueError(f"task {self.id!r}: test {i} file {name!r} is not a plain file name")
        for pair in self.entry_check:
            if not (isinstance(pair, tuple) and len(pair) == 2 and all(isinstance(s, str) for s in pair)):
                raise ValueError(f"task {self.id!r}: entry_check pairs must be (input, output) strings")


@dataclass(frozen=True)
class TestOutcome:
    passed: bool
    output: str
    exit_status: int | None


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
        """Every field in field order, under its own name unless _REPORT_KEYS renames it."""
        doc = asdict(self)
        doc["records"] = [{_REPORT_KEYS.get(k, k): v for k, v in r.items()} for r in doc["records"]]
        return json.dumps({_REPORT_KEYS.get(k, k): v for k, v in doc.items()}, indent=2)

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
    tests, entry_check = obj.get("tests", []), obj.get("entry_check")  # older corpora write a null entry_check
    if not isinstance(tests, list) or not isinstance(entry_check, (list, type(None))):
        raise ValueError(f"task {obj['id']!r}: tests must be a list, and entry_check a list or null")
    entry_check = entry_check or []
    if not all(isinstance(p, dict) and p.keys() == {"in", "out"} for p in entry_check):
        raise ValueError(f"task {obj['id']!r}: each entry_check entry must be an object with exactly in and out")
    return Task(
        id=obj["id"],
        prompt=obj["prompt"],
        tests=tuple(tests),
        entry_check=tuple((p["in"], p["out"]) for p in entry_check),
        difficulty=obj.get("difficulty"),
    )


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
            except (ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if task.id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate task id {task.id!r}")
            seen.add(task.id)
            tasks.append(task)
    return tasks


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


def _check_timeout(timeout_ms) -> None:
    if not (is_int(timeout_ms) and timeout_ms >= 1):
        raise ValueError("timeout_ms must be an int >= 1")


def run_tests(program_text: str, task: Task, timeout_ms: int = DEFAULT_TIMEOUT_MS) -> TestResult:
    """Run a task's checks against a candidate program.

    Toy tasks (entry_check present) use the built-in evaluator. Command
    tests each run in a private sandbox directory holding the program under
    the test's declared filename; its shell's exit status 0 within the
    timeout passes; no file it writes grows past MAX_FILE_BYTES. Its process
    group is then killed, and the first MAX_OUTPUT_BYTES of its stdout and
    stderr, in one record, are kept as its output. The sandbox is deleted
    afterwards.
    """
    _check_timeout(timeout_ms)
    outcomes: list[TestOutcome] = []
    timed_out = False

    if task.entry_check:
        for inp, expected in task.entry_check:
            got = run_toy_program(program_text, inp)
            outcomes.append(TestOutcome(got == expected, got, None))
    for test in task.tests:
        parent = os.environ.get(SANDBOX_ENV_VAR)
        with tempfile.TemporaryDirectory(prefix="anchor-", dir=parent, ignore_cleanup_errors=True) as sandbox:
            filename = test.get("file", DEFAULT_TEST_FILE)
            with open(os.path.join(sandbox, filename), "w", encoding="utf-8") as fp:
                fp.write(program_text)
            cmd = f"ulimit -f {MAX_FILE_BYTES // 512}; {test['cmd']}"  # ulimit counts 512-byte blocks
            with tempfile.TemporaryFile(dir=sandbox) as out, subprocess.Popen(
                cmd, shell=True, cwd=sandbox, stdout=out, stderr=subprocess.STDOUT, **_OWN_GROUP
            ) as proc:
                pidfd = os.pidfd_open(proc.pid)
                try:  # the test ends when its shell does, whatever still holds its output file open
                    waiter = select.poll()
                    waiter.register(pidfd, select.POLLIN)
                    ended = bool(waiter.poll(timeout_ms))
                finally:  # what the test left running, passed or not, killed while the unreaped shell keeps its group
                    os.close(pidfd)
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(proc.pid, signal.SIGKILL)
                status = proc.wait() if ended else None
                timed_out = timed_out or not ended
                output = os.pread(out.fileno(), MAX_OUTPUT_BYTES, 0).decode(errors="replace")
            outcomes.append(TestOutcome(status == 0, output, status))
    passed = bool(outcomes) and all(o.passed for o in outcomes) and not timed_out
    return TestResult(passed, tuple(outcomes), timed_out)


# -- metrics -----------------------------------------------------------------


def pass_at_k(candidate_outcomes: list[list[bool]], k: int) -> float:
    """Fraction of tasks where any of the top k candidates passed. Tasks with
    fewer than k candidates are counted over the candidates they have."""
    if not (is_int(k) and k >= 1):
        raise ValueError(f"k must be an int >= 1, not {k!r}")
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
    activation: str = "on_test_failure",
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    workers: int = 1,
    open_delim: str = DEFAULT_OPEN,
    close_delim: str = DEFAULT_CLOSE,
) -> EvalReport:
    """Evaluate a corpus under an activation policy.

    activation "on_test_failure" (the default): greedy baseline first; the
    anchored pass runs only for tasks whose baseline failed, and its output
    replaces the answer only if it passes (so Pass@1 never drops below
    baseline). "always": anchored pass only. Tasks the config does not apply
    to (AnchoringConfig.applies_to) get the greedy baseline under either
    policy. With beam_k, Pass@k is computed over the beam candidates (a plain
    beam search where anchoring does not apply), whatever the policy.

    Task ids (none may repeat), beam_k, config.top_k, activation, timeout_ms (an
    int, anchoring.is_int), workers and the delimiters are checked before the
    first task; tasks run on a pool of ``workers`` threads. Each prompt is
    resolved once; one that fails to parse or tokenize is its task's error,
    and that task is left out of the buckets. A task's tests run once per
    distinct program text, so they are taken to be deterministic; a timeout is
    that program's outcome.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("empty corpus")
    repeated = [task_id for task_id, n in Counter(t.id for t in corpus).items() if n > 1]
    if repeated:
        raise ValueError(f"duplicate task ids: {repeated}")
    check_search_args(backend.vocab.size, config, 1 if beam_k is None else beam_k)
    if activation not in ("always", "on_test_failure"):
        raise ValueError(f"unknown activation {activation!r}")
    _check_timeout(timeout_ms)
    if not (is_int(workers) and workers >= 1):
        raise ValueError("workers must be an int >= 1")
    check_delimiters(open_delim, close_delim)
    t_start = time.perf_counter()

    def eval_task(task: Task) -> tuple[TaskRecord, int | None]:
        tested: dict[str, bool] = {}  # program text -> passed: each distinct program meets the tests once

        def passes(tokens) -> bool:
            text = backend.vocab.detokenize(tokens)
            if text not in tested:
                tested[text] = run_tests(text, task, timeout_ms).passed
            return tested[text]

        n_prompt = None  # returned with the record: the prompt token count, once the prompt resolves
        try:
            spec = parse_markup(task.prompt, open_delim, close_delim)
            prompt_tokens, resolution = prompt = resolve_anchors(spec, backend.vocab)
            n_prompt = len(prompt_tokens)
            if beam_k is not None:
                candidates = beam_search_anchored(backend, prompt, config, beam_k, limits)
                outcomes = [passes(c.tokens) for c in candidates]
                return TaskRecord(task.id, None, None, outcomes[0], outcomes, len(candidates[0].tokens)), n_prompt
            anchor = config.applies_to(resolution)
            base_passed = anchored_passed = None
            if not (anchor and activation == "always"):
                trace = greedy_decode(backend, prompt_tokens, limits)
                base_passed = passes(trace.generated_tokens)
                gen_len = len(trace.steps)
            if anchor and not base_passed:
                trace = anchored_decode(backend, prompt, config, limits)
                anchored_passed = passes(trace.generated_tokens)
                if anchored_passed or base_passed is None:
                    gen_len = len(trace.steps)
            final = bool(base_passed or anchored_passed)
            return TaskRecord(task.id, base_passed, anchored_passed, final, [final], gen_len), n_prompt
        except Exception as exc:  # per-task failures never abort the run
            return TaskRecord(task.id, None, None, False, [False], 0, error=str(exc)), n_prompt

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(eval_task, corpus))  # corpus order
    records = sorted((r for r, _ in results), key=lambda r: r.task_id)

    outcome_matrix = [r.candidate_outcomes for r in records]
    p1 = pass_at_k(outcome_matrix, 1)
    pk = {1: p1}
    if beam_k is not None:
        pk[int(beam_k)] = pass_at_k(outcome_matrix, beam_k)  # a numpy int is no JSON key

    bucket_pass1: dict[str, float] = {}
    bucket_counts: dict[str, int] = {}
    lengths = {r.task_id: n for r, n in results if n is not None}
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
