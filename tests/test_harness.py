import json
import os
import time

import numpy as np
import pytest

from anchored_decoding import (
    AnchoringConfig,
    CountingBackend,
    DecodeLimits,
    greedy_decode,
    parse_markup,
    resolve_anchors,
)
from anchored_decoding import harness
from anchored_decoding.harness import (
    Task,
    bucket_by_length,
    evaluate,
    load_corpus,
    pass_at_k,
    run_tests,
    run_toy_program,
    task_from_dict,
    write_corpus,
)

from conftest import make_backend, random_marked_prompt
from test_decoding import exhaustive_hybrid

LIMITS = DecodeLimits(8)
FIXED = AnchoringConfig(mode="fixed", omega=1.25)


def baseline_program(backend, prompt_text):
    """What greedy decoding emits for a prompt, as toy program text."""
    spec = parse_markup(prompt_text)
    tokens, _ = resolve_anchors(spec, backend.vocab)
    trace = greedy_decode(backend, tokens, LIMITS)
    return backend.vocab.detokenize(trace.generated_tokens)


def make_task(tid, prompt_text, program, passing=True, difficulty=None):
    """Toy task whose entry_check passes exactly when the generated program
    behaves like `program` on the probe input."""
    expected = run_toy_program(program, "ab") if passing else "@@impossible@@"
    return Task(
        id=tid, prompt=prompt_text, entry_check=((("ab"), expected),), difficulty=difficulty
    )


# -- corpus ------------------------------------------------------------------


def test_empty_corpus(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("")
    assert load_corpus(path) == []


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    lines = [
        json.dumps({"id": "t1", "prompt": "⟦a⟧", "entry_check": [{"in": "a", "out": "a"}]}),
        json.dumps({"id": "t1", "prompt": "⟦b⟧", "entry_check": [{"in": "a", "out": "a"}]}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="t1"):
        load_corpus(path)


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("{}\n")
    with pytest.raises(ValueError, match=":1:"):
        load_corpus(path)


def test_corpus_round_trip(tmp_path, rng):
    tasks = [
        Task(
            id=f"t{i}",
            prompt=f"ab⟦{chr(99 + i)}⟧",
            entry_check=(("ab", "abab"),),
            tests=({"cmd": "exit 0", "file": "p.txt"},),
            difficulty=["easy", "medium", "hard"][i % 3],
            meta={"n": i},
        )
        for i in range(20)
    ]
    path = tmp_path / "c.jsonl"
    write_corpus(tasks, path)
    loaded = load_corpus(path)
    assert loaded == tasks
    # byte-identical round trip
    path2 = tmp_path / "c2.jsonl"
    write_corpus(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_unknown_task_field_rejected():
    with pytest.raises(ValueError, match="unknown"):
        task_from_dict({"id": "x", "prompt": "p", "tests": [], "entry_check": None, "wat": 1})


def test_task_needs_some_check():
    with pytest.raises(ValueError):
        Task(id="x", prompt="p")


# -- toy language ------------------------------------------------------------


def test_toy_program_ops():
    assert run_toy_program("d", "ab") == "abab"
    assert run_toy_program("r", "abc") == "cba"
    assert run_toy_program("x", "abc") == "ab"
    assert run_toy_program("h", "abcd") == "ab"
    assert run_toy_program("s", "abc") == "cba"
    assert run_toy_program("", "abc") == "abc"
    assert run_toy_program("zz", "abc") == "abc"  # unknown ops are no-ops
    assert run_toy_program("dr", "ab") == "baba"


# -- run_tests ---------------------------------------------------------------


def test_run_tests_exit_zero():
    task = Task(id="t", prompt="p", tests=({"cmd": "exit 0", "file": "sol.txt"},))
    assert run_tests("whatever", task).passed


def test_run_tests_nonzero_exit():
    task = Task(id="t", prompt="p", tests=({"cmd": "exit 3", "file": "sol.txt"},))
    result = run_tests("x", task)
    assert not result.passed
    assert result.outcomes[0].exit_status == 3


def test_run_tests_sees_program_file():
    task = Task(id="t", prompt="p", tests=({"cmd": "grep -q hello sol.txt", "file": "sol.txt"},))
    assert run_tests("hello world", task).passed
    assert not run_tests("goodbye", task).passed


def test_run_tests_timeout():
    task = Task(id="t", prompt="p", tests=({"cmd": "sleep 2", "file": "s.txt"},))
    result = run_tests("x", task, timeout_ms=200)
    assert result.timed_out and not result.passed


def test_run_tests_timeout_kills_background_processes(tmp_path):
    pid_file = tmp_path / "pid"
    cmd = f"sleep 5 & echo $! > {pid_file}; wait"
    task = Task(id="t", prompt="p", tests=({"cmd": cmd, "file": "s.txt"},))
    result = run_tests("x", task, timeout_ms=200)
    assert result.timed_out and not result.passed
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 2.0
    while _process_alive(pid):
        assert time.monotonic() < deadline, f"test process {pid} outlived its timeout"
        time.sleep(0.02)


def _process_alive(pid):
    """True while pid names a process that has not exited (zombies count as
    exited: they wait only for their new parent to reap them)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fp:
            return fp.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def test_run_tests_entry_check():
    task = Task(id="t", prompt="p", entry_check=(("ab", "abab"),))
    assert run_tests("d", task).passed  # doubling program
    assert not run_tests("", task).passed  # identity program


def test_sandbox_hygiene(tmp_path):
    cwd = os.getcwd()
    os.environ["ANCHOR_SANDBOX_DIR"] = str(tmp_path)
    try:
        task = Task(id="t", prompt="p", tests=({"cmd": "touch scratch.txt", "file": "s.txt"},))
        assert run_tests("x", task).passed
    finally:
        del os.environ["ANCHOR_SANDBOX_DIR"]
    assert os.getcwd() == cwd
    assert list(tmp_path.iterdir()) == []  # sandbox directory deleted


def test_run_tests_bad_timeout():
    task = Task(id="t", prompt="p", entry_check=(("a", "a"),))
    with pytest.raises(ValueError):
        run_tests("x", task, timeout_ms=0)


# -- pass@k ------------------------------------------------------------------


def test_pass_at_k_basic():
    assert pass_at_k([[True], [False]], 1) == 0.5
    assert pass_at_k([[False, False], [False]], 1) == 0.0
    assert pass_at_k([[False, True]], 2) == 1.0


def test_pass_at_k_brute_force_oracle(rng):
    outcomes = [[bool(rng.integers(0, 2)) for _ in range(10)] for _ in range(20)]
    for k in (1, 3, 10):
        brute = sum(1 for row in outcomes if any(row[:k])) / 20
        assert pass_at_k(outcomes, k) == brute


def test_pass_at_k_monotone(rng):
    outcomes = [[bool(rng.integers(0, 2)) for _ in range(8)] for _ in range(30)]
    vals = [pass_at_k(outcomes, k) for k in range(1, 9)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_pass_at_k_validation():
    with pytest.raises(ValueError):
        pass_at_k([[True]], 0)


# -- bucketing ---------------------------------------------------------------


def bucket_tasks(lengths):
    """Prompt token counts by task id, as evaluate() collects them."""
    return {f"t{i:03d}": n for i, n in enumerate(lengths)}


def test_bucket_three_tasks():
    buckets = bucket_by_length(bucket_tasks([1, 2, 3]))
    assert [len(buckets[b]) for b in ("Short", "Medium", "Long")] == [1, 1, 1]


def test_bucket_all_equal():
    buckets = bucket_by_length(bucket_tasks([4, 4, 4, 4]))
    assert len(buckets["Short"]) == 4
    assert not buckets["Medium"] and not buckets["Long"]


def test_bucket_sort_and_slice_oracle(rng):
    import math

    lengths = [int(x) for x in rng.integers(1, 40, size=99)]
    buckets = bucket_by_length(bucket_tasks(lengths))
    ordered = sorted(lengths)
    p33 = ordered[max(1, math.ceil(0.33 * 99)) - 1]
    p66 = ordered[max(1, math.ceil(0.66 * 99)) - 1]
    want_short = sum(1 for n in lengths if n <= p33)
    want_medium = sum(1 for n in lengths if p33 < n <= p66)
    want_long = sum(1 for n in lengths if n > p66)
    assert len(buckets["Short"]) == want_short
    assert len(buckets["Medium"]) == want_medium
    assert len(buckets["Long"]) == want_long


def test_bucket_too_few():
    with pytest.raises(ValueError):
        bucket_by_length(bucket_tasks([1, 2]))


# -- evaluate ----------------------------------------------------------------


def test_gating_no_masked_calls_when_baseline_passes(backend):
    prompts = [f"ab⟦{c}d⟧" for c in "cefg"]
    corpus = [
        make_task(f"t{i}", p, baseline_program(backend, p), passing=True)
        for i, p in enumerate(prompts)
    ]
    counting = CountingBackend(backend)
    report = evaluate(counting, corpus, FIXED, LIMITS)
    assert report.pass_at_1 == 1.0
    assert counting.masked_calls == 0


def test_omega_one_always_equals_baseline(backend):
    rng = np.random.default_rng(5)
    corpus = []
    for i in range(6):
        p = random_marked_prompt(rng, backend.vocab)
        corpus.append(make_task(f"t{i}", p, baseline_program(backend, p), passing=(i % 2 == 0)))
    # prompts without an anchored span get the greedy baseline under "always" too
    for p in ("abcd", "ef⟦⟧g"):
        corpus.append(make_task(p, p, baseline_program(backend, p), passing=True))
    always = evaluate(
        backend, corpus, AnchoringConfig(mode="fixed", omega=1.0, activation="always"), LIMITS
    )
    baseline = evaluate(backend, corpus, AnchoringConfig(mode="off"), LIMITS)
    assert all(r.error is None for r in always.records)
    assert always.pass_at_1 == baseline.pass_at_1


def test_on_failure_dominance(backend):
    rng = np.random.default_rng(11)
    for trial in range(3):
        corpus = []
        for i in range(10):
            p = random_marked_prompt(rng, backend.vocab)
            corpus.append(
                make_task(f"t{i}", p, baseline_program(backend, p), passing=bool(rng.integers(0, 2)))
            )
        base = evaluate(backend, corpus, AnchoringConfig(mode="off"), LIMITS)
        gated = evaluate(backend, corpus, FIXED, LIMITS)
        assert gated.pass_at_1 >= base.pass_at_1


def test_evaluate_enumerated_outcomes(backend):
    rng = np.random.default_rng(2)
    corpus = []
    want_pass = {}
    for i in range(30):
        p = random_marked_prompt(rng, backend.vocab)
        passing = bool(rng.integers(0, 2))
        tid = f"t{i:02d}"
        # anchored retry can rescue a failing task only if its output differs
        # AND passes; with the impossible expected output it never passes
        corpus.append(make_task(tid, p, baseline_program(backend, p), passing=passing))
        want_pass[tid] = passing
    report = evaluate(backend, corpus, FIXED, LIMITS)
    assert report.pass_at_1 == sum(want_pass.values()) / 30
    for record in report.records:
        assert record.final_passed == want_pass[record.task_id]


def test_evaluate_beam_pass_at_k(backend):
    rng = np.random.default_rng(8)
    corpus = [
        make_task(f"t{i}", random_marked_prompt(rng, backend.vocab), "d", passing=False)
        for i in range(4)
    ]
    # expected output unreachable, so every candidate fails at any k
    report = evaluate(backend, corpus, FIXED, DecodeLimits(4), beam_k=3)
    assert report.pass_at_1 == 0.0
    assert report.pass_at_k[3] == 0.0
    assert all(len(r.candidate_outcomes) == 3 for r in report.records)
    # where anchoring does not apply (mode off, or no anchored span) the
    # candidates come from a plain beam search: the omega = 1 oracle
    oracle = exhaustive_hybrid(backend, parse_markup("abc"), AnchoringConfig(omega=1.0), 3, DecodeLimits(4))
    outputs = [run_toy_program(backend.vocab.detokenize(t), "ab") for t, _ in oracle]
    plain = Task(id="plain", prompt="abc", entry_check=(("ab", outputs[1]),))
    for config in (FIXED, AnchoringConfig(mode="off")):
        report = evaluate(backend, corpus + [plain], config, DecodeLimits(4), beam_k=3)
        assert all(r.error is None for r in report.records)
        by_id = {r.task_id: r for r in report.records}
        assert by_id["plain"].candidate_outcomes == [out == outputs[1] for out in outputs]


def test_evaluate_records_per_task_errors(backend):
    good = [
        make_task(tid, p, baseline_program(backend, p), passing=True)
        for tid, p in (("good", "ab⟦cd⟧"), ("good2", "abc⟦de⟧f"), ("good3", "⟦a⟧bcdefg"))
    ]
    bad = [
        Task(id="bad", prompt="⟦@@@⟧", entry_check=(("a", "a"),)),  # untokenizable
        Task(id="unbalanced", prompt="ab⟦cd", entry_check=(("a", "a"),)),  # does not parse
    ]
    report = evaluate(backend, good + bad, FIXED, LIMITS)
    by_id = {r.task_id: r for r in report.records}
    assert by_id["good"].final_passed
    assert all(by_id[t.id].final_passed and by_id[t.id].error is None for t in good)
    for t in bad:
        assert by_id[t.id].error is not None and not by_id[t.id].final_passed
    # a task whose prompt does not resolve is left out of the length buckets
    assert sum(report.bucket_counts.values()) == len(good)


def count_harness_calls(monkeypatch, *names):
    """Wrap the named functions where harness looks them up; returns the
    live call counts by name."""
    calls = dict.fromkeys(names, 0)

    def counted(name, inner):
        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    return calls


def test_evaluate_checks_run_inputs_before_any_task(backend, monkeypatch):
    calls = count_harness_calls(monkeypatch, "parse_markup")
    corpus = [make_task(f"t{i}", p, "d") for i, p in enumerate(("ab⟦cd⟧", "abc⟦d⟧", "⟦a⟧bc"))]
    counting = CountingBackend(backend)
    for bad in ({"beam_k": 0}, {"beam_k": backend.vocab.size + 1}, {"timeout_ms": 0}):
        with pytest.raises(ValueError):
            evaluate(counting, corpus, FIXED, LIMITS, **bad)
    assert counting.calls == 0
    assert calls["parse_markup"] == 0  # no task started


def test_evaluate_resolves_each_prompt_once(backend, monkeypatch):
    calls = count_harness_calls(monkeypatch, "parse_markup", "resolve_anchors")
    prompts = ("ab⟦cd⟧", "abc⟦de⟧f", "⟦a⟧bcdefg", "abcd")
    corpus = [make_task(f"t{i}", p, baseline_program(backend, p)) for i, p in enumerate(prompts)]
    report = evaluate(backend, corpus, FIXED, LIMITS)
    assert calls == {"parse_markup": 4, "resolve_anchors": 4}
    assert sum(report.bucket_counts.values()) == 4


def test_evaluate_bucket_counts_sum(backend):
    rng = np.random.default_rng(4)
    corpus = [
        make_task(
            f"t{i}",
            random_marked_prompt(rng, backend.vocab, plain_len=1 + i % 5, anchored_len=2),
            baseline_program(
                backend, random_marked_prompt(np.random.default_rng(i), backend.vocab)
            ),
            passing=True,
        )
        for i in range(9)
    ]
    report = evaluate(backend, corpus, FIXED, LIMITS)
    assert sum(report.bucket_counts.values()) == 9


def test_evaluate_workers_order_independent(backend):
    rng = np.random.default_rng(13)
    corpus = []
    for i in range(8):
        p = random_marked_prompt(rng, backend.vocab)
        corpus.append(make_task(f"t{i}", p, baseline_program(backend, p), passing=(i % 3 != 0)))
    serial = evaluate(backend, corpus, FIXED, LIMITS, workers=1)
    parallel = evaluate(backend, corpus, FIXED, LIMITS, workers=4)
    assert [r.task_id for r in parallel.records] == [r.task_id for r in serial.records]
    assert [r.final_passed for r in parallel.records] == [r.final_passed for r in serial.records]


def test_report_json_and_csv(backend, tmp_path):
    p = "ab⟦cd⟧"
    corpus = [make_task("t0", p, baseline_program(backend, p), passing=True)]
    report = evaluate(backend, corpus, FIXED, LIMITS)
    doc = json.loads(report.to_json())
    assert doc["pass_at_1"] == 1.0
    assert doc["tasks"][0]["id"] == "t0"
    import io

    buf = io.StringIO()
    report.write_csv(buf)
    assert buf.getvalue().startswith("task_id,baseline_passed")
