import json
import os
import shlex
import sys
import time

import numpy as np
import pytest

from anchored_decoding import (
    AnchoringConfig,
    CountingBackend,
    DecodeLimits,
    ScoreResult,
    VocabSpec,
    beam_search_anchored,
    greedy_decode,
    parse_markup,
    resolve_anchors,
)
from anchored_decoding import harness
from anchored_decoding.harness import (
    EvalReport,
    Task,
    TaskRecord,
    bucket_by_length,
    evaluate,
    load_corpus,
    pass_at_k,
    run_tests,
    run_toy_program,
    task_from_dict,
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


def test_corpus_round_trip(tmp_path):
    tasks = [
        Task(
            id=f"t{i}",
            prompt=f"ab⟦{chr(99 + i)}⟧",
            entry_check=(("ab", "abab"),) if i % 2 else (),
            tests=({"cmd": "exit 0", "file": "p.txt"},),
            difficulty=["easy", "medium", "hard"][i % 3],
        )
        for i in range(20)
    ]
    lines = [
        json.dumps({
            "id": t.id,
            "prompt": t.prompt,
            "tests": list(t.tests),
            # a null entry_check, as older corpora wrote for a task without one, loads as none
            "entry_check": [{"in": a, "out": b} for a, b in t.entry_check] or None,
            "difficulty": t.difficulty,
        })
        for t in tasks
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("\n\n".join(lines) + "\n \n", encoding="utf-8")  # blank lines are skipped
    assert load_corpus(path) == tasks


def test_unknown_task_field_rejected():
    with pytest.raises(ValueError, match="unknown"):
        task_from_dict({"id": "x", "prompt": "p", "tests": [], "entry_check": None, "wat": 1})
    with pytest.raises(ValueError, match="unknown task fields: \\['meta'\\]"):
        task_from_dict({"id": "x", "prompt": "p", "tests": [{"cmd": "exit 0"}], "meta": {"n": 1}})
    # fields are checked, never coerced: a numeric id or prompt is not its digits
    for bad, named in (({"id": 7}, "id and prompt"), ({"prompt": 12}, "id and prompt"), ({"difficulty": 3}, "difficulty")):
        with pytest.raises(ValueError, match=named):
            task_from_dict({"id": "x", "prompt": "p", "entry_check": [{"in": "ab", "out": "ab"}], **bad})


def test_task_needs_some_check():
    with pytest.raises(ValueError):
        Task(id="x", prompt="p")


@pytest.mark.parametrize(
    "fields",
    [
        {"tests": [{"cmd": "exit 0", "file": "/tmp/escape.txt"}]},
        {"tests": [{"cmd": "exit 0", "file": "../escape.txt"}]},
        {"tests": [{"cmd": "exit 0", "file": "sub/p.txt"}]},
        {"tests": [{"cmd": "exit 0", "file": ".."}]},
        {"tests": [{"cmd": "exit 0", "file": 3}]},
        {"tests": [{"file": "a"}]},
        {"tests": [{"cmd": ["exit", "0"]}]},
        {"tests": "abc"},
        {"tests": [["exit 0"]]},
        {"entry_check": [{"in": 1, "out": "a"}]},
        {"entry_check": [{"in": "a", "out": None}]},
        {"entry_check": [{"in": "a", "out": "a", "note": "x"}]},
        {"entry_check": [{"in": "a"}]},
        {"entry_check": [["a", "a"]]},
        {"prompt": 12, "tests": [{"cmd": "exit 0"}]},
        {"difficulty": 3, "tests": [{"cmd": "exit 0"}]},
        {"tests": [{"cmd": "exit 0", "fil": "a.py"}]},
        {"tests": False, "entry_check": [{"in": "a", "out": "a"}]},
        {"tests": None, "entry_check": [{"in": "a", "out": "a"}]},
        {"tests": {}, "entry_check": [{"in": "a", "out": "a"}]},
        {"entry_check": 0, "tests": [{"cmd": "exit 0"}]},
        {"entry_check": "", "tests": [{"cmd": "exit 0"}]},
    ],
)
def test_malformed_tests_rejected_at_load(tmp_path, fields):
    # checked in Task itself, so a task built directly is checked too
    path = tmp_path / "c.jsonl"
    good = {"id": "ok", "prompt": "p", "tests": [{"cmd": "exit 0", "file": "p.txt"}]}
    path.write_text(json.dumps(good) + "\n" + json.dumps({"id": "bad", "prompt": "p", **fields}) + "\n")
    with pytest.raises(ValueError, match=":2: task 'bad'"):
        load_corpus(path)


def test_test_file_stays_in_sandbox(tmp_path):
    with pytest.raises(ValueError, match="plain file name"):
        Task(id="t", prompt="p", tests=({"cmd": "exit 0", "file": str(tmp_path / "escape.txt")},))
    assert not (tmp_path / "escape.txt").exists()
    task = Task(id="t", prompt="p", tests=({"cmd": "test -s solution.txt"},))  # file defaults to solution.txt
    assert run_tests("x", task).passed


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
    # stdout and stderr come back in one record
    for cmd, output in (("exit 3", ""), ("echo to-out; echo to-err >&2; exit 3", "to-out\nto-err\n")):
        task = Task(id="t", prompt="p", tests=({"cmd": cmd, "file": "sol.txt"},))
        result = run_tests("x", task)
        assert not result.passed
        assert result.outcomes[0].exit_status == 3
        assert result.outcomes[0].output == output


def test_run_tests_sees_program_file():
    task = Task(id="t", prompt="p", tests=({"cmd": "grep -q hello sol.txt", "file": "sol.txt"},))
    assert run_tests("hello world", task).passed
    assert not run_tests("goodbye", task).passed


def test_run_tests_timeout():
    task = Task(id="t", prompt="p", tests=({"cmd": "sleep 2", "file": "s.txt"},))
    result = run_tests("x", task, timeout_ms=200)
    assert result.timed_out and not result.passed
    # a chatty test fills its output file to MAX_FILE_BYTES and fails there, before
    # its timeout, keeping only the head of what it wrote
    task = Task(id="t", prompt="p", tests=({"cmd": "yes", "file": "s.txt"},))
    result = run_tests("x", task, timeout_ms=2000)
    assert not result.passed and not result.timed_out
    output = result.outcomes[0].output
    assert len(output) <= harness.MAX_OUTPUT_BYTES and set(output.split()) <= {"y"}


def test_run_tests_bounds_every_file_written():
    cmd = f"head -c {2 * harness.MAX_FILE_BYTES} /dev/zero > big; wc -c < big"
    task = Task(id="t", prompt="p", tests=({"cmd": cmd, "file": "s.txt"},))
    result = run_tests("x", task, timeout_ms=2000)
    assert not result.timed_out
    assert int(result.outcomes[0].output.split()[-1]) <= harness.MAX_FILE_BYTES


# both forms of _OWN_GROUP, whatever this interpreter picks
own_group_forms = pytest.mark.parametrize(
    "own_group",
    [
        pytest.param(
            {"process_group": 0},
            marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="Popen(process_group=) needs Python 3.11"),
            id="process_group",
        ),
        pytest.param({"preexec_fn": os.setpgrp}, id="preexec_fn"),
    ],
)


@own_group_forms
def test_run_tests_timeout_kills_background_processes(tmp_path, monkeypatch, own_group):
    monkeypatch.setattr(harness, "_OWN_GROUP", own_group)
    pid_file = tmp_path / "pid"
    cmd = f"sleep 5 & echo $! > {pid_file}; wait"
    task = Task(id="t", prompt="p", tests=({"cmd": cmd, "file": "s.txt"},))
    result = run_tests("x", task, timeout_ms=200)
    assert result.timed_out and not result.passed
    _assert_gone(int(pid_file.read_text()), "outlived its timeout")


@own_group_forms
def test_run_tests_pass_kills_background_processes(tmp_path, monkeypatch, own_group):
    monkeypatch.setattr(harness, "_OWN_GROUP", own_group)
    # without a redirect the sleep holds the test's output open: the test still ends when its shell exits
    for i, redirect in enumerate((" >/dev/null 2>&1", "")):
        pid_file = tmp_path / f"pid{i}"
        cmd = f"sleep 30{redirect} & echo $! > {pid_file}; exit 0"
        task = Task(id="t", prompt="p", tests=({"cmd": cmd, "file": "s.txt"},))
        start = time.monotonic()
        result = run_tests("x", task, timeout_ms=2000)
        assert time.monotonic() - start < 1.0, redirect
        assert result.passed and not result.timed_out and result.outcomes[0].exit_status == 0
        _assert_gone(int(pid_file.read_text()), "outlived a passing test")


def _assert_gone(pid, why):
    deadline = time.monotonic() + 2.0
    while _process_alive(pid):
        assert time.monotonic() < deadline, f"test process {pid} {why}"
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
        slow = Task(id="t", prompt="p", tests=({"cmd": "touch scratch.txt; sleep 2", "file": "s.txt"},))
        assert run_tests("x", slow, timeout_ms=200).timed_out  # its sandbox goes too
    finally:
        del os.environ["ANCHOR_SANDBOX_DIR"]
    assert os.getcwd() == cwd
    assert list(tmp_path.iterdir()) == []  # sandbox directory deleted


def test_run_tests_bad_timeout():
    task = Task(id="t", prompt="p", entry_check=(("a", "a"),))
    for bad in (0, True, 2.5):  # an int, never a bool, as every count
        with pytest.raises(ValueError):
            run_tests("x", task, timeout_ms=bad)


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
    # k follows the int rule with a floor of 1
    for k in (True, 1.5, "1"):
        with pytest.raises(ValueError, match="k must be an int"):
            pass_at_k([[True]], k)


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
    always = evaluate(backend, corpus, AnchoringConfig(mode="fixed", omega=1.0), LIMITS, activation="always")
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


def test_evaluate_tests_each_program_once(backend, tmp_path):
    # at omega 1 the anchored decode emits the failed baseline's program again:
    # the anchored pass is decoded, but its tests do not run a second time
    counter = tmp_path / "runs"
    rng = np.random.default_rng(3)
    corpus = [
        Task(id=f"t{i}", prompt=random_marked_prompt(rng, backend.vocab),
             tests=({"cmd": f"echo t{i} >> {shlex.quote(str(counter))}; false"},))
        for i in range(4)
    ]
    counting = CountingBackend(backend)
    report = evaluate(counting, corpus, AnchoringConfig(mode="fixed", omega=1.0), LIMITS, workers=2)
    assert counting.masked_calls > 0  # the anchored decode ran
    assert sorted(counter.read_text().split()) == [t.id for t in corpus]
    for r in report.records:  # as when both passes ran their tests
        assert (r.baseline_passed, r.anchored_passed, r.final_passed) == (False, False, False)
        assert r.candidate_outcomes == [False] and r.error is None


class ScriptedBackend:
    """Toy-vocabulary stub whose logits depend on the generated text only:
    'a' first, then the stop token just ahead of the mask token. A width-3
    beam over two new tokens ends on a+stop, a+mask and bc: the first two
    are one program, "a"."""

    vocab = VocabSpec.toy(16)
    max_positions = 64
    prompt_len = 3

    def score(self, context, mask_positions=frozenset(), want_attention=False):
        logits = np.full(self.vocab.size, -10.0)
        generated = self.vocab.detokenize(context[self.prompt_len:])
        if generated == "":
            logits[[2, 3]] = 5.0, 0.0  # 'a', 'b'
        elif generated == "a":
            logits[[1, 0]] = 5.0, 4.0  # stop, mask
        else:
            logits[4] = 0.0  # 'c'
        return ScoreResult(logits=logits)


def test_evaluate_beam_tests_each_program_once(tmp_path):
    counter = tmp_path / "runs"
    cmd = f"echo run >> {shlex.quote(str(counter))}; test \"$(cat solution.txt)\" = a"
    task = Task(id="t", prompt="ab⟦c⟧", tests=({"cmd": cmd},))
    backend = ScriptedBackend()
    limits = DecodeLimits(2)
    candidates = beam_search_anchored(backend, parse_markup(task.prompt), FIXED, 3, limits)
    assert [backend.vocab.detokenize(c.tokens) for c in candidates] == ["a", "a", "bc"]
    assert candidates[0].tokens != candidates[1].tokens
    report = evaluate(backend, [task], FIXED, limits, beam_k=3)
    assert report.records[0].candidate_outcomes == [True, True, False]
    assert report.pass_at_k == {1: 1.0, 3: 1.0}
    assert counter.read_text().split() == ["run", "run"]  # one run per distinct program


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


def test_evaluate_records_overlong_prompt_error():
    backend = make_backend(max_positions=6)
    task = make_task("long", "abc⟦de⟧fg", "d")  # 7 prompt tokens
    for kw in ({}, {"activation": "always"}, {"beam_k": 2}):
        [record] = evaluate(backend, [task], FIXED, LIMITS, **kw).records
        assert record.error == "prompt length 7 exceeds max_positions 6" and not record.final_passed


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
    for bad in (
        {"beam_k": 0}, {"beam_k": backend.vocab.size + 1}, {"timeout_ms": 0}, {"workers": 0}, {"workers": -1},
        {"beam_k": 1.5}, {"beam_k": True}, {"workers": 1.5}, {"workers": True},  # counts are ints, never bools
        {"timeout_ms": True}, {"timeout_ms": 2.5}, {"activation": "sometimes"},
    ):
        with pytest.raises(ValueError):
            evaluate(counting, corpus, FIXED, LIMITS, **bad)
    for bad in ({"open_delim": ""}, {"close_delim": ""}, {"open_delim": "|", "close_delim": "|"}):
        with pytest.raises(ValueError, match="non-empty and differ"):
            evaluate(counting, corpus, FIXED, LIMITS, **bad)
    with pytest.raises(ValueError, match="top_k"):
        evaluate(counting, corpus, AnchoringConfig(mode="fixed", omega=1.25, top_k=backend.vocab.size + 1), LIMITS)
    with pytest.raises(ValueError, match="duplicate task ids"):  # 4 tasks, 3 ids
        evaluate(counting, corpus + [make_task("t1", "abcd", "d")], FIXED, LIMITS)
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
    for workers in (2, 4):  # the whole report, not only ids and outcomes
        report = evaluate(backend, corpus, FIXED, LIMITS, workers=workers)
        assert report.records == serial.records
        assert report.pass_at_k == serial.pass_at_k
        assert report.bucket_counts == serial.bucket_counts and sum(report.bucket_counts.values()) == 8
        assert report.bucket_pass1 == serial.bucket_pass1


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


def test_report_json_and_csv_bytes():
    # the bytes eval --json, --out and --csv write: key names and order, indentation, pass_at_k's string keys
    report = EvalReport(
        records=[
            TaskRecord("a", False, True, True, [True], 5),
            TaskRecord("b", None, None, False, [False, False], 0, error="unterminated anchored span"),
        ],
        pass_at_1=0.5,
        pass_at_k={1: 0.5, 3: 1.0},
        bucket_pass1={"Short": 1.0, "Long": 0.0},
        bucket_counts={"Short": 1, "Medium": 0, "Long": 1},
        wall_seconds=0.25,
    )
    assert report.to_json() == """{
  "tasks": [
    {
      "id": "a",
      "baseline_passed": false,
      "anchored_passed": true,
      "final_passed": true,
      "candidates": [
        true
      ],
      "generated_len": 5,
      "error": null
    },
    {
      "id": "b",
      "baseline_passed": null,
      "anchored_passed": null,
      "final_passed": false,
      "candidates": [
        false,
        false
      ],
      "generated_len": 0,
      "error": "unterminated anchored span"
    }
  ],
  "pass_at_1": 0.5,
  "pass_at_k": {
    "1": 0.5,
    "3": 1.0
  },
  "bucket_pass1": {
    "Short": 1.0,
    "Long": 0.0
  },
  "bucket_counts": {
    "Short": 1,
    "Medium": 0,
    "Long": 1
  },
  "wall_seconds": 0.25
}"""
    import io

    buf = io.StringIO()
    report.write_csv(buf)
    assert buf.getvalue() == (
        "task_id,baseline_passed,anchored_passed,final_passed\r\n"
        "a,False,True,True\r\n"
        "b,,,False\r\n"
    )


def test_report_numpy_beam_k(backend):
    # a numpy int is an int by the int rule; the report still writes its pass@k key
    p = "ab⟦cd⟧"
    corpus = [make_task("t0", p, baseline_program(backend, p), passing=True)]
    report = evaluate(backend, corpus, FIXED, LIMITS, beam_k=np.int64(2))
    assert list(report.pass_at_k) == [1, 2]
    assert list(json.loads(report.to_json())["pass_at_k"]) == ["1", "2"]
