import argparse
import json
import socket

import numpy as np
import pytest

from anchored_decoding import LogitServer, RemoteBackend, __version__
from anchored_decoding.attention_analysis import gradient_attention
from anchored_decoding.cli import _build_backend, build_parser, main

from conftest import make_backend

BACKEND = "toy:seed=7:vocab=16:dim=16:layers=2:heads=2"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_generate_default_omega_is_the_config_default(capsys):
    # without --omega the CLI passes none, so AnchoringConfig's default (1.25)
    # applies; on this prompt omega 1 and 1.5 decode other tokens
    tokens = {}
    for omega in (None, "1", "1.25", "1.5"):
        flags = () if omega is None else ("--omega", omega)
        code, out, _ = run_cli(capsys, "generate", "--backend", BACKEND, "--prompt", "ehh⟦mjl⟧", "--json", *flags)
        assert code == 0
        tokens[omega] = json.loads(out)["tokens"]
    assert tokens[None] == tokens["1.25"]
    assert tokens["1.25"] not in (tokens["1"], tokens["1.5"])


def test_generate_omega_one_matches_plain(capsys):
    code, anchored_out, _ = run_cli(
        capsys, "generate", "--backend", BACKEND, "--prompt", "ab⟦cd⟧", "--omega", "1", "--json"
    )
    assert code == 0
    code, plain_out, _ = run_cli(
        capsys, "generate", "--backend", BACKEND, "--prompt", "abcd", "--mode", "off", "--json"
    )
    assert code == 0
    assert json.loads(anchored_out)["tokens"] == json.loads(plain_out)["tokens"]


def test_generate_matches_module_calls(capsys):
    from anchored_decoding import AnchoringConfig, DecodeLimits, anchored_decode, parse_markup

    code, out, _ = run_cli(
        capsys, "generate", "--backend", BACKEND, "--prompt", "ab⟦cd⟧", "--omega", "1.25", "--json"
    )
    assert code == 0
    backend = make_backend(seed=7, max_positions=256)
    trace = anchored_decode(
        backend, parse_markup("ab⟦cd⟧"), AnchoringConfig(mode="fixed", omega=1.25), DecodeLimits(64)
    )
    assert json.loads(out)["tokens"] == trace.generated_tokens
    # the text output says the same, with the decoded text
    code, out, _ = run_cli(capsys, "generate", "--backend", BACKEND, "--prompt", "ab⟦cd⟧", "--omega", "1.25")
    assert code == 0
    text = backend.vocab.detokenize(trace.generated_tokens)
    assert out == f"tokens: {trace.generated_tokens}\ntext: {text!r}\nfinished: {trace.finished_reason}\n"


def test_flags_have_no_default_but_the_cli_owned_ones():
    # a flag that sets a library parameter has no default (argparse.SUPPRESS):
    # absent, it sets no attribute, so the library's own default holds
    defaults = {}

    def walk(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, (*path, name))
            elif action.option_strings and not action.required and action.dest not in ("help", "version"):
                defaults[(*path, action.dest)] = action.default

    walk(build_parser(), ())
    owned = {key: default for key, default in defaults.items() if default is not argparse.SUPPRESS}
    backend, outputs = "toy:seed=0", {"out": None, "json": False}
    assert owned == {
        **{(*cmd, "backend"): backend for cmd in (["generate"], ["tune"], ["eval"], ["analyze", "dilution"],
                                                   ["analyze", "gradients"], ["serve"])},
        **{(*cmd, "max_new_tokens"): 32 for cmd in (["tune"], ["eval"], ["analyze", "dilution"])},
        ("generate", "trace"): None, ("generate", "attention"): False, ("generate", "json"): False,
        **{("tune", k): v for k, v in outputs.items()},
        **{("eval", k): v for k, v in outputs.items()}, ("eval", "csv"): None,
        **{("analyze", cmd, "out"): None for cmd in ("dilution", "gradients", "lengths")},
    }
    # every other flag is absent unless given
    args = build_parser().parse_args(["eval", "--corpus", "c.jsonl"])
    assert sorted(vars(args)) == ["backend", "command", "corpus", "csv", "json", "max_new_tokens", "out", "run"]


def test_conflicting_flags_usage_error(capsys):
    # --omega and --top-k are fixed-mode flags; mode off reads none
    for mode, flag in (("confidence", "--omega"), ("off", "--omega"), ("off", "--top-k")):
        code, _, err = run_cli(
            capsys, "generate", "--backend", BACKEND, "--prompt", "⟦a⟧",
            "--mode", mode, flag, "2",
        )
        assert code == 1
        assert f"{flag} conflicts with --mode {mode}" in err


def test_lambda_with_fixed_mode_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "generate", "--backend", BACKEND, "--prompt", "⟦a⟧", "--lambda", "0.5"
    )
    assert code == 1
    assert "--lambda" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--top-k", "0"],
        ["--mode", "confidence", "--top-k", "2"],
        ["--mode", "confidence", "--lambda", "-1"],
        ["--mode", "confidence", "--lambda", "nan"],
        ["--mode", "confidence", "--lambda", "inf"],
    ],
)
def test_invalid_config_is_usage_error(capsys, tmp_path, flags):
    corpus = str(eval_corpus(tmp_path))
    for command in (
        ["generate", "--prompt", "ab⟦cd⟧"],
        ["eval", "--corpus", corpus, "--max-new", "8"],
        ["analyze", "dilution", "--prompt", "ab⟦cd⟧"],
    ):
        code, out, err = run_cli(capsys, *command, "--backend", BACKEND, *flags)
        assert code == 1, (command, err)
        assert err.startswith("error: ") and out == ""


def test_seed_flag_is_gone(capsys):
    # the toy seed is a backend option: toy:seed=N
    code, out, err = run_cli(capsys, "generate", "--backend", BACKEND, "--prompt", "ab⟦cd⟧", "--seed", "3")
    assert code == 1 and out == "" and "--seed" in err


def test_unknown_backend_usage_error(capsys):
    code, _, err = run_cli(capsys, "generate", "--backend", "gpu:0", "--prompt", "⟦a⟧")
    assert code == 1
    # an unknown toy option, a non-integer value, a non-integer port, and
    # integer values the model config or the toy vocabulary rejects
    cases = (
        ("toy:sed=3:vocab=16", "sed=3"),
        ("toy:seed=x", "seed=x"),
        ("remote:127.0.0.1:x", "remote"),
        ("toy:layers=9", "layers=9"),
        ("toy:vocab=2", "vocab=2"),
    )
    for selector, named in cases:
        code, out, err = run_cli(capsys, "generate", "--backend", selector, "--prompt", "⟦a⟧")
        assert code == 1 and out == "" and named in err, (selector, err)


def test_eval_top_k_above_vocab_exits_before_any_task(capsys, tmp_path):
    corpus = str(eval_corpus(tmp_path))
    code, out, err = run_cli(capsys, "eval", "--backend", BACKEND, "--corpus", corpus, "--top-k", "17")
    assert code == 2 and out == "" and "top_k must be in 1..16" in err


def test_bad_delimiters_exit_before_any_task(capsys, tmp_path):
    corpus = str(eval_corpus(tmp_path))
    pairs = (("|", "|"), ("[", "[["), ("<", "<<"), ("[[", "["))
    bad = [["--anchor-open", ""], ["--anchor-close", ""]] + [["--anchor-open", o, "--anchor-close", c] for o, c in pairs]
    for flags in bad:
        code, out, err = run_cli(capsys, "generate", "--backend", BACKEND, "--prompt", "ab", *flags)
        assert code == 2 and out == "" and "non-empty and differ" in err
        code, out, err = run_cli(capsys, "eval", "--backend", BACKEND, "--corpus", corpus, *flags)
        assert code == 2 and out == "" and "non-empty and differ" in err


def test_serve_stops_on_interrupt(capsys, monkeypatch):
    served = []

    def interrupted(server):
        with RemoteBackend(*server.address) as rb:
            served.append((server.address, rb.vocab.size))
        raise KeyboardInterrupt

    monkeypatch.setattr(LogitServer, "wait", interrupted)
    code, out, _ = run_cli(capsys, "serve", "--backend", BACKEND)
    (address, size), = served
    assert code == 0 and out == "serving on {}:{}\n".format(*address) and size == 16
    with pytest.raises(OSError):  # stopped and closed
        socket.create_connection(address, timeout=1).close()


def test_missing_corpus_runtime_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--backend", BACKEND, "--corpus", "/nope.jsonl")
    assert code == 2


def test_eval_nonpositive_workers_exits_before_any_task(capsys, tmp_path):
    corpus = str(eval_corpus(tmp_path))
    for workers in ("0", "-2"):
        code, out, err = run_cli(capsys, "eval", "--backend", BACKEND, "--corpus", corpus, "--workers", workers)
        assert code == 2 and out == "" and "workers" in err


def test_serve_port_out_of_range_exits_before_binding(capsys):
    for port in ("70000", "65536", "-1"):
        code, out, err = run_cli(capsys, "serve", "--backend", BACKEND, "--port", port)
        assert code == 2 and out == "" and f"port must be an int in 0..65535, not {port}" in err, (port, err)


def test_generate_trace_file(capsys, tmp_path):
    trace_path = tmp_path / "trace.ndjson"
    code, _, _ = run_cli(
        capsys, "generate", "--backend", BACKEND, "--prompt", "ab⟦cd⟧",
        "--omega", "1.25", "--attention", "--trace", str(trace_path), "--json",
    )
    assert code == 0
    lines = trace_path.read_text().strip().split("\n")
    step0 = json.loads(lines[0])
    assert step0["step"] == 0
    assert step0["alpha"] == "1"  # all-prompt context at the first step


def eval_corpus(tmp_path):
    backend = make_backend(seed=7, max_positions=256)
    from anchored_decoding import DecodeLimits, greedy_decode, parse_markup, resolve_anchors
    from anchored_decoding.harness import run_toy_program

    tasks = []
    rng = np.random.default_rng(0)
    for i in range(6):
        from conftest import random_marked_prompt

        prompt = random_marked_prompt(rng, backend.vocab)
        tokens, _ = resolve_anchors(parse_markup(prompt), backend.vocab)
        program = backend.vocab.detokenize(greedy_decode(backend, tokens, DecodeLimits(8)).generated_tokens)
        expected = run_toy_program(program, "ab") if i % 2 == 0 else "@@no@@"
        tasks.append({"id": f"t{i}", "prompt": prompt, "entry_check": [{"in": "ab", "out": expected}]})
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(t) + "\n" for t in tasks), encoding="utf-8")
    return path


def test_eval_json_output(capsys, tmp_path):
    corpus = eval_corpus(tmp_path)
    code, out, _ = run_cli(
        capsys, "eval", "--backend", BACKEND, "--corpus", str(corpus), "--max-new", "8", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass_at_1"] == 0.5
    assert len(doc["tasks"]) == 6


def test_eval_activation_always(capsys, tmp_path):
    corpus = eval_corpus(tmp_path)
    with open(corpus, "a", encoding="utf-8") as fp:  # a prompt with no anchored span
        fp.write(json.dumps({"id": "plain", "prompt": "abcd", "entry_check": [{"in": "ab", "out": "ab"}]}) + "\n")
    docs = {}
    for flags in ((), ("--activation", "on_test_failure"), ("--activation", "always")):
        code, out, _ = run_cli(
            capsys, "eval", "--backend", BACKEND, "--corpus", str(corpus), "--max-new", "8", "--json", *flags
        )
        assert code == 0
        docs[flags[1:]] = {t["id"]: t for t in json.loads(out)["tasks"]}
    default, gated, always = docs.values()
    assert default == gated  # on_test_failure is evaluate's default
    assert all(t["baseline_passed"] is not None for t in gated.values())
    for task_id, task in always.items():
        if task_id == "plain":  # anchoring does not apply: the greedy baseline under either policy
            assert task == gated["plain"] and task["baseline_passed"] is not None and task["anchored_passed"] is None
        else:  # the anchored pass only
            assert task["baseline_passed"] is None and task["anchored_passed"] == task["final_passed"]


@pytest.mark.parametrize("activation", ["always", "on_test_failure"])
def test_eval_beam_refuses_activation(capsys, tmp_path, activation):
    # a beam run tests its candidates, with no baseline for the policy to gate on
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "eval", "--backend", BACKEND, "--corpus", str(eval_corpus(tmp_path)), "--max-new", "8",
        "--beam", "2", "--activation", activation, "--out", str(out_path),
    )
    assert code == 1 and out == ""
    assert "--activation" in err and "--beam" in err
    assert not out_path.exists()


def test_eval_human_and_json_agree(capsys, tmp_path):
    corpus = eval_corpus(tmp_path)
    code, json_out, _ = run_cli(
        capsys, "eval", "--backend", BACKEND, "--corpus", str(corpus), "--max-new", "8", "--json"
    )
    csv_path = tmp_path / "report.csv"
    code2, human_out, _ = run_cli(
        capsys, "eval", "--backend", BACKEND, "--corpus", str(corpus), "--max-new", "8", "--csv", str(csv_path)
    )
    assert code == code2 == 0
    assert f"pass@1: {json.loads(json_out)['pass_at_1']:.3f}" in human_out
    # the CSV summary holds the same per-task outcomes
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "task_id,baseline_passed,anchored_passed,final_passed"
    tasks = json.loads(json_out)["tasks"]
    assert [row.split(",")[::3] for row in rows[1:]] == [[t["id"], str(t["final_passed"])] for t in tasks]


def test_generate_and_eval_over_remote_match_local(capsys, tmp_path):
    from anchored_decoding import LogitServer
    from anchored_decoding.cli import _build_backend

    # the CLI default backend, served: generate needs its surface strings
    with LogitServer(_build_backend("toy:seed=0")) as server:
        remote = "remote:{}:{}".format(*server.address)
        code, remote_out, err = run_cli(capsys, "generate", "--backend", remote, "--prompt", "ab⟦cd⟧", "--json")
        assert code == 0, err
        code, local_out, _ = run_cli(capsys, "generate", "--prompt", "ab⟦cd⟧", "--json")
        assert code == 0
        assert json.loads(remote_out) == json.loads(local_out)
        assert json.loads(remote_out)["text"]
    corpus = str(eval_corpus(tmp_path))
    with LogitServer(make_backend(seed=7, max_positions=256)) as server:
        remote = "remote:{}:{}".format(*server.address)
        reports = []
        for backend in (remote, BACKEND):
            code, out, err = run_cli(capsys, "eval", "--backend", backend, "--corpus", corpus, "--max-new", "8", "--json")
            assert code == 0, err
            reports.append({k: v for k, v in json.loads(out).items() if k != "wall_seconds"})
    assert reports[0] == reports[1]
    assert all(task["error"] is None for task in reports[0]["tasks"])


def test_tune_finds_fixture_peak(capsys, tmp_path, monkeypatch):
    # synthetic unimodal evaluator wired under the CLI's tune path
    import anchored_decoding.cli as cli_mod

    corpus = eval_corpus(tmp_path)
    out_path = tmp_path / "tune.json"

    calls = []
    activations = set()

    def fake_evaluate(backend, tasks, config, limits, **kw):
        calls.append((config.omega, len(tasks)))
        activations.add(kw["activation"])

        class R:
            pass_at_1 = 1.0 - abs(config.omega - 1.35)

        return R()

    monkeypatch.setattr(cli_mod, "evaluate", fake_evaluate)
    code, out, _ = run_cli(
        capsys, "tune", "--backend", BACKEND, "--corpus", str(corpus),
        "--folds", "3", "--out", str(out_path), "--json",
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["recommended"] == 1.35
    assert json.loads(out) == doc
    assert activations == {"always"}  # tuning anchors every task
    # the spec flags: every grid value is tried (no early exit past the peak),
    # on two folds' tasks (4 of 6) per fold, then the best on the third
    calls.clear()
    grid = "1.0,1.35,1.4,1.45,1.5"
    code, out, _ = run_cli(
        capsys, "tune", "--backend", BACKEND, "--corpus", str(corpus), "--folds", "3",
        "--grid", grid, "--no-early-exit", "--invert-folds", "--json",
    )
    assert code == 0 and json.loads(out)["grid"] == [1.0, 1.35, 1.4, 1.45, 1.5]
    per_fold = [(float(w), 4) for w in grid.split(",")] + [(1.35, 2)]
    assert calls == per_fold * 3
    # an empty or non-numeric grid item is an error that names --grid
    for bad in ("", ",", "1.0,x"):
        code, out, err = run_cli(capsys, "tune", "--backend", BACKEND, "--corpus", str(corpus), "--grid", bad)
        assert code == 2 and out == "" and "--grid" in err, (bad, err)
    # a non-finite grid value is refused before any evaluation
    calls.clear()
    code, out, err = run_cli(capsys, "tune", "--backend", BACKEND, "--corpus", str(corpus), "--grid", "1.0,nan")
    assert code == 2 and out == "" and "finite" in err and calls == []
    # as is a negative seed, which would deal the folds its absolute value deals
    code, out, err = run_cli(capsys, "tune", "--backend", BACKEND, "--corpus", str(corpus), "--tune-seed", "-1")
    assert code == 2 and out == "" and "seed must be an int >= 0" in err and calls == []


def test_analyze_dilution_csv(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        capsys, "analyze", "dilution", "--backend", BACKEND, "--prompt", "ab⟦cd⟧",
        "--max-new", "6", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0].strip() == "step,alpha"
    assert float(lines[1].split(",")[1]) == 1.0


def test_analyze_gradients_csv(capsys, tmp_path):
    out_path = tmp_path / "grad.csv"
    code, _, _ = run_cli(
        capsys, "analyze", "gradients", "--backend", BACKEND, "--prompt", "abcd",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "position,score"
    assert len(lines) == 5
    # plain decimals, each the float gradient_attention computed
    backend = _build_backend(BACKEND)
    want = gradient_attention(backend, backend.vocab.tokenize("abcd")).tolist()
    assert [line.split(",") for line in lines[1:]] == [[str(i), repr(w)] for i, w in enumerate(want)]
    assert [float(line.split(",")[1]) for line in lines[1:]] == want
    assert all(line.endswith(b"\r\n") for line in out_path.read_bytes().splitlines(keepends=True))  # as csv writes
    code, _, err = run_cli(capsys, "analyze", "gradients", "--backend", BACKEND, "--prompt", "")
    assert code == 2
    assert "non-empty" in err
    for delta in ("0", "-0.001", "nan", "inf"):
        bad_path = tmp_path / f"bad{delta}.csv"
        code, _, err = run_cli(
            capsys, "analyze", "gradients", "--backend", BACKEND, "--prompt", "abcd", "--delta", delta,
            "--out", str(bad_path),
        )
        assert code == 2 and "delta" in err
        assert not bad_path.exists()
    # the library holds delta to the rule for a strength: a finite real number, no bool
    for delta in (0, -1e-3, float("nan"), float("inf"), True, None, "0.1", [1], 10**400):
        with pytest.raises(ValueError, match="delta must be finite and > 0"):
            gradient_attention(backend, backend.vocab.tokenize("abcd"), delta)


def test_analyze_lengths_csv(capsys, tmp_path):
    corpus = eval_corpus(tmp_path)
    report_path = tmp_path / "report.json"
    run_cli(
        capsys, "eval", "--backend", BACKEND, "--corpus", str(corpus),
        "--max-new", "8", "--out", str(report_path),
    )
    out_path = tmp_path / "lengths.csv"
    code, _, _ = run_cli(
        capsys, "analyze", "lengths", "--report", str(report_path), "--corpus", str(corpus),
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0].strip() == "group,status,mean,median,count"
    assert len(lines) >= 3
    # a report that is not an EvalReport is a runtime error naming the report
    task = json.loads(report_path.read_text())["tasks"][0]
    # and so is a task without generated_len, or with a field of a type EvalReport.to_json does not write
    wrong = (
        ("final_passed", "false"), ("generated_len", 2.5), ("generated_len", True), ("generated_len", -1), ("id", 5)
    )
    tasks = [{k: v for k, v in task.items() if k != "generated_len"}] + [dict(task, **{k: v}) for k, v in wrong]
    for doc in ({}, [], "tasks", {"tasks": 3}, *({"tasks": [t]} for t in tasks)):
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "analyze", "lengths", "--report", str(bad_path), "--corpus", str(corpus))
        assert code == 2 and out == "" and str(bad_path) in err, (doc, err)
    # a report of another corpus: a task whose id the corpus lacks has no difficulty to be bucketed by
    doc = json.loads(report_path.read_text())
    doc["tasks"][-1]["id"] = "not-in-corpus"
    bad_path.write_text(json.dumps(doc))
    out_path.unlink()
    code, out, err = run_cli(
        capsys, "analyze", "lengths", "--report", str(bad_path), "--corpus", str(corpus), "--out", str(out_path)
    )
    assert code == 2 and out == "" and "'not-in-corpus'" in err and str(corpus) in err
    assert not out_path.exists()
