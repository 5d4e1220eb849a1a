import json

import numpy as np
import pytest

from anchored_decoding import __version__
from anchored_decoding.cli import main
from anchored_decoding.harness import Task, write_corpus

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


def test_conflicting_flags_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "generate", "--backend", BACKEND, "--prompt", "⟦a⟧",
        "--mode", "confidence", "--omega", "1.5",
    )
    assert code == 1
    assert "--omega" in err and "confidence" in err


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


def test_unknown_backend_usage_error(capsys):
    code, _, err = run_cli(capsys, "generate", "--backend", "gpu:0", "--prompt", "⟦a⟧")
    assert code == 1


def test_missing_corpus_runtime_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--backend", BACKEND, "--corpus", "/nope.jsonl")
    assert code == 2


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
        tasks.append(Task(id=f"t{i}", prompt=prompt, entry_check=(("ab", expected),)))
    path = tmp_path / "corpus.jsonl"
    write_corpus(tasks, path)
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


def test_eval_human_and_json_agree(capsys, tmp_path):
    corpus = eval_corpus(tmp_path)
    code, json_out, _ = run_cli(
        capsys, "eval", "--backend", BACKEND, "--corpus", str(corpus), "--max-new", "8", "--json"
    )
    code2, human_out, _ = run_cli(
        capsys, "eval", "--backend", BACKEND, "--corpus", str(corpus), "--max-new", "8"
    )
    assert code == code2 == 0
    assert f"pass@1: {json.loads(json_out)['pass_at_1']:.3f}" in human_out


def test_generate_and_eval_over_remote_match_local(capsys, tmp_path):
    from anchored_decoding import LogitServer
    from anchored_decoding.cli import _build_backend

    # the CLI default backend, served: generate needs its surface strings
    with LogitServer(_build_backend("toy:seed=0", None)) as server:
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

    def fake_evaluate(backend, tasks, config, limits, **kw):
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
    code, _, err = run_cli(capsys, "analyze", "gradients", "--backend", BACKEND, "--prompt", "")
    assert code == 2
    assert "non-empty" in err


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
