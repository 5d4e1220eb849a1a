"""Command-line entry point: generate, tune, eval, analyze, serve.

Every subcommand is a thin composition of module operations; no decoding or
scoring logic lives here.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import __version__
from .anchoring import AnchoringConfig, parse_markup
from .attention_analysis import (
    dilution_curve,
    gradient_attention,
    length_stats,
    write_curve_csv,
    write_length_stats_csv,
)
from .decoding import DecodeLimits, anchored_decode, export_trace
from .errors import AnchorError
from .harness import evaluate, load_corpus
from .toy_model import ToyBackend, ToyModelConfig
from .tuning import TuneSpec, grid_search
from .vocab import VocabSpec
from .wire import LogitServer, RemoteBackend


# the default of each flag that sets a library parameter: an absent flag sets no attribute, so the call it
# reaches through _given gets only the flags given, and the library's own default holds for the rest
_UNSET = argparse.SUPPRESS


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_backend(selector: str):
    kind, _, rest = selector.partition(":")
    if kind == "toy":
        opts = {"seed": 0, "vocab": 32, "dim": 32, "layers": 2, "heads": 4, "max_positions": 256}
        for part in filter(None, rest.split(":")):
            key, _, val = part.partition("=")
            if key not in opts or not val.removeprefix("-").isdecimal():
                raise UsageError(f"bad toy backend option {part!r} (integer options: {', '.join(opts)})")
            opts[key] = int(val)
        try:
            return ToyBackend(ToyModelConfig(
                seed=opts["seed"], vocab=VocabSpec.toy(opts["vocab"]), embed_dim=opts["dim"], n_layers=opts["layers"],
                n_heads=opts["heads"], max_positions=opts["max_positions"],
            ))
        except ValueError as exc:  # an option value the model or vocabulary rejects
            raise UsageError(f"bad toy backend {selector!r}: {exc}") from exc
    if kind == "remote":
        host, _, port = rest.partition(":")
        if not host or not port.isdecimal():
            raise UsageError("remote backend needs remote:host:port")
        return RemoteBackend(host, int(port))
    raise UsageError(f"unknown backend selector {selector!r}")


# the AnchoringConfig fields each mode reads, and the flag that sets each field
_MODE_FIELDS = {"off": (), "fixed": ("omega", "top_k"), "confidence": ("lam",)}
_FIELD_FLAGS = {"omega": "--omega", "lam": "--lambda", "top_k": "--top-k"}
_DELIMITERS = ("open_delim", "close_delim")  # parse_markup's and evaluate's parameters


def _given(args, names) -> dict:
    """The flags among ``names`` (dests) given on the command line, for the call whose parameters they name."""
    return {name: getattr(args, name) for name in names if name in args}


def _anchoring_config(args) -> AnchoringConfig:
    mode = getattr(args, "mode", AnchoringConfig.mode)
    unread = [k for k in _given(args, _FIELD_FLAGS) if k not in _MODE_FIELDS[mode]]
    if unread:
        raise UsageError(f"{_FIELD_FLAGS[unread[0]]} conflicts with --mode {mode}")
    try:
        return AnchoringConfig(**_given(args, ("mode", *_FIELD_FLAGS)))
    except ValueError as exc:  # a config the flags describe is a usage error
        raise UsageError(str(exc)) from exc


def _add_backend_flags(p):
    p.add_argument("--backend", default="toy:seed=0", help="toy:seed=..:vocab=..:dim=.. or remote:host:port")


def _add_anchoring_flags(p):
    p.add_argument("--mode", choices=["off", "fixed", "confidence"], default=_UNSET)
    p.add_argument("--omega", type=float, default=_UNSET, help="anchoring strength (fixed mode)")
    p.add_argument("--lambda", dest="lam", type=float, default=_UNSET, help="strength coefficient (confidence mode)")
    p.add_argument("--top-k", type=int, default=_UNSET, help="combine only the top-k original logits")
    p.add_argument("--anchor-open", dest="open_delim", metavar="ANCHOR_OPEN", default=_UNSET)
    p.add_argument("--anchor-close", dest="close_delim", metavar="ANCHOR_CLOSE", default=_UNSET)


def build_parser() -> _Parser:
    parser = _Parser(prog="anchor-decode")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="decode one prompt")
    g.set_defaults(run=_cmd_generate)
    _add_backend_flags(g)
    _add_anchoring_flags(g)
    g.add_argument("--prompt", required=True, help="prompt text with anchor markup")
    g.add_argument("--max-new", dest="max_new_tokens", metavar="MAX_NEW", type=int, default=_UNSET)
    g.add_argument("--trace", help="write a per-step NDJSON trace here")
    g.add_argument("--attention", action="store_true", help="capture attention rows")
    g.add_argument("--json", action="store_true")

    t = sub.add_parser("tune", help="grid-search the anchoring strength on a corpus")
    t.set_defaults(run=_cmd_tune)
    _add_backend_flags(t)
    t.add_argument("--corpus", required=True)
    t.add_argument("--folds", type=int, default=_UNSET)
    t.add_argument("--tune-seed", dest="seed", metavar="TUNE_SEED", type=int, default=_UNSET)
    t.add_argument("--grid", default=_UNSET, help="comma-separated ascending omega values (must include 1.0)")
    t.add_argument("--no-early-exit", dest="early_exit", action="store_false", default=_UNSET)
    t.add_argument("--invert-folds", dest="invert", action="store_true", default=_UNSET,
                   help="tune on k-1 folds instead of 1")
    t.add_argument("--max-new", dest="max_new_tokens", metavar="MAX_NEW", type=int, default=32)
    t.add_argument("--timeout-ms", type=int, default=_UNSET)
    t.add_argument("--out", help="write the tune report JSON here")
    t.add_argument("--json", action="store_true")

    e = sub.add_parser("eval", help="evaluate a corpus")
    e.set_defaults(run=_cmd_eval)
    _add_backend_flags(e)
    _add_anchoring_flags(e)
    policy = e.add_mutually_exclusive_group()  # a beam run has no baseline to gate on
    policy.add_argument("--activation", choices=["always", "on_test_failure"], default=_UNSET)
    policy.add_argument("--beam", dest="beam_k", metavar="BEAM", type=int, default=_UNSET, help="beam width for Pass@k")
    e.add_argument("--corpus", required=True)
    e.add_argument("--max-new", dest="max_new_tokens", metavar="MAX_NEW", type=int, default=32)
    e.add_argument("--timeout-ms", type=int, default=_UNSET)
    e.add_argument("--workers", type=int, default=_UNSET)
    e.add_argument("--out", help="write the report JSON here")
    e.add_argument("--csv", help="write the per-task CSV summary here")
    e.add_argument("--json", action="store_true")

    a = sub.add_parser("analyze", help="attention and length instruments")
    asub = a.add_subparsers(dest="analysis", required=True)

    ad = asub.add_parser("dilution", help="attention-to-prompt curve for a prompt")
    ad.set_defaults(run=_cmd_dilution)
    _add_backend_flags(ad)
    _add_anchoring_flags(ad)
    ad.add_argument("--prompt", required=True)
    ad.add_argument("--max-new", dest="max_new_tokens", metavar="MAX_NEW", type=int, default=32)
    ad.add_argument("--out", help="CSV output path (default stdout)")

    ag = asub.add_parser("gradients", help="finite-difference token sensitivity")
    ag.set_defaults(run=_cmd_gradients)
    _add_backend_flags(ag)
    ag.add_argument("--prompt", required=True, help="plain prompt text (no markup)")
    ag.add_argument("--delta", type=float, default=_UNSET)
    ag.add_argument("--out", help="CSV output path (default stdout)")

    al = asub.add_parser("lengths", help="passed-vs-failed generation lengths")
    al.set_defaults(run=_cmd_lengths)
    al.add_argument("--report", required=True, help="EvalReport JSON from `eval --out`")
    al.add_argument("--corpus", required=True, help="corpus used to produce the report")
    al.add_argument("--out", help="CSV output path (default stdout)")

    s = sub.add_parser("serve", help="serve the toy backend over the wire protocol")
    s.set_defaults(run=_cmd_serve)
    _add_backend_flags(s)
    s.add_argument("--host", default=_UNSET)
    s.add_argument("--port", type=int, default=_UNSET)

    return parser


def _output(path):
    """Context manager for an output: the file at ``path``, or stdout without one."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def _emit(args, report, lines) -> None:
    """Write the report JSON to --out, then print it under --json, else the text ``lines``."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(report.to_json())
    print(report.to_json() if args.json else "\n".join(lines))


def _decode_prompt(args, backend, want_attention: bool):
    spec = parse_markup(args.prompt, **_given(args, _DELIMITERS))
    limits = DecodeLimits(**_given(args, ("max_new_tokens",)))
    return anchored_decode(backend, spec, _anchoring_config(args), limits, want_attention=want_attention)


def _cmd_generate(args, backend) -> int:
    trace = _decode_prompt(args, backend, want_attention=args.attention)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fp:
            export_trace(trace, fp)
    text = None
    if backend.vocab.token_strings is not None:
        text = backend.vocab.detokenize(trace.generated_tokens)
    if args.json:
        print(
            json.dumps(
                {
                    "tokens": trace.generated_tokens,
                    "text": text,
                    "finished_reason": trace.finished_reason,
                }
            )
        )
    else:
        print(f"tokens: {trace.generated_tokens}")
        if text is not None:
            print(f"text: {text!r}")
        print(f"finished: {trace.finished_reason}")
    return 0


def _cmd_tune(args, backend) -> int:
    corpus = load_corpus(args.corpus)
    by_id = {t.id: t for t in corpus}
    limits = DecodeLimits(args.max_new_tokens)
    given = _given(args, ("grid", "folds", "seed", "early_exit", "invert"))
    if "grid" in given:  # an empty --grid is given, and rejected
        try:
            given["grid"] = tuple(float(x) for x in args.grid.split(","))
        except ValueError:
            raise ValueError(f"--grid {args.grid!r} must be comma-separated numbers") from None
    spec = TuneSpec(**given)

    def evaluator(omega, task_ids):
        # tuning anchors every task; failure gating is an inference-time policy
        config = AnchoringConfig(mode="fixed", omega=omega)
        tasks = [by_id[t] for t in task_ids]
        report = evaluate(backend, tasks, config, limits, activation="always", **_given(args, ("timeout_ms",)))
        return report.pass_at_1

    report = grid_search(evaluator, sorted(by_id), spec)
    lines = [f"fold {f.fold}: best omega {f.best_omega:.2f}, holdout pass@1 {f.holdout_pass1:.3f}"
             for f in report.folds]
    _emit(args, report, lines + [f"recommended omega: {report.recommended:.2f} (variance {report.variance:.4f})"])
    return 0


def _cmd_eval(args, backend) -> int:
    corpus = load_corpus(args.corpus)
    runs = _given(args, ("beam_k", "activation", "timeout_ms", "workers", *_DELIMITERS))
    report = evaluate(backend, corpus, _anchoring_config(args), DecodeLimits(args.max_new_tokens), **runs)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fp:
            report.write_csv(fp)
    lines = [f"pass@{k}: {v:.3f}" for k, v in sorted(report.pass_at_k.items())]
    lines += [f"{name}: {p:.3f} (n={report.bucket_counts[name]})" for name, p in report.bucket_pass1.items()]
    _emit(args, report, lines)
    return 0


def _cmd_dilution(args, backend) -> int:
    curve = dilution_curve(_decode_prompt(args, backend, want_attention=True))
    with _output(args.out) as fp:
        write_curve_csv(curve, fp)
    return 0


def _cmd_gradients(args, backend) -> int:
    scores = gradient_attention(backend, backend.vocab.tokenize(args.prompt), **_given(args, ("delta",)))
    with _output(args.out) as fp:
        fp.write("position,score\n")
        for i, s in enumerate(scores.tolist()):
            fp.write(f"{i},{s!r}\n")
    return 0


def _cmd_lengths(args, backend) -> int:
    with open(args.report, encoding="utf-8") as fp:
        report = json.load(fp)
    difficulty = {t.id: t.difficulty or "overall" for t in load_corpus(args.corpus)}
    try:
        rows = []
        for entry in report["tasks"]:  # each field as EvalReport.to_json writes it
            if not (isinstance(entry["final_passed"], bool) and isinstance(entry["id"], str)):
                raise TypeError("final_passed must be a bool and id a string")
            rows.append((entry["generated_len"], entry["final_passed"], difficulty.get(entry["id"])))
        cells = length_stats(rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{args.report} is not an eval report: {exc!r}") from exc
    unknown = [entry["id"] for entry in report["tasks"] if entry["id"] not in difficulty]
    if unknown:  # a report of another corpus: its tasks have no difficulty here to be bucketed by
        raise ValueError(f"task {unknown[0]!r} of {args.report} is not in {args.corpus}")
    with _output(args.out) as fp:
        write_length_stats_csv(cells, fp)
    return 0


def _cmd_serve(args, backend) -> int:
    with LogitServer(backend, **_given(args, ("host", "port"))) as server:
        host, port = server.address
        print(f"serving on {host}:{port}", flush=True)
        try:
            server.wait()
        except KeyboardInterrupt:
            pass
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    backend = None
    try:
        args = parser.parse_args(argv)
        backend = _build_backend(args.backend) if "backend" in args else None
        return args.run(args, backend)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AnchorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if isinstance(backend, RemoteBackend):
            backend.close()


if __name__ == "__main__":
    sys.exit(main())
