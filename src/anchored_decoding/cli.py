"""Command-line entry point: generate, tune, eval, analyze, serve.

Every subcommand is a thin composition of module operations; no decoding or
scoring logic lives here.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .anchoring import AnchoringConfig, parse_markup, resolve_anchors
from .attention_analysis import (
    dilution_curve,
    gradient_attention,
    length_stats,
    write_curve_csv,
    write_length_stats_csv,
)
from .decoding import DecodeLimits, anchored_decode, export_trace, greedy_decode
from .errors import AnchorError
from .harness import evaluate, load_corpus
from .toy_model import ToyBackend, ToyModelConfig
from .tuning import TuneSpec, default_grid, grid_search, preset_strength
from .vocab import VocabSpec
from .wire import LogitServer, RemoteBackend


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_backend(selector: str, seed_override: int | None):
    kind, _, rest = selector.partition(":")
    if kind == "toy":
        opts = {}
        for part in filter(None, rest.split(":")):
            key, _, val = part.partition("=")
            opts[key] = int(val)
        seed = seed_override if seed_override is not None else opts.get("seed", 0)
        vocab = VocabSpec.toy(opts.get("vocab", 32))
        return ToyBackend(
            ToyModelConfig(
                seed=seed,
                vocab=vocab,
                embed_dim=opts.get("dim", 32),
                n_layers=opts.get("layers", 2),
                n_heads=opts.get("heads", 4),
                max_positions=opts.get("max_positions", 256),
            )
        )
    if kind == "remote":
        host, _, port = rest.partition(":")
        if not host or not port:
            raise UsageError("remote backend needs remote:host:port")
        return RemoteBackend(host, int(port))
    raise UsageError(f"unknown backend selector {selector!r}")


def _anchoring_config(args) -> AnchoringConfig:
    mode = args.mode
    if mode == "confidence" and args.omega is not None:
        raise UsageError("--omega conflicts with --mode confidence (use --lambda)")
    if mode in ("off", "fixed") and getattr(args, "lam", None) is not None:
        raise UsageError(f"--lambda conflicts with --mode {mode}")
    return AnchoringConfig(
        mode=mode,
        omega=args.omega if args.omega is not None else preset_strength(),
        lam=args.lam if getattr(args, "lam", None) is not None else 1.0,
        top_k=args.top_k,
        activation=getattr(args, "activation", "on_test_failure"),
    )


def _add_backend_flags(p):
    p.add_argument("--backend", default="toy:seed=0", help="toy:seed=..:vocab=..:dim=.. or remote:host:port")
    p.add_argument("--seed", type=int, default=None, help="override the toy backend seed")


def _add_anchoring_flags(p):
    p.add_argument("--mode", choices=["off", "fixed", "confidence"], default="fixed")
    p.add_argument("--omega", type=float, default=None, help="anchoring strength (fixed mode)")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="strength coefficient (confidence mode)")
    p.add_argument("--top-k", type=int, default=None, help="combine only the top-k original logits")
    p.add_argument("--anchor-open", default="⟦")
    p.add_argument("--anchor-close", default="⟧")


def build_parser() -> _Parser:
    parser = _Parser(prog="anchor-decode")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="decode one prompt")
    _add_backend_flags(g)
    _add_anchoring_flags(g)
    g.add_argument("--prompt", required=True, help="prompt text with anchor markup")
    g.add_argument("--max-new", type=int, default=64)
    g.add_argument("--trace", help="write a per-step NDJSON trace here")
    g.add_argument("--attention", action="store_true", help="capture attention rows")
    g.add_argument("--json", action="store_true")

    t = sub.add_parser("tune", help="grid-search the anchoring strength on a corpus")
    _add_backend_flags(t)
    t.add_argument("--corpus", required=True)
    t.add_argument("--folds", type=int, default=5)
    t.add_argument("--tune-seed", type=int, default=0)
    t.add_argument("--grid", help="comma-separated ascending omega values (must include 1.0)")
    t.add_argument("--no-early-exit", action="store_true")
    t.add_argument("--invert-folds", action="store_true", help="tune on k-1 folds instead of 1")
    t.add_argument("--max-new", type=int, default=32)
    t.add_argument("--timeout-ms", type=int, default=5000)
    t.add_argument("--out", help="write the tune report JSON here")
    t.add_argument("--json", action="store_true")

    e = sub.add_parser("eval", help="evaluate a corpus")
    _add_backend_flags(e)
    _add_anchoring_flags(e)
    e.add_argument("--activation", choices=["always", "on_test_failure"], default="on_test_failure")
    e.add_argument("--corpus", required=True)
    e.add_argument("--beam", type=int, default=None, help="beam width for Pass@k")
    e.add_argument("--max-new", type=int, default=32)
    e.add_argument("--timeout-ms", type=int, default=5000)
    e.add_argument("--workers", type=int, default=1)
    e.add_argument("--out", help="write the report JSON here")
    e.add_argument("--csv", help="write the per-task CSV summary here")
    e.add_argument("--json", action="store_true")

    a = sub.add_parser("analyze", help="attention and length instruments")
    asub = a.add_subparsers(dest="analysis", required=True)

    ad = asub.add_parser("dilution", help="attention-to-prompt curve for a prompt")
    _add_backend_flags(ad)
    _add_anchoring_flags(ad)
    ad.add_argument("--prompt", required=True)
    ad.add_argument("--max-new", type=int, default=32)
    ad.add_argument("--out", help="CSV output path (default stdout)")

    ag = asub.add_parser("gradients", help="finite-difference token sensitivity")
    _add_backend_flags(ag)
    ag.add_argument("--prompt", required=True, help="plain prompt text (no markup)")
    ag.add_argument("--delta", type=float, default=1e-3)
    ag.add_argument("--out", help="CSV output path (default stdout)")

    al = asub.add_parser("lengths", help="passed-vs-failed generation lengths")
    al.add_argument("--report", required=True, help="EvalReport JSON from `eval --out`")
    al.add_argument("--corpus", required=True, help="corpus used to produce the report")
    al.add_argument("--out", help="CSV output path (default stdout)")

    s = sub.add_parser("serve", help="serve the toy backend over the wire protocol")
    _add_backend_flags(s)
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=0)

    return parser


def _out_stream(path):
    return open(path, "w", encoding="utf-8") if path else sys.stdout


def _decode_prompt(args, backend, want_attention: bool):
    """Decode ``--prompt``: greedy when anchoring is off or the prompt has no
    anchored span, anchored otherwise."""
    spec = parse_markup(args.prompt, args.anchor_open, args.anchor_close)
    limits = DecodeLimits(args.max_new)
    config = _anchoring_config(args)
    if config.mode == "off" or not spec.has_anchors:
        tokens, _ = resolve_anchors(spec, backend.vocab)
        return greedy_decode(backend, tokens, limits, want_attention=want_attention)
    return anchored_decode(backend, spec, config, limits, want_attention=want_attention)


def _cmd_generate(args) -> int:
    backend = _build_backend(args.backend, args.seed)
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


def _cmd_tune(args) -> int:
    backend = _build_backend(args.backend, args.seed)
    corpus = load_corpus(args.corpus)
    by_id = {t.id: t for t in corpus}
    limits = DecodeLimits(args.max_new)
    grid = tuple(default_grid())
    if args.grid:
        grid = tuple(float(x) for x in args.grid.split(","))
    spec = TuneSpec(
        grid=grid,
        folds=args.folds,
        seed=args.tune_seed,
        early_exit=not args.no_early_exit,
        invert=args.invert_folds,
    )

    def evaluator(omega, task_ids):
        # tuning anchors every task; failure gating is an inference-time policy
        config = AnchoringConfig(mode="fixed", omega=omega, activation="always")
        report = evaluate(
            backend, [by_id[t] for t in task_ids], config, limits, timeout_ms=args.timeout_ms
        )
        return report.pass_at_1

    report = grid_search(evaluator, sorted(by_id), spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(report.to_json())
    if args.json:
        print(report.to_json())
    else:
        for f in report.folds:
            print(f"fold {f.fold}: best omega {f.best_omega:.2f}, holdout pass@1 {f.holdout_pass1:.3f}")
        print(f"recommended omega: {report.recommended:.2f} (variance {report.variance:.4f})")
    return 0


def _cmd_eval(args) -> int:
    backend = _build_backend(args.backend, args.seed)
    corpus = load_corpus(args.corpus)
    config = _anchoring_config(args)
    report = evaluate(
        backend,
        corpus,
        config,
        DecodeLimits(args.max_new),
        beam_k=args.beam,
        timeout_ms=args.timeout_ms,
        workers=args.workers,
        open_delim=args.anchor_open,
        close_delim=args.anchor_close,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(report.to_json())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fp:
            report.write_csv(fp)
    if args.json:
        print(report.to_json())
    else:
        print(f"pass@1: {report.pass_at_1:.3f}")
        for k, v in sorted(report.pass_at_k.items()):
            if k != 1:
                print(f"pass@{k}: {v:.3f}")
        for name in ("Short", "Medium", "Long"):
            if name in report.bucket_pass1:
                print(f"{name}: {report.bucket_pass1[name]:.3f} (n={report.bucket_counts[name]})")
    return 0


def _cmd_analyze(args) -> int:
    if args.analysis == "dilution":
        backend = _build_backend(args.backend, args.seed)
        curve = dilution_curve(_decode_prompt(args, backend, want_attention=True))
        fp = _out_stream(args.out)
        try:
            write_curve_csv(curve, fp)
        finally:
            if args.out:
                fp.close()
        return 0
    if args.analysis == "gradients":
        backend = _build_backend(args.backend, args.seed)
        tokens = backend.vocab.tokenize(args.prompt)
        scores = gradient_attention(backend, tokens, delta=args.delta)
        fp = _out_stream(args.out)
        try:
            fp.write("position,score\n")
            for i, s in enumerate(scores):
                fp.write(f"{i},{s!r}\n")
        finally:
            if args.out:
                fp.close()
        return 0
    # lengths
    with open(args.report, encoding="utf-8") as fp:
        report = json.load(fp)
    difficulty = {t.id: t.difficulty or "overall" for t in load_corpus(args.corpus)}
    triples = [
        (entry["generated_len"], bool(entry["final_passed"]), difficulty.get(entry["id"], "overall"))
        for entry in report["tasks"]
    ]
    stats = length_stats(triples)
    fp = _out_stream(args.out)
    try:
        write_length_stats_csv(stats, fp)
    finally:
        if args.out:
            fp.close()
    return 0


def _cmd_serve(args) -> int:
    backend = _build_backend(args.backend, args.seed)
    server = LogitServer(backend, args.host, args.port).start()
    host, port = server.address
    print(f"serving on {host}:{port}", flush=True)
    try:
        server._thread.join()
    except KeyboardInterrupt:
        server.stop()
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "tune":
            return _cmd_tune(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "serve":
            return _cmd_serve(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AnchorError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
