"""The four benchmark workloads: inputs, operations and output checks.

Op i's inputs depend only on (seed, workload, i), so a time-bounded run of
any length and the golden file agree on what op i is. Sizes that set an
op's cost (prompt length, new tokens, beam shape) cycle with i; the seed
picks the tokens, so runs with different seeds do the same amount of work.
Every workload drives the package through its public API and is closed
loop from one process.

Known defects are routed around, not hidden (each fix belongs to a later
change; see NOTES.md):
- ``RemoteBackend`` is not thread-safe, so remote-short uses one connection
  from one thread.
- A timed-out sandbox test orphans its children, so no eval-sandbox command
  sleeps or can time out.
- ``RemoteBackend.vocab`` has no surface strings, so ``resolve_anchors``
  cannot run against it; remote-short resolves prompts against the local
  toy vocabulary and passes ``(tokens, AnchorResolution)`` pairs.
- ``CountingBackend.masked_calls`` is always 0, so the traced run classifies
  masked passes by context content.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from anchored_decoding import anchoring, decoding, harness
from anchored_decoding.anchoring import AnchoringConfig
# Bound at import, so the traced run's wrappers do not see the benchmark's
# own bookkeeping; calls a user would make go through the module attributes.
from anchored_decoding.anchoring import parse_markup as _parse_markup
from anchored_decoding.anchoring import resolve_anchors as _resolve_anchors
from anchored_decoding.decoding import DecodeLimits
from anchored_decoding.toy_model import ToyBackend, ToyModelConfig
from anchored_decoding.vocab import DEFAULT_ALPHABET, VocabSpec
from anchored_decoding.wire import RemoteBackend

HERE = Path(__file__).resolve().parent
MODEL_SEED = 0  # the CLI default backend, toy:seed=0
MAX_POSITIONS = 256
FIXED = AnchoringConfig(mode="fixed", omega=1.25)
CONFIDENCE = AnchoringConfig(mode="confidence", lam=1.0)
OMEGA_ONE = AnchoringConfig(mode="fixed", omega=1.0)


def model_config(vocab_size: int, stop_token: bool = True) -> ToyModelConfig:
    """The CLI default toy shape (dim 32, 2 layers, 4 heads, 256 positions).
    Without the stop token the weights are the same, but no decode can end
    before its length limit."""
    vocab = VocabSpec.toy(vocab_size)
    if not stop_token:
        vocab = VocabSpec(vocab.size, vocab.mask_id, frozenset(), vocab.token_strings)
    return ToyModelConfig(
        seed=MODEL_SEED, vocab=vocab, embed_dim=32, n_layers=2, n_heads=4, max_positions=MAX_POSITIONS
    )


def op_rng(seed: int, workload_index: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, workload_index, i])


def random_markup(rng, length: int, span: int, vocab_size: int) -> str:
    """Prompt text of ``length`` toy characters with one anchored span."""
    chars = DEFAULT_ALPHABET[: vocab_size - 2]
    text = "".join(chars[k] for k in rng.integers(0, len(chars), length))
    a = int(rng.integers(0, length - span + 1))
    return f"{text[:a]}{anchoring.DEFAULT_OPEN}{text[a:a + span]}{anchoring.DEFAULT_CLOSE}{text[a + span:]}"


class CallClock:
    """score() pass-through that counts calls and records when each started
    and how long it took. Cleared at the start of every op."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.max_positions = inner.max_positions
        self.starts: list[float] = []
        self.durations: list[float] = []

    def score(self, context_tokens, mask_positions=frozenset(), **kwargs):
        t0 = perf_counter()
        result = self.inner.score(context_tokens, mask_positions, **kwargs)
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)
        return result

    def reset(self) -> None:
        self.starts.clear()
        self.durations.clear()


@dataclass
class Op:
    """One timed operation: its output (compared with goldens), the work
    units it completed, its timed seconds and its request latencies."""

    output: object = None
    units: int = 0
    seconds: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    call_ms: list[float] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def step_latencies_ms(starts: list[float], end: float, calls_per_token: int) -> list[float]:
    """Per-token latency from score() start times: each step begins with its
    first scored pass and ends where the next step (or the decode) begins."""
    step_starts = starts[::calls_per_token]
    return [(b - a) * 1e3 for a, b in zip(step_starts, step_starts[1:] + [end])]


def check_decode_calls(trace, calls: int, per_token: int, label: str) -> list[str]:
    if calls != per_token * len(trace.steps):
        return [f"{label}: {calls} score() calls for {len(trace.steps)} tokens, expected {per_token} per token"]
    return []


def check_length(trace, limit: int, stop_ids, label: str) -> list[str]:
    n = len(trace.steps)
    if n == limit or (n < limit and trace.steps[-1][0] in stop_ids):
        return []
    return [f"{label}: decode stopped after {n} of {limit} tokens without a stop token"]


def omega_one_check(backend, prompt, prompt_tokens, new_tokens: int) -> list[str]:
    """omega = 1 must reproduce greedy decoding token for token."""
    limits = DecodeLimits(new_tokens)
    at_one = decoding.anchored_decode(backend, prompt, OMEGA_ONE, limits).generated_tokens
    greedy = decoding.greedy_decode(backend, prompt_tokens, limits).generated_tokens
    return [] if at_one == greedy else [f"omega=1 decode {at_one} differs from greedy {greedy}"]


class Workload:
    name = ""
    index = 0
    setup_probes = 5
    prompts_per_op = 1
    score_span = "toy_model.score"
    vocab_size = 32
    # Without the stop token every decode runs to its length limit and every
    # beam search expands its full tree, so an op's work does not depend on
    # where the seed's prompts would have emitted a stop token.
    stop_token = False
    # Set when ops are too long for a time-bounded loop to give every run
    # the same mix: the run then makes one op per this many --seconds.
    seconds_per_op: float | None = None

    def __init__(self, wrap_backend=None):
        self.wrap_backend = wrap_backend or (lambda b: b)
        self.local = None  # unwrapped local backend, used by checks
        self.raw = None  # the backend ops score with, before timing wrappers
        self.clock = None
        self.backend = None

    def setup(self) -> None:
        """Build the program state the ops use."""
        self.local = ToyBackend(model_config(self.vocab_size, self.stop_token))
        self.use_backend(self.wrap_backend(self.local))

    def setup_probe(self) -> float:
        """Seconds of one set-up as a fresh CLI process pays it: start an
        interpreter, import the package and build the backend."""
        t0 = perf_counter()
        subprocess.run(self.child_command("probe"), check=True)
        return perf_counter() - t0

    def child_command(self, mode: str) -> list[str]:
        return [sys.executable, str(HERE / "child.py"), str(self.vocab_size), str(int(self.stop_token)), mode]

    def use_backend(self, raw, traced=None) -> None:
        self.raw = raw
        self.clock = CallClock(raw)
        self.backend = traced(self.clock) if traced else self.clock

    def register(self, prompt_tokens, resolution) -> None:
        if hasattr(self.backend, "register_masked_prompt"):
            masked = anchoring.build_masked_context(prompt_tokens, resolution, self.backend.vocab.mask_id)
            self.backend.register_masked_prompt(masked)

    def close(self) -> None:
        pass

    def inputs(self, seed: int, i: int):
        raise NotImplementedError

    def run(self, inp) -> Op:
        raise NotImplementedError

    def verify(self, inp, op: Op) -> list[str]:
        return []

    def sample_check(self, seed: int) -> list[str]:
        """omega = 1 equals greedy on op 0's prompt."""
        tokens, resolution = _resolve_anchors(_parse_markup(self.inputs(seed, 0)["markup"]), self.local.vocab)
        return omega_one_check(self.raw, (tokens, resolution), tokens, 16)

    def report(self, ops: list[Op]) -> dict:
        """Workload-specific end-to-end figures: name -> (value, unit)."""
        return {}


class DecodeLong(Workload):
    """Long anchored decodes toward the 256-position limit, where the T x T
    forward dominates and grows with context."""

    name = "decode-long"
    index = 1
    # An op is a round: one prompt decoded in all three modes, about 15-20 s
    # on 2 CPUs. Tokens/s depends on the prompt length, so rounds alternate
    # the two lengths and a run makes a fixed number of rounds: two for 16 s.
    seconds_per_op = 8.0
    PROMPT_LENGTHS = (32, 128)
    ANCHORED_SPAN = 16
    MODES = (("greedy", None), ("fixed", FIXED), ("confidence", CONFIDENCE))

    def inputs(self, seed, i):
        rng = op_rng(seed, self.index, i)
        length = self.PROMPT_LENGTHS[i % len(self.PROMPT_LENGTHS)]
        return {"markup": random_markup(rng, length, self.ANCHORED_SPAN, self.vocab_size)}

    def run(self, inp):
        spec = anchoring.parse_markup(inp["markup"])
        tokens, resolution = anchoring.resolve_anchors(spec, self.backend.vocab)
        self.register(tokens, resolution)
        limit = MAX_POSITIONS - len(tokens)
        limits = DecodeLimits(limit)
        op = Op(output={})
        for mode, config in self.MODES:
            self.clock.reset()
            t0 = perf_counter()
            if config is None:
                trace = decoding.greedy_decode(self.backend, tokens, limits)
            else:
                trace = decoding.anchored_decode(self.backend, spec, config, limits)
            t1 = perf_counter()
            per_token = 1 if config is None else 2
            op.errors += check_decode_calls(trace, len(self.clock.starts), per_token, mode)
            op.errors += check_length(trace, limit, self.backend.vocab.stop_ids, mode)
            op.output[mode] = trace.generated_tokens
            op.units += len(trace.steps)
            op.seconds += t1 - t0
            op.latencies_ms += step_latencies_ms(self.clock.starts, t1, per_token)
            op.detail[mode] = (len(trace.steps), t1 - t0)
        return op

    def report(self, ops):
        out = {}
        for mode, _ in self.MODES:
            tokens = sum(op.detail[mode][0] for op in ops if mode in op.detail)
            seconds = sum(op.detail[mode][1] for op in ops if mode in op.detail)
            out[f"{mode}_tokens_per_s"] = (tokens / seconds if seconds else 0.0, "tokens/s")
        return out


class BeamTrie(Workload):
    """Exact anchored beam searches over short prompts: hundreds of score()
    calls per search over a prefix tree of short contexts."""

    name = "beam-trie"
    index = 2
    # (beam width, max new tokens, prompt length), cycled by op index; width
    # 3 with 8 new tokens (~5,000 calls per search) is left out on purpose.
    SHAPES = ((2, 6, 10), (2, 6, 13), (2, 6, 16), (2, 7, 18), (2, 8, 21), (3, 6, 24))

    def inputs(self, seed, i):
        rng = op_rng(seed, self.index, i)
        width, new, length = self.SHAPES[i % len(self.SHAPES)]
        span = int(rng.integers(2, 7))
        return {"markup": random_markup(rng, length, span, self.vocab_size), "width": width, "new": new}

    def run(self, inp):
        spec = anchoring.parse_markup(inp["markup"])
        tokens, resolution = _resolve_anchors(spec, self.local.vocab)
        self.register(tokens, resolution)
        self.clock.reset()
        t0 = perf_counter()
        beams = decoding.beam_search_anchored(self.backend, spec, FIXED, inp["width"], DecodeLimits(inp["new"]))
        t1 = perf_counter()
        op = Op(
            output=[[list(b.tokens), b.finished] for b in beams],
            units=1,
            seconds=t1 - t0,
            latencies_ms=[(t1 - t0) * 1e3],
            detail={"prompt_tokens": tokens, "beams": beams, "calls": len(self.clock.starts)},
        )
        return op

    def verify(self, inp, op):
        beams, prompt_tokens = op.detail["beams"], op.detail["prompt_tokens"]
        width, new = inp["width"], inp["new"]
        errors = []
        if len(beams) != width:
            errors.append(f"{len(beams)} beams for width {width}")
        if [(-b.score, b.tokens) for b in beams] != sorted((-b.score, b.tokens) for b in beams):
            errors.append("beams are not sorted by score")
        tree_nodes = sum(width**d for d in range(new))
        if op.detail["calls"] % 2 or op.detail["calls"] > 2 * tree_nodes:
            errors.append(f"{op.detail['calls']} score() calls for a tree of {tree_nodes} prefixes")
        logp_cache: dict[tuple, np.ndarray] = {}
        for b in beams:
            total = 0.0
            for k, tid in enumerate(b.tokens):
                prefix = tuple(b.tokens[:k])
                if prefix not in logp_cache:
                    logits = self.local.score(prompt_tokens + list(prefix)).logits
                    logp_cache[prefix] = np.log(anchoring.softmax(logits))
                total = total + float(logp_cache[prefix][tid])
            if total != b.score:
                errors.append(f"beam {b.tokens} scored {b.score!r}, recomputed {total!r}")
        return errors

    def report(self, ops):
        seconds = sum(op.seconds for op in ops)
        return {"beam_searches_per_s": (len(ops) / seconds if seconds else 0.0, "1/s")}


class EvalSandbox(Workload):
    """harness.evaluate over generated toy tasks, gated on test failure, two
    workers: sandboxed shell tests do most of the work, the forward little."""

    name = "eval-sandbox"
    index = 3
    BATCH = 8  # tasks per evaluate() call; one call is one request
    MAX_NEW = 4
    WORKERS = 2
    prompts_per_op = BATCH
    stop_token = True  # the CLI default vocabulary: programs may end early
    OPS = "drxhs"

    def setup(self):
        super().setup()
        sandbox = HERE.parent / ".bench_work" / "sandbox"
        sandbox.mkdir(parents=True, exist_ok=True)
        os.environ[harness.SANDBOX_ENV_VAR] = str(sandbox)

    def inputs(self, seed, i):
        rng = op_rng(seed, self.index, i)
        tasks = []
        for j in range(self.BATCH):
            length = int(rng.integers(8, 21))
            prompt = random_markup(rng, length, int(rng.integers(3, 7)), self.vocab_size)
            task_id = f"b{i:05d}-t{j}"
            if j % 4 == 3:
                program = "".join(self.OPS[k] for k in rng.integers(0, len(self.OPS), 2))
                words = ["".join(DEFAULT_ALPHABET[k] for k in rng.integers(0, 26, 5)) for _ in range(2)]
                cases = tuple((w, harness.run_toy_program(program, w)) for w in words)
                tasks.append(harness.Task(id=task_id, prompt=prompt, entry_check=cases))
            else:
                op_char = self.OPS[int(rng.integers(0, len(self.OPS)))]
                cmds = (
                    "test -s solution.txt",
                    "grep -q '[a-z]' solution.txt",
                    "grep -qv 0000 solution.txt",
                    f"grep -q {op_char} solution.txt",
                )
                tests = tuple({"cmd": c, "file": "solution.txt"} for c in cmds)
                tasks.append(harness.Task(id=task_id, prompt=prompt, tests=tests))
        return {"tasks": tasks, "markup": tasks[0].prompt}

    def run(self, inp):
        for task in inp["tasks"]:
            tokens, resolution = _resolve_anchors(_parse_markup(task.prompt), self.local.vocab)
            self.register(tokens, resolution)
        t0 = perf_counter()
        report = harness.evaluate(
            self.backend, inp["tasks"], FIXED, DecodeLimits(self.MAX_NEW), workers=self.WORKERS
        )
        t1 = perf_counter()
        return Op(
            output=[
                [r.task_id, r.baseline_passed, r.anchored_passed, r.final_passed, r.generated_len, r.error]
                for r in report.records
            ],
            units=len(inp["tasks"]),
            seconds=t1 - t0,
            latencies_ms=[(t1 - t0) * 1e3],
            detail={"report": report},
        )

    def verify(self, inp, op):
        report = op.detail["report"]
        errors = []
        if [r.task_id for r in report.records] != sorted(t.id for t in inp["tasks"]):
            errors.append("report does not hold one record per task")
        for r in report.records:
            if r.error is not None:
                errors.append(f"{r.task_id}: {r.error}")
            elif r.baseline_passed is None or (r.anchored_passed is None) != r.baseline_passed:
                errors.append(f"{r.task_id}: anchored pass gated wrongly ({r.baseline_passed}, {r.anchored_passed})")
            elif r.final_passed != (r.baseline_passed or bool(r.anchored_passed)):
                errors.append(f"{r.task_id}: final outcome {r.final_passed} matches neither pass")
        baseline = sum(bool(r.baseline_passed) for r in report.records) / len(report.records)
        if report.pass_at_1 < baseline:
            errors.append(f"Pass@1 {report.pass_at_1} below baseline {baseline}")
        return errors

    def report(self, ops):
        seconds = sum(op.seconds for op in ops)
        records = [r for op in ops if "report" in op.detail for r in op.detail["report"].records]
        activated = [r for r in records if r.anchored_passed is not None]
        return {
            "tasks_per_s": (sum(op.units for op in ops) / seconds if seconds else 0.0, "1/s"),
            "anchored_activation_share": (len(activated) / len(records) if records else 0.0, "ratio"),
            "anchored_rescue_share": (
                sum(bool(r.anchored_passed) for r in activated) / len(activated) if activated else 0.0,
                "ratio",
            ),
        }


class RemoteShort(Workload):
    """Short fixed-mode anchored decodes through one RemoteBackend connection
    to a LogitServer in a child process; the largest toy vocabulary makes
    each response carry the most logits."""

    name = "remote-short"
    index = 4
    score_span = "wire.score"
    vocab_size = 52
    CHECK_EVERY = 4  # ops re-decoded locally for the bit-exactness check
    # (prompt length, new tokens), cycled by op index
    SIZES = ((8, 32), (32, 16), (12, 28), (28, 20), (16, 24), (24, 18), (20, 30), (30, 22))
    STOP_TIMEOUT_S = 10

    def __init__(self, wrap_backend=None):
        super().__init__(wrap_backend)
        self.server = None
        self.remote = None
        self.retired = []  # probe servers told to stop, not yet reaped

    def setup(self):
        self.local = ToyBackend(model_config(self.vocab_size, self.stop_token))
        self.server, self.remote = self._start_server()
        self.use_backend(self.wrap_backend(self.remote))

    def setup_probe(self):
        """Seconds to start a LogitServer child and connect a client to it.
        The server is stopped untimed and reaped in close()."""
        t0 = perf_counter()
        server, remote = self._start_server()
        seconds = perf_counter() - t0
        remote.close()
        server.stdin.close()
        self.retired.append(server)
        return seconds

    def _start_server(self):
        server = subprocess.Popen(
            self.child_command("serve"), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        port = server.stdout.readline().strip()
        if not port.isdigit():
            self._stop_server(server, None)
            raise RuntimeError(f"logit server did not start (said {port!r})")
        return server, RemoteBackend("127.0.0.1", int(port))

    def _stop_server(self, server, remote):
        if remote is not None:
            remote.close()
        if not server.stdin.closed:
            server.stdin.close()
        try:
            server.wait(timeout=self.STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def close(self):
        if self.server is not None:
            self._stop_server(self.server, self.remote)
            self.server = self.remote = None
        while self.retired:
            self._stop_server(self.retired.pop(), None)

    def inputs(self, seed, i):
        rng = op_rng(seed, self.index, i)
        length, new = self.SIZES[i % len(self.SIZES)]
        return {
            "markup": random_markup(rng, length, int(rng.integers(2, 7)), self.vocab_size),
            "new": new,
            "index": i,
        }

    def run(self, inp):
        # RemoteBackend.vocab has no surface strings: resolve locally.
        spec = anchoring.parse_markup(inp["markup"])
        tokens, resolution = anchoring.resolve_anchors(spec, self.local.vocab)
        self.register(tokens, resolution)
        self.clock.reset()
        t0 = perf_counter()
        trace = decoding.anchored_decode(self.backend, (tokens, resolution), FIXED, DecodeLimits(inp["new"]))
        t1 = perf_counter()
        op = Op(
            output=trace.generated_tokens,
            units=len(trace.steps),
            seconds=t1 - t0,
            latencies_ms=[(t1 - t0) * 1e3],
            call_ms=[d * 1e3 for d in self.clock.durations],
            detail={"trace": trace},
        )
        op.errors += check_decode_calls(trace, len(self.clock.starts), 2, "fixed")
        op.errors += check_length(trace, inp["new"], self.local.vocab.stop_ids, "fixed")
        return op

    def verify(self, inp, op):
        if inp["index"] % self.CHECK_EVERY:
            return []
        tokens, resolution = _resolve_anchors(_parse_markup(inp["markup"]), self.local.vocab)
        local = decoding.anchored_decode(self.local, (tokens, resolution), FIXED, DecodeLimits(inp["new"]))
        remote = op.detail["trace"]
        if local.generated_tokens != remote.generated_tokens:
            return [f"remote tokens {remote.generated_tokens} differ from local {local.generated_tokens}"]
        for (_, a), (_, b) in zip(local.steps, remote.steps):
            for name in ("original", "masked", "augmented"):
                if not np.array_equal(getattr(a, name), getattr(b, name)):
                    return [f"remote {name} logits differ from local"]
        return []

    def report(self, ops):
        seconds = sum(op.seconds for op in ops)
        calls = [ms for op in ops for ms in op.call_ms]
        return {
            "fixed_tokens_per_s": (sum(op.units for op in ops) / seconds if seconds else 0.0, "tokens/s"),
            "remote_call_ms_p50": (float(np.percentile(calls, 50)) if calls else 0.0, "ms"),
            "remote_call_ms_p99": (float(np.percentile(calls, 99)) if calls else 0.0, "ms"),
        }


WORKLOADS = {w.name: w for w in (DecodeLong, BeamTrie, EvalSandbox, RemoteShort)}
