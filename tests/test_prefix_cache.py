"""The toy backend's prefix cache: what score() returns never depends on what it scored before."""

import sys
import threading

import numpy as np
import pytest

from anchored_decoding import ToyBackend, ToyModelConfig, VocabSpec
from anchored_decoding.toy_model import _STREAMS

SHAPES = [  # (embed_dim, n_layers, n_heads, vocab): head_dim 8, 8, 3 and 16
    (32, 2, 4, 32),
    (16, 1, 2, 16),
    (24, 3, 8, 20),
    (32, 4, 2, 52),
]


def model(seed, shape, max_positions=160):
    d, layers, heads, vocab = shape
    return ToyModelConfig(
        seed=seed, vocab=VocabSpec.toy(vocab), embed_dim=d, n_layers=layers, n_heads=heads,
        max_positions=max_positions,
    )


def one_block(backend, tokens, masks=()):
    """The kernel run once over every row of a fresh context: no cache, no split."""
    tokens = np.array(tokens, dtype=np.int64)
    tokens[list(masks)] = backend.vocab.mask_id
    logits, rows = backend._rows(backend._new_kv(len(tokens)), 0, backend._embed(tokens)[:, None])
    return logits[0], rows[0]


def same_bytes(result, want):
    logits, row = want
    return result.logits.tobytes() == logits.tobytes() and result.attention.tobytes() == row.tobytes()


def request_sequence(rng, vocab_size, max_positions, n):
    """Contexts as decoders make them: new prompts, one-token steps, forks off
    an earlier context, repeats; each with random mask positions."""
    seen = []
    for _ in range(n):
        kind = rng.integers(0, 4) if seen else 0
        if kind == 0:  # a new prompt
            ctx = rng.integers(0, vocab_size, size=int(rng.integers(1, 100))).tolist()
        else:
            base = seen[int(rng.integers(0, len(seen)))]
            if kind == 1:  # a step
                ctx = base + [int(rng.integers(0, vocab_size))]
            elif kind == 2:  # a fork: a prefix, then other tokens
                cut = int(rng.integers(0, len(base) + 1))
                ctx = base[:cut] + rng.integers(0, vocab_size, size=int(rng.integers(1, 70))).tolist()
            else:  # asked again
                ctx = list(base)
        ctx = ctx[:max_positions] or [0]
        seen.append(ctx)
        n_masks = int(rng.integers(0, min(len(ctx), 6) + 1)) if rng.random() < 0.5 else 0
        masks = frozenset(int(i) for i in rng.choice(len(ctx), size=n_masks, replace=False))
        yield ctx, masks


def test_cached_scores_equal_one_block_forward(rng):
    # bit for bit, whatever rows the backend already held and however it split the new ones
    for seed, shape in enumerate(SHAPES):
        backend = ToyBackend(model(seed, shape))
        for ctx, masks in request_sequence(rng, shape[3], 160, 60):
            got = backend.score(ctx, masks, want_attention=True)
            assert same_bytes(got, one_block(backend, ctx, sorted(masks))), (seed, len(ctx), sorted(masks))


def test_split_points_do_not_change_bytes(rng):
    # a context scored as a chain of prefixes cut anywhere equals the same context scored cold
    for seed, shape in enumerate(SHAPES):
        config = model(seed, shape, max_positions=256)
        for _ in range(8):
            T = int(rng.integers(1, 257))
            ctx = rng.integers(0, shape[3], size=T).tolist()
            want = one_block(ToyBackend(config), ctx)
            backend = ToyBackend(config)
            for cut in sorted(set(rng.integers(1, T + 1, size=int(rng.integers(1, 6))).tolist())):
                backend.score(ctx[:cut])
            assert same_bytes(backend.score(ctx, want_attention=True), want), (seed, T)


def test_rows_computed_are_only_the_new_ones(rng):
    backend = ToyBackend(model(3, SHAPES[0]))
    computed = []
    rows = backend._rows
    backend._rows = lambda kv, start, h: computed.append(h.shape[0] * h.shape[1]) or rows(kv, start, h)
    prompt = rng.integers(2, 32, size=40).tolist()
    backend.score(prompt)
    assert computed == [40]
    backend.score(prompt + [5])  # one token past a tip
    backend.score(prompt, {10, 11})  # the masked stream shares rows 0..9 with the original one
    backend.score(prompt + [5])  # scored before
    backend.score(prompt + [6])  # a sibling: forks at the shared prompt
    assert computed == [40, 1, 30, 1]


def test_the_least_recently_used_stream_is_the_one_reused():
    backend = ToyBackend(model(6, SHAPES[0]))
    computed = []
    rows = backend._rows
    backend._rows = lambda kv, start, h: computed.append(h.shape[0] * h.shape[1]) or rows(kv, start, h)
    contexts = [[2 + i] * 10 for i in range(_STREAMS)]
    for ctx in contexts:
        backend.score(ctx)
    backend.score(contexts[0])  # a hit: now the most recently used
    backend.score([30] * 10)  # takes the stream of contexts[1]
    del computed[:]
    backend.score(contexts[0] + [5])
    backend.score(contexts[1] + [5])
    assert computed == [1, 11]
    # the evicted context's old tip is gone: scored again, it is computed, not read from the reused stream
    assert same_bytes(backend.score(contexts[1], want_attention=True), one_block(backend, contexts[1]))


def test_stream_count_stays_bounded(rng):
    backend = ToyBackend(model(1, SHAPES[1], max_positions=64))
    for i in range(120):
        backend.score(rng.integers(0, 16, size=int(rng.integers(1, 65))).tolist(), {0} if i % 3 else ())
    assert len(backend._n) == backend._kv[0].shape[0] == _STREAMS and all(backend._n)
    assert len(backend._tips) <= _STREAMS
    assert backend._kv[0].shape[-1] <= 64 and backend._kv[1].shape[-2] <= 64


def test_a_reused_stream_forgets_its_old_rows():
    # the least recently used stream takes a fork; its rows past the shared
    # ones belonged to another context and must never be read as a prefix
    backend = ToyBackend(model(5, SHAPES[0]))
    backend.score([1] * 40)
    others = [[2 + i] * 6 for i in range(_STREAMS - 1)]
    for ctx in others:
        backend.score(ctx)
    fork = others[0][:1] + [5, 5]  # shares one row with a live stream; lands on [1] * 40's
    backend.score(fork)
    probe = fork + [1] * 5 + [9]
    assert same_bytes(backend.score(probe, want_attention=True), one_block(backend, probe))


def test_returned_arrays_are_not_cache_storage(rng):
    backend = ToyBackend(model(2, SHAPES[0]))
    ctx = rng.integers(2, 32, size=12).tolist()
    first = backend.score(ctx, want_attention=True)
    want = (first.logits.copy(), first.attention.copy())
    first.logits[:] = 0.0
    first.attention[:] = 0.0
    again = backend.score(ctx, want_attention=True)  # a full hit
    assert same_bytes(again, want)
    again.logits[:] = np.nan
    step = backend.score(ctx + [3], want_attention=True)
    assert same_bytes(step, one_block(backend, ctx + [3]))
    assert same_bytes(backend.score(ctx, want_attention=True), want)


def test_full_hit_returns_the_same_bytes(rng):
    backend = ToyBackend(model(4, SHAPES[2]))
    contexts = [rng.integers(0, 20, size=int(rng.integers(1, 50))).tolist() for _ in range(_STREAMS - 1)]
    first = [backend.score(c, want_attention=True) for c in contexts]
    for c, r in zip(contexts, first):
        assert same_bytes(backend.score(c, want_attention=True), (r.logits, r.attention))
        assert backend.score(c).attention is None


@pytest.mark.parametrize("seed", [0, 1])
def test_threads_extending_interleaved_prefixes_get_serial_bytes(seed):
    # two decodes that share a prompt, each stepping its own branch, through one backend
    rng = np.random.default_rng(seed)
    config = model(seed, SHAPES[0])
    prompt = rng.integers(2, 32, size=24).tolist()
    branches = [prompt + rng.integers(2, 32, size=100).tolist() for _ in range(2)]
    requests = [[(b[:n], frozenset({3, 4}) if n % 2 else frozenset()) for n in range(24, 125)] for b in branches]
    serial = [[ToyBackend(config).score(c, m).logits for c, m in reqs[::10]] for reqs in requests]
    shared = ToyBackend(config)
    got = [[], []]
    start = threading.Barrier(2)

    def run(i):
        start.wait()
        got[i] = [shared.score(c, m).logits for c, m in requests[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    for i in range(2):
        assert len(got[i]) == len(requests[i])
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got[i][::10], serial[i]))
        # every step equals the one-block forward, not only the sampled ones
        for (c, m), g in zip(requests[i][::7], got[i][::7]):
            assert g.tobytes() == one_block(shared, c, sorted(m))[0].tobytes()


def kernel_log(backend):
    """Wraps ``_rows``: each kernel call appends (contexts, first row, rows)."""
    log = []
    rows = backend._rows

    def counted(kv, start, h):
        log.append((h.shape[1], start, h.shape[0]))
        return rows(kv, start, h)

    backend._rows = counted
    return log


def anchored_walk(rng, vocab_size, steps, prompt_len=30):
    """Contexts an anchored beam expands: each one new, one token past an
    earlier one (the last, or a fork off any), never holding the mask id."""
    contexts, seen = [rng.integers(2, vocab_size, size=prompt_len).tolist()], set()
    while len(contexts) < steps:
        base = contexts[-1] if rng.random() < 0.6 else contexts[int(rng.integers(0, len(contexts)))]
        ctx = base + [int(rng.integers(2, vocab_size))]
        if tuple(ctx) not in seen:
            seen.add(tuple(ctx))
            contexts.append(ctx)
    return contexts


def test_anchored_pair_through_forks_equals_one_block(rng):
    # both passes of every step are the one-block bytes; from the second step on the
    # masked pass was computed with the original one, so it computes no row itself
    for seed, shape in enumerate(SHAPES):
        backend = ToyBackend(model(seed, shape))
        log = kernel_log(backend)
        anchors = [4, 5, 6, 7]
        for i, ctx in enumerate(anchored_walk(rng, shape[3], 40)):
            want = one_block(backend, ctx), one_block(backend, ctx, anchors)
            assert same_bytes(backend.score(ctx, (), want_attention=True), want[0]), (seed, i)
            del log[:]
            assert same_bytes(backend.score(ctx, anchors, want_attention=True), want[1]), (seed, i)
            assert i == 0 or log == [], (seed, i, log)
        assert backend.stats()["siblings_computed"] == backend.stats()["sibling_hits"] == 39


PROMPT, OTHER, ANCHORS = list(range(2, 22)), [30] * 5, (2, 3)


@pytest.mark.parametrize("before, streams, calls", [
    ([(PROMPT, ()), (OTHER, ()), (PROMPT, ANCHORS)], (0, 2), 5),  # the sibling's stream above the original's
    ([(OTHER, ()), (PROMPT, ANCHORS), (PROMPT, ()), (PROMPT, ANCHORS)], (2, 1), 6),  # below it
    ([(PROMPT, ANCHORS), (OTHER, ()), (PROMPT, ()), (PROMPT, ANCHORS)], (2, 0), 6),  # below it, at stream 0
])
def test_a_pair_runs_on_its_two_streams_above_or_below(before, streams, calls):
    # the pair is one kernel call on a view of its two streams, whichever lies
    # above, and the stream between or below them keeps its rows
    backend = ToyBackend(model(11, SHAPES[0]))
    for ctx, masks in before:
        backend.score(ctx, masks)
    step = PROMPT + [5]
    want = [one_block(backend, c, m) for c, m in ((step, ()), (step, ANCHORS), (OTHER + [7], ()))]
    log = kernel_log(backend)
    assert same_bytes(backend.score(step, want_attention=True), want[0])
    sibling = np.array(step)
    sibling[list(ANCHORS)] = backend.vocab.mask_id
    assert (backend._tips[np.array(step).tobytes()][0], backend._tips[sibling.tobytes()][0]) == streams
    assert same_bytes(backend.score(step, ANCHORS, want_attention=True), want[1])
    stats = backend.stats()
    del stats["rows_per_call"], stats["sibling_hit_share"]
    assert stats == {"calls": calls, "full_hits": calls - 4, "rows_computed": 45, "rows_reused": 42,
                     "siblings_computed": 1, "sibling_hits": 1}
    assert same_bytes(backend.score(OTHER + [7], want_attention=True), want[2])
    assert log == [(2, len(PROMPT), 1), (1, len(OTHER), 1)]  # the pair in one call, then one row past OTHER


def test_a_sibling_takes_a_stream_whose_old_tip_is_then_computed_again():
    backend = ToyBackend(model(8, SHAPES[0]))
    contexts = [[2 + i] * 10 for i in range(_STREAMS)]
    for ctx in contexts:
        backend.score(ctx)
    backend.score([20] * 12, {0})  # a masked pass: takes the least recently used stream
    streams_of = {key: entry[0] for key, entry in backend._tips.items()}
    step = [21] * 12
    backend.score(step)  # its sibling, step masked at 0, lands on another stream that held a tip
    sibling = np.array(step)
    sibling[0] = backend.vocab.mask_id
    s = backend._tips[sibling.tobytes()][0]
    (old,) = [key for key, stream in streams_of.items() if stream == s]
    assert old not in backend._tips
    old = np.frombuffer(old, dtype=np.int64).tolist()
    want = one_block(backend, old)
    log = kernel_log(backend)
    assert same_bytes(backend.score(old, want_attention=True), want)
    assert log == [(1, 0, len(old))]  # computed, not read from the stream the sibling took
    assert same_bytes(backend.score(old + [5], want_attention=True), one_block(backend, old + [5]))


def test_a_kernel_error_leaves_no_stream_holding_rows_it_did_not_finish():
    # the kernel writes its rows, then fails: one context alone, then an anchored pair
    backend = ToyBackend(model(10, SHAPES[0]))
    prompt = list(range(2, 22))
    rows = backend._rows

    def fail(kv, start, h):
        rows(kv, start, h)
        raise RuntimeError("kernel failed")

    for ctx, masks in ((prompt, ()), (prompt, (2, 3)), (prompt + [5], ())):
        backend._rows = fail
        with pytest.raises(RuntimeError):
            backend.score(ctx, masks)
        backend._rows = rows
        backend.score(ctx, masks)
    backend._rows = fail
    with pytest.raises(RuntimeError):
        backend.score(prompt + [5, 6])  # with its sibling at {2, 3}
    backend._rows = rows
    for ctx in (prompt + [5, 6], prompt + [5, 6, 7]):
        for masks in ((), (2, 3)):
            assert same_bytes(backend.score(ctx, masks, want_attention=True), one_block(backend, ctx, masks))


def test_a_wasted_guess_changes_nothing(rng):
    for seed, shape in enumerate(SHAPES):
        backend = ToyBackend(model(seed, shape))
        prompt = rng.integers(2, shape[3], size=20).tolist()
        backend.score(prompt)
        backend.score(prompt, {2, 3})
        step = prompt + [7]
        # a greedy step right after a masked pass: the sibling at {2, 3} is computed in vain
        assert same_bytes(backend.score(step, want_attention=True), one_block(backend, step))
        assert same_bytes(backend.score(step, {9, 1}, want_attention=True), one_block(backend, step, [1, 9]))
        stats = backend.stats()
        assert (stats["siblings_computed"], stats["sibling_hits"]) == (1, 0)
        assert same_bytes(backend.score(step, {2, 3}, want_attention=True), one_block(backend, step, [2, 3]))
        assert backend.stats()["sibling_hits"] == 1  # asked for after all: now it is returned
        # a new prompt right after a masked pass, as a greedy decode after an anchored one: no guess at all
        other = [(t + 1) % shape[3] or 2 for t in prompt[:4]] + prompt[4:]
        assert same_bytes(backend.score(other, want_attention=True), one_block(backend, other))
        assert backend.stats()["siblings_computed"] == 1


@pytest.mark.parametrize("seed", [0, 1])
def test_threads_stepping_anchored_pairs_get_serial_bytes(seed):
    # a guess follows the backend's last call, whichever thread made it: after another
    # thread's masked call of another prompt nothing is guessed, and no bytes change
    rng = np.random.default_rng(seed)
    config = model(seed, SHAPES[0])
    anchors = [frozenset({1, 2, 3}), frozenset({10, 11}), frozenset({5})]
    branches = [[2 + i] + rng.integers(2, 32, size=119).tolist() for i in range(3)]  # three prompts from the first token
    requests = [[(b[:n], m) for n in range(20, 121) for m in (frozenset(), a)] for b, a in zip(branches, anchors)]
    serial = []
    for reqs in requests:
        alone = ToyBackend(config)
        serial.append([alone.score(c, m).logits for c, m in reqs])
    shared = ToyBackend(config)
    got = [[] for _ in requests]
    start = threading.Barrier(len(requests))

    def run(i):
        start.wait()
        got[i] = [shared.score(c, m).logits for c, m in requests[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(requests))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(len(requests)):
        assert len(got[i]) == len(requests[i])
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got[i], serial[i]))
    # no count was lost, and every guess had the caller's own positions and was asked for
    stats = shared.stats()
    assert stats["calls"] == sum(map(len, requests))
    assert stats["full_hits"] == stats["sibling_hits"] == stats["siblings_computed"]
    assert stats["siblings_computed"] <= sum(len(reqs) // 2 - 1 for reqs in requests)


def test_stats_match_counted_truth(rng):
    backend = ToyBackend(model(9, SHAPES[1]))
    log = kernel_log(backend)
    calls = hits = masked_without_rows = 0
    contexts = anchored_walk(rng, 16, 30, prompt_len=12)
    requests = [(c, m) for c in contexts for m in ((), (1, 2))]
    requests += [(c + [3], ()) for c in contexts[::5]]  # greedy steps: each guesses in vain
    requests += [(c, (0,)) for c in contexts[::7]]  # masked elsewhere, some right after a guess
    for ctx, masks in requests:
        before = len(log)
        backend.score(ctx, masks)
        calls += 1
        hits += len(log) == before
        masked_without_rows += bool(masks) and len(log) == before
    stats = backend.stats()
    assert stats["calls"] == calls == len(requests)
    assert stats["full_hits"] == hits
    assert stats["rows_computed"] == sum(s * r for s, _, r in log)
    assert stats["rows_reused"] == sum(s * start for s, start, _ in log)  # each context is under 64 rows: one call
    assert stats["siblings_computed"] == sum(s == 2 for s, _, _ in log)
    assert stats["sibling_hits"] == masked_without_rows  # no masked context is asked for twice
    assert 0 < stats["sibling_hits"] < stats["siblings_computed"]
    assert stats["rows_per_call"] == stats["rows_computed"] / calls
    assert stats["sibling_hit_share"] == stats["sibling_hits"] / stats["siblings_computed"]
