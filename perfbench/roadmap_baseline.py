"""Measures the ROADMAP open-item-1 baseline figures on this machine, once.

Usage, from the root of a checkout: python3 perfbench/roadmap_baseline.py

The ROADMAP's set-up: the CLI default toy backend (vocab 32, dim 32, 2
layers, 4 heads, 256 positions), a 48-token prompt with 16 anchored tokens,
200 new tokens. The vocabulary here has no stop token, so both decodes run
the full 200 tokens. Prints one JSON object; a record, not a gate.
"""

import json
import statistics
import sys
from time import perf_counter

import run


def main() -> int:
    if not run.load_package():
        print("roadmap_baseline: no package source under src", file=sys.stderr)
        return 2
    from anchored_decoding import LogitServer, RemoteBackend, ToyBackend, decoding
    from anchored_decoding.anchoring import AnchorResolution
    from workloads import FIXED, model_config

    backend = ToyBackend(model_config(32, stop_token=False))
    prompt = [2 + k % 30 for k in range(48)]
    pair = (prompt, AnchorResolution(frozenset(range(16, 32)), 48))
    limits = decoding.DecodeLimits(200)
    t0 = perf_counter()
    decoding.greedy_decode(backend, prompt, limits)
    greedy_s = perf_counter() - t0
    t0 = perf_counter()
    anchored = decoding.anchored_decode(backend, pair, FIXED, limits)
    anchored_s = perf_counter() - t0

    # Local and remote calls alternate, so a drift in machine speed hits both.
    local_ms, remote_ms = [], []
    with LogitServer(backend) as server, RemoteBackend(*server.address) as remote:
        for _ in range(200):
            for b, times in ((backend, local_ms), (remote, remote_ms)):
                t = perf_counter()
                b.score(prompt)
                times.append((perf_counter() - t) * 1e3)
    print(
        json.dumps(
            {
                "greedy_200_s": greedy_s,
                "anchored_200_s": anchored_s,
                "anchored_over_greedy": anchored_s / greedy_s,
                "anchored_step_ms_first": anchored.wall_times[0] * 1e3,
                "anchored_step_ms_last": anchored.wall_times[-1] * 1e3,
                "score_ms_remote_t48": statistics.median(remote_ms),
                "score_ms_local_t48": statistics.median(local_ms),
            },
            indent=1,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
