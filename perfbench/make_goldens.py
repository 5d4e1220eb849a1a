"""Writes goldens.json: a digest of every op's output for the default seed.

Usage, from the root of a checkout: python3 perfbench/make_goldens.py

Op i's inputs depend only on the seed and i, so the file covers the first
GOLDEN_OPS ops of each workload, more than a run on this kind of machine
completes. Regenerate it only when a change is meant to alter outputs.
"""

import json
import sys

import run

SEED = 0
GOLDEN_OPS = {"decode-long": 6, "beam-trie": 200, "eval-sandbox": 300, "remote-short": 500}


def main() -> int:
    if not run.load_package():
        print("make_goldens: no package source under src", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    ops = {}
    for name, count in GOLDEN_OPS.items():
        wl = WORKLOADS[name]()
        wl.setup()
        try:
            inputs, results = run.run_ops(wl, SEED, count=count)
            failures = run.check_ops(wl, inputs, results, None)
        finally:
            wl.close()
        if failures:
            print(f"make_goldens: {name} op {failures[0][0]} failed: {failures[0][1]}", file=sys.stderr)
            return 1
        ops[name] = [run.digest(op.output) for op in results]
        print(f"{name}: {count} ops", file=sys.stderr)
    with open(run.GOLDENS, "w", encoding="utf-8") as fp:
        json.dump({"seed": SEED, "ops": ops}, fp, indent=0)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
