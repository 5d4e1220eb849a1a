"""Child process for the benchmark's set-up: imports the package from the
checkout and builds a workload's toy backend in a fresh interpreter.

Usage: python3 perfbench/child.py VOCAB_SIZE STOP_TOKEN(0|1) probe|serve

``probe`` scores one short context and exits. ``serve`` starts a
LogitServer, prints its port as one line, and serves until its standard
input is closed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from anchored_decoding import LogitServer, ToyBackend  # noqa: E402
from workloads import model_config  # noqa: E402


def main() -> None:
    backend = ToyBackend(model_config(int(sys.argv[1]), sys.argv[2] == "1"))
    if sys.argv[3] == "probe":
        backend.score([2] * 8)
        return
    with LogitServer(backend) as server:
        print(server.address[1], flush=True)
        sys.stdin.read()


if __name__ == "__main__":
    main()
