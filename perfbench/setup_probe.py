"""Time sbqs set-up for one config in a fresh process.

    python3 perfbench/setup_probe.py <src dir> <config.json>

Times ``import sbqs``, ``load_config`` and ``experiment._prepare`` on the
loaded config, and prints {"setup_s": ..., "wall_s": ...} as JSON.
Interpreter start-up is not timed.  ``setup_s`` is the wall time rescaled to
the reference host speed with ``speed.small_kernel``, since set-up is mostly
imports and interpreter work.  The kernel runs only after the timed part,
because it imports numpy, whose import is part of set-up.
"""

import json
import statistics
import sys
import time

#: Speed-kernel samples taken right after the timed part.
SAMPLES = 20


def main(src: str, config_path: str) -> None:
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from sbqs import experiment
    from sbqs.config import load_config

    experiment._prepare(load_config(config_path))
    wall = time.perf_counter() - t0
    from speed import KERNELS

    kernel, reference = KERNELS["small"]
    kernel()  # first call pays for numpy's lazy set-up
    speed = statistics.fmean(kernel() for _ in range(SAMPLES))
    print(json.dumps({"setup_s": wall * reference / speed, "wall_s": wall}))


if __name__ == "__main__":
    main(*sys.argv[1:])
