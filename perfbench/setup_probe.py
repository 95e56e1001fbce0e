"""Time the pipeline's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py CONFIG CACHE_DIR

Prints the seconds spent importing gradspace, parsing CONFIG and resolving
its model against CACHE_DIR, which should be empty: for the elliptic model
that covers the expansion eigenproblem, for the analytic ones their gradient
self-check. Interpreter start-up is not included.
"""

import sys
import time


def main(config: str, cache_dir: str) -> float:
    start = time.perf_counter()
    from gradspace import cli
    from gradspace.config import load_config

    cli.resolve_model(load_config(config), cache_dir=cache_dir)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1], sys.argv[2])))
