"""One set-up sample, taken in a fresh interpreter.

Times `import losmimo`, the config load and one untimed-in-the-loop warm-up
operation (one drop, or a tiny `verify`), and prints the seconds taken.

    python3 setup_probe.py <config path> run <seed>
    python3 setup_probe.py <config path> verify <seed> <symbols>
"""

import sys
import time


def main(argv) -> int:
    cfg_path, kind, seed = argv[0], argv[1], int(argv[2])
    start = time.perf_counter()
    import dataclasses

    import losmimo

    cfg = losmimo.load_config(cfg_path)
    if kind == "run":
        losmimo.run_scenario(dataclasses.replace(cfg, seed=seed, drops=1))
    else:
        losmimo.verify(dataclasses.replace(cfg, seed=seed), int(argv[3]))
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
