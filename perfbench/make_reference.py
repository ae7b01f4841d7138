"""Rewrite reference.json from the current program.

The benchmark compares the first drops of the default workload seed with
these values. Regenerate only for a change that is meant to alter the CDF
output, and say so with the change. Run from the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py
"""

import json
from pathlib import Path

import losmimo
from workloads import REFERENCE_PATH, WORKLOADS, reference_values, write_config


def main() -> None:
    work_dir = Path(__file__).resolve().parent.parent / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    reference = {
        name: reference_values(w, losmimo.load_config(write_config(w, work_dir)))
        for name, w in WORKLOADS.items() if w.reference_drops
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
