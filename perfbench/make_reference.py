"""Regenerate ``reference.json``: the outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run it only on a commit whose results are known to be right; the
benchmark then fails any later commit whose cells move by more than
1e-3 or whose lint counts on the frozen corpus change.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HERE, ROOT, pin_environment  # noqa: E402


def main():
    pin_environment()
    os.chdir(ROOT)
    from wl_lint import LintTree
    from wl_matrix import REF_SEEDS, SamplerSweepWarm, Table2Cold

    reference = {}
    for workload in (Table2Cold(), SamplerSweepWarm()):
        reference[workload.name] = {}
        for seed in range(REF_SEEDS):
            workload.setup(seed, check=False)
            reference[workload.name][str(seed)] = workload.run_once()[1]
            print(workload.name, seed, flush=True)
    lint = LintTree()
    lint.setup(0, check=False)
    reference[lint.name] = lint.run_once()
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
