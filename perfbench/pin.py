"""Record the pinned answers in pinned.json from the library as it stands.

    python3 perfbench/pin.py

Runs two rounds of every workload for three seeds, plus the baseline
operations, and stores each pinned answer by its key.  A key whose answer
changes with the random draw is an error: pinned keys must name inputs
whose answer does not depend on coordinates.  Closed-form checks run too.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads
from run import OUT, PINNED, Runner, load_library


def main() -> int:
    lib = load_library()
    record = {}
    runner = Runner(lib, None, record=record)
    work_dir = OUT / "pin-work"
    work = workloads.Work(str(work_dir))
    try:
        for name, (round_fn, baseline_fn) in workloads.WORKLOADS.items():
            for seed in (1, 2, 3):
                for rnd in (0, 1):
                    rng = workloads.round_rng(name, seed, rnd)
                    runner.run(round_fn(lib, rng, work, rnd))
            rng = workloads.round_rng(name, "baseline", 0)
            runner.run(baseline_fn(lib, rng, work))
            print(f"{name}: {len(runner.outcomes)} operations so far",
                  flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = [o for o in runner.outcomes if o.failed]
    for o in failed:
        print(f"FAILED {o.op.kind} {o.op.argv}: {o.reason}", file=sys.stderr)
    if failed:
        return 1
    lines = [f" {json.dumps(k)}: {json.dumps(v)}"
             for k, v in sorted(record.items())]
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"pinned {len(record)} answers in {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
