#!/usr/bin/env python3
"""Time the modular rank elimination on generic conditions matrices.

For each degree the conditions matrix of a fixed nonspecial class is built
at random rational points drawn from SEED, once mod CERT_PRIMES[0] and
once mod RANK_PRIME, and `rank_mod_p_array` eliminates a fresh copy of it
--repeat times.  The classes are those of the benchmark's generic workload, and
d = 39 is (39; 15, 12^9).  Prints one JSON document: per degree and prime
the matrix shape, the rank, and the best and median seconds.
"""

import argparse
import json
import random
import statistics
import sys
import time

from linserlab import _linalg
from linserlab.fatpoints import (FatPointSystem, conditions_matrix,
                                 random_rational_points)

CLASSES = {
    16: (5,) * 9 + (4,),
    19: (6,) * 10,
    22: (7,) * 10,
    28: (9,) + (8,) * 10,
    39: (15,) + (12,) * 9,
}

SEED = 5


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degrees", type=int, nargs="+", default=sorted(CLASSES),
                    choices=sorted(CLASSES))
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")

    rows = []
    for d in args.degrees:
        mults = CLASSES[d]
        pts = random_rational_points(len(mults), random.Random(SEED))
        system = FatPointSystem(d, pts, mults)
        for p in (_linalg.CERT_PRIMES[0], _linalg.RANK_PRIME):
            residues = conditions_matrix(system, p)
            times = []
            for _ in range(args.repeat):
                a = residues.copy()
                t0 = time.perf_counter()
                rank = _linalg.rank_mod_p_array(a, p)
                times.append(time.perf_counter() - t0)
            rows.append({"d": d, "mults": list(mults),
                         "shape": list(residues.shape), "prime": p,
                         "rank": rank, "best_s": min(times),
                         "median_s": statistics.median(times)})
    json.dump({"seed": SEED, "repeat": args.repeat, "rows": rows},
              sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
