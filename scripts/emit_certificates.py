#!/usr/bin/env python3
"""Emit and re-verify emptiness certificates for the nine-cut family.

Writes one JSON document per n into --outdir and prints a summary row per
certificate, with the proving time (the pieces, their evidence and the
JSON document) and the verifying time (reading the written document back
and checking it from scratch) apart.  A nonzero exit means a real failure.
"""

import argparse
import json
import pathlib
import sys
import time

from linserlab.dumnicki import (
    certificate_to_json,
    paper_family,
    prove_empty,
    verify_certificate_json,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    which = ap.add_mutually_exclusive_group()
    which.add_argument("--n-max", type=int, default=10,
                       help="emit certificates for n = 1 .. N_MAX")
    which.add_argument("--n", type=int, nargs="+", metavar="N",
                       help="emit certificates for these n only, "
                            "e.g. --n 10 20 40 80")
    ap.add_argument("--outdir", type=pathlib.Path,
                    default=pathlib.Path("certificates"))
    args = ap.parse_args()
    ns = args.n if args.n else range(1, args.n_max + 1)
    if not ns or min(ns) < 1:
        ap.error("every n must be >= 1")
    args.outdir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for n in ns:
        t0 = time.monotonic()
        D, mults, cuts = paper_family(n)
        result = prove_empty(D, mults, cuts)
        doc = certificate_to_json(D, mults, result)
        t1 = time.monotonic()
        path = args.outdir / f"family_n{n}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")))
        t2 = time.monotonic()
        ok, detail = verify_certificate_json(json.loads(path.read_text()))
        t3 = time.monotonic()
        status = "ok" if ok else f"FAILED {detail}"
        print(f"n={n:2d}  degree={13 * n:4d}  points={len(D):6d}  "
              f"pieces={len(result.pieces)}  prove={t1 - t0:7.2f}s  "
              f"verify={t3 - t2:7.2f}s  {status}", flush=True)
        if not ok:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
