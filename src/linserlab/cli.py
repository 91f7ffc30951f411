"""Batch command-line front end.

Every subcommand reads exact data (integers or [num, den] pairs), runs one
module, and prints a JSON report carrying the seed and tool version.  Exit
codes: 0 success or certified, 1 usage or parse error, 2 a counter-witness
was found (nonempty system, failed verification), 3 undecided or boundary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from . import arrangements, dumnicki, fatpoints, surfaces, symbolic, toric
from .lattice import CutFunctional, triangle_set

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTER = 2
EXIT_UNDECIDED = 3


class _Parser(argparse.ArgumentParser):
    """argparse that follows the exit-code contract (1 for usage errors)."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _frac(x):
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return [x.numerator, x.denominator]


def _mults(text: str):
    return tuple(int(t) for t in text.split(",") if t)


def _emit(report: dict, path: Optional[str]) -> None:
    text = json.dumps(report, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _envelope(args, **fields) -> dict:
    out = {"command": args.cmd, "version": __version__,
           "seed": getattr(args, "seed", fatpoints.DEFAULT_SEED)}
    out.update(fields)
    return out


# ---------------------------------------------------------------------------
# subcommand handlers


def _system_from_json(doc: dict) -> fatpoints.FatPointSystem:
    pts = tuple(
        tuple(Fraction(int(c[0]), int(c[1])) for c in p)
        for p in doc["points"]
    )
    pts = tuple(fatpoints.normalize_proj(p) for p in pts)
    return fatpoints.FatPointSystem(int(doc["degree"]), pts,
                                    tuple(int(m) for m in doc["mults"]))


def _report_fields(rep: fatpoints.SystemReport) -> dict:
    return {"degree": rep.d, "mults": list(rep.mults), "h0": rep.h0,
            "h1": rep.h1, "chi": rep.chi, "expected": rep.expected,
            "special": rep.special}


def run_cohomology(args) -> int:
    if args.system:
        rep = fatpoints.cohomology(_system_from_json(_load(args.system)))
    else:
        if args.degree is None or args.mults is None:
            raise ValueError("need --degree and --mults (or --system)")
        rep = fatpoints.generic_cohomology(args.degree, _mults(args.mults),
                                           seed=args.seed,
                                           trials=args.trials)
    _emit(_envelope(args, **_report_fields(rep)), args.output)
    return EXIT_OK


_CONFIG_PARAM = {"star": "s", "collinear": "r", "random": "r",
                 "pencil_products": "k"}


def _config_points(args):
    kind = args.config
    if kind not in _CONFIG_PARAM:
        raise ValueError(f"unknown configuration {kind!r}")
    params = {_CONFIG_PARAM[kind]: args.param}
    return fatpoints.make_config(kind, params, seed=args.seed)


def run_alpha(args) -> int:
    cfg = _config_points(args)
    value = fatpoints.alpha(cfg.points, args.m)
    _emit(_envelope(args, config=args.config, param=args.param, m=args.m,
                    points=len(cfg.points), alpha=value), args.output)
    return EXIT_OK


def run_waldschmidt(args) -> int:
    cfg = _config_points(args)
    lo, hi = fatpoints.waldschmidt_sandwich(cfg.points, args.k)
    ch = fatpoints.chudnovsky_report(cfg.points)
    _emit(_envelope(args, config=args.config, param=args.param, k=args.k,
                    points=len(cfg.points), lower=_frac(lo), upper=_frac(hi),
                    chudnovsky={"alpha1": ch.alpha1, "alpha2": ch.alpha2,
                                "bound": _frac(ch.bound),
                                "equality": ch.equality_witness}),
          args.output)
    return EXIT_OK


def _cut_coefficient(pair) -> Fraction:
    """One [num, den] coefficient of a cut; the denominator must be nonzero."""
    num, den = (int(x) for x in pair)
    if den == 0:
        raise ValueError(f"cut coefficient {pair!r} has a zero denominator")
    return Fraction(num, den)


def run_empty(args) -> int:
    if args.family:
        if args.family != "paper":
            raise ValueError(f"unknown family {args.family!r}")
        if args.n is None:
            raise ValueError("--family paper needs --n")
        D, mults, cuts = dumnicki.paper_family(args.n)
        default_out = f"certificate_paper_n{args.n}.json"
    elif args.problem:
        doc = _load(args.problem)
        if "degree" in doc:
            D = triangle_set(int(doc["degree"]))
        else:
            D = frozenset(tuple(int(c) for c in p) for p in doc["points"])
        mults = tuple(int(m) for m in doc["mults"])
        if "cuts" in doc:
            cuts = tuple(CutFunctional(_cut_coefficient(a),
                                       _cut_coefficient(b),
                                       _cut_coefficient(c))
                         for a, b, c in doc["cuts"])
        else:
            cuts = dumnicki.search_cuts(D, mults, args.budget)
        default_out = "certificate.json"
    else:
        raise ValueError("need --family or --problem")

    edim = len(D) - sum(m * (m + 1) // 2 for m in mults)
    if cuts is None:
        if edim > 0:
            _emit(_envelope(args, certified=False,
                            reason="expected dimension is positive",
                            expected_dimension=edim), args.output)
            return EXIT_COUNTER
        _emit(_envelope(args, certified=False,
                        reason="no cut list found within budget"),
              args.output)
        return EXIT_UNDECIDED

    result = dumnicki.prove_empty(D, mults, cuts)
    if isinstance(result, dumnicki.Failure):
        report = _envelope(args, certified=False, piece=result.piece_index,
                           reason=result.reason)
        if result.witness is not None:
            w = result.witness
            report["witness"] = {
                "kind": w.kind,
                "support": [list(p) for p in w.support],
                "coeffs": [_frac(c) for c in w.coeffs],
            }
            _emit(report, args.output)
            return EXIT_COUNTER
        _emit(report, args.output)
        return EXIT_UNDECIDED
    doc = dumnicki.certificate_to_json(D, mults, result)
    out = args.certificate or default_out
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    _emit(_envelope(args, certified=True, pieces=len(result.pieces),
                    certificate=out, digest=doc["digest"]), args.output)
    return EXIT_OK


def run_verify(args) -> int:
    ok, detail = dumnicki.verify_certificate_json(_load(args.certificate))
    if ok:
        _emit(_envelope(args, verified=True), args.output)
        return EXIT_OK
    _emit(_envelope(args, verified=False, piece=detail.get("piece"),
                    reason=detail.get("reason")), args.output)
    return EXIT_COUNTER


def run_toric(args) -> int:
    if args.action == "fan":
        doc = _load(args.input)
        if "chain" in doc:
            poly = toric.UnboundedPolygon(
                tuple(tuple(int(c) for c in p) for p in doc["chain"]),
                tuple(int(c) for c in doc["ray"]))
        else:
            poly = [tuple(int(c) for c in p) for p in doc["vertices"]]
        cones = toric.normal_fan(poly)
        _emit(_envelope(args, cones=[[list(g) for g in c.generators]
                                     for c in cones]), args.output)
        return EXIT_OK
    if args.action == "subdivide":
        points, heights = toric.subdivision_from_json(_load(args.input))
        sub = toric.lower_hull_subdivision(points, heights)
        _emit(_envelope(args, **toric.subdivision_to_json(sub)), args.output)
        return EXIT_OK
    raise ValueError(f"unknown toric action {args.action!r}")


def run_surface(args) -> int:
    if args.action == "kollar":
        rep = surfaces.kollar_report(args.n)
        _emit(_envelope(args, n=rep.n, An=list(rep.An.coeffs),
                        AnSq=rep.AnSq, An_dot_F1F2=rep.An_dot_F1F2,
                        nAn_minus_R_sq=rep.nAn_minus_R_sq, chi=rep.chi,
                        h1_lower=rep.h1_lower, h0_Cn=rep.h0_Cn,
                        nef=surfaces.ee_nef_test(*rep.An.coeffs)),
              args.output)
        return EXIT_OK
    if args.action == "nef":
        _emit(_envelope(args, a1=args.a1, a2=args.a2, b=args.b,
                        nef=surfaces.ee_nef_test(args.a1, args.a2, args.b)),
              args.output)
        return EXIT_OK
    if args.action == "counterexample":
        _emit(_envelope(args, c=args.c, n=surfaces.counterexample_n(args.c)),
              args.output)
        return EXIT_OK
    if args.action == "bounds":
        inv = surfaces.SurfaceInvariants(args.c1sq, args.c2)
        _emit(_envelope(args, c1sq=args.c1sq, c2=args.c2, genus=args.genus,
                        vwbnc=surfaces.vwbnc_bound(inv, args.genus),
                        wbnc=surfaces.wbnc_bound(inv, args.genus)),
              args.output)
        return EXIT_OK
    raise ValueError(f"unknown surface action {args.action!r}")


def run_negativity(args) -> int:
    kind = args.config
    if kind.startswith("pg"):
        q = args.q if args.q is not None else (
            int(kind[2:]) if kind[2:] else None)
        if q is None:
            raise ValueError("projective plane config needs --q")
        cfg = surfaces.build_incidence("projective_plane", {"q": q})
    elif kind in ("projective_plane",):
        if args.q is None:
            raise ValueError("projective plane config needs --q")
        cfg = surfaces.build_incidence(kind, {"q": args.q})
    elif kind == "general_lines":
        if args.s is None:
            raise ValueError("general_lines needs --s")
        cfg = surfaces.build_incidence(kind, {"s": args.s,
                                              "seed": args.seed})
    elif kind in ("collinear", "exceptional_only"):
        if args.n is None:
            raise ValueError(f"{kind} needs --n")
        cfg = surfaces.build_incidence(kind, {"n": args.n})
    else:
        raise ValueError(f"unknown configuration {kind!r}")
    c2 = surfaces.c_squared(cfg)
    brute = surfaces.c_squared_bruteforce(cfg)
    assert c2 == brute
    _emit(_envelope(args, config=cfg.kind, points=len(cfg.points),
                    lines=len(cfg.lines), c_squared=c2,
                    ratio=_frac(surfaces.ratio_report(cfg))), args.output)
    return EXIT_OK


def run_symbolic(args) -> int:
    ideal = symbolic.ideal_from_json(_load(args.ideal))
    if args.action == "suite":
        suite = symbolic.containment_suite(ideal, args.r)
        chain = symbolic.els_chain_check(ideal, args.r)
        _emit(_envelope(args, ideal=symbolic.ideal_to_json(ideal), r=args.r,
                        els=suite.els, harbourne=suite.harbourne,
                        hh1=suite.hh1, hh2=suite.hh2, hh3=suite.hh3,
                        hh4=suite.hh4,
                        chain={"left": chain.left, "middle": chain.middle,
                               "right": chain.right}), args.output)
        return EXIT_OK
    if args.action == "multiplier":
        t = Fraction(args.t)
        try:
            result = symbolic.asymptotic_multiplier(ideal, t)
        except symbolic.StabilizationError as exc:
            _emit(_envelope(args, stabilized=False, detail=str(exc)),
                  args.output)
            return EXIT_UNDECIDED
        _emit(_envelope(args, t=_frac(t), stabilized=True,
                        multiplier=symbolic.ideal_to_json(result)),
              args.output)
        return EXIT_OK
    if args.action == "power":
        fn = symbolic.power if args.ordinary else symbolic.symbolic_power
        result = fn(ideal, args.m)
        _emit(_envelope(args, m=args.m, ordinary=bool(args.ordinary),
                        power=symbolic.ideal_to_json(result)), args.output)
        return EXIT_OK
    raise ValueError(f"unknown symbolic action {args.action!r}")


def _arrangement_from_args(args) -> arrangements.LineArrangement:
    if args.m8:
        return arrangements.m8_minus()
    if args.generic:
        return arrangements.generic_arrangement(args.generic, args.seed)
    if args.arrangement:
        doc = _load(args.arrangement)
        return arrangements.LineArrangement(
            tuple(tuple(int(c) for c in f) for f in doc["lines"]))
    raise ValueError("need --arrangement, --m8 or --generic")


def run_ot(args) -> int:
    arr = _arrangement_from_args(args)
    if args.action == "counts":
        gc = arrangements.graded_counts(arr, args.maxdeg)
        sing = arrangements.singular_points(arr)
        circs = arrangements.circuits(arr, min(len(arr), 4))
        _emit(_envelope(args, lines=len(arr),
                        singular_points=[[list(p), t] for p, t in sing],
                        circuits={"size3": sum(1 for c in circs
                                               if len(c.indices) == 3),
                                  "size4": sum(1 for c in circs
                                               if len(c.indices) == 4)},
                        min_gens_by_degree=dict(
                            (str(k), v) for k, v in gc.min_gens_by_degree),
                        linear_syzygies=gc.linear_syzygies), args.output)
        return EXIT_OK
    if args.action == "divisor":
        rep = arrangements.da_divisor(arr)
        _emit(_envelope(args, lines=len(arr), degree=rep.divisor.d,
                        mults=list(rep.divisor.mults),
                        line_pairings=list(rep.line_pairings),
                        exceptional_pairings=list(rep.exceptional_pairings),
                        nef_partial=rep.nef_partial), args.output)
        return EXIT_OK
    raise ValueError(f"unknown ot action {args.action!r}")


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    top = _Parser(prog="linserlab",
                  description="exact linear-series calculations "
                              "with machine-checkable certificates")
    subs = top.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=fatpoints.DEFAULT_SEED)
        p.add_argument("--output", help="write the JSON report here")

    p = subs.add_parser("cohomology", parents=[], help="h0/h1 of a system")
    p.add_argument("--degree", type=int)
    p.add_argument("--mults")
    p.add_argument("--trials", type=int, default=2)
    p.add_argument("--system", help="system JSON with explicit points")
    common(p)
    p.set_defaults(fn=run_cohomology)

    p = subs.add_parser("alpha", help="initial degree of a configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--param", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    common(p)
    p.set_defaults(fn=run_alpha)

    p = subs.add_parser("waldschmidt", help="sandwich bounds and Chudnovsky")
    p.add_argument("--config", required=True)
    p.add_argument("--param", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    common(p)
    p.set_defaults(fn=run_waldschmidt)

    p = subs.add_parser("empty", help="prove a system empty by cutting")
    p.add_argument("--family")
    p.add_argument("--n", type=int)
    p.add_argument("--problem", help="problem JSON")
    p.add_argument("--budget", type=int, default=4000)
    p.add_argument("--certificate", help="certificate output path")
    common(p)
    p.set_defaults(fn=run_empty)

    p = subs.add_parser("verify", help="re-check an emitted certificate")
    p.add_argument("certificate")
    common(p)
    p.set_defaults(fn=run_verify)

    p = subs.add_parser("toric", help="normal fans and lower-hull "
                                      "subdivisions")
    p.add_argument("action", choices=("fan", "subdivide"))
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(fn=run_toric)

    p = subs.add_parser("surface", help="product-of-elliptic-curves numbers")
    p.add_argument("action",
                   choices=("kollar", "nef", "counterexample", "bounds"))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--a1", type=int, default=0)
    p.add_argument("--a2", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--c", type=int, default=0)
    p.add_argument("--c1sq", type=int, default=9)
    p.add_argument("--c2", type=int, default=3)
    p.add_argument("--genus", type=int, default=0)
    common(p)
    p.set_defaults(fn=run_surface)

    p = subs.add_parser("negativity", help="incidence self-intersections")
    p.add_argument("--config", required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--n", type=int)
    common(p)
    p.set_defaults(fn=run_negativity)

    p = subs.add_parser("symbolic", help="symbolic powers and containments")
    p.add_argument("action", choices=("suite", "multiplier", "power"))
    p.add_argument("--ideal", required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--t", default="1")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--ordinary", action="store_true")
    common(p)
    p.set_defaults(fn=run_symbolic)

    p = subs.add_parser("ot", help="arrangement circuits and graded counts")
    p.add_argument("action", choices=("counts", "divisor"))
    p.add_argument("--arrangement")
    p.add_argument("--m8", action="store_true")
    p.add_argument("--generic", type=int)
    p.add_argument("--maxdeg", type=int, default=3)
    common(p)
    p.set_defaults(fn=run_ot)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError,
            json.JSONDecodeError) as exc:
        print(f"linserlab: error: {exc}", file=sys.stderr)
        with contextlib.suppress(OSError):  # stdout itself may be the fault
            print(json.dumps(_envelope(args, error=str(exc)), indent=2))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
