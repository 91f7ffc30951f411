"""linserlab benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload generic --seed 1 --seconds 18 --trace 0

Run from the root of a linserlab checkout.  One caller runs one operation
at a time (a closed loop, no extra threads); an operation is one in-process
`linserlab.cli.main(argv)` call with stdout captured, or one library call
where no subcommand covers it.  Rounds of the workload's operation list run
until --seconds have passed, always finishing the round, so every run holds
the same mix.  Every answer is checked (oracle.py); the last stdout line is
the JSON result.  --trace 1 reports the per-layer metrics instead: two
rounds of the mix are traced (trace.py), whatever --seconds says, then the
ROADMAP baseline operations and known-hard probes run.  Reports and spans go to perfbench/out/.
"""

from __future__ import annotations

import os

THREAD_PINS = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)  # before numpy is imported

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from fractions import Fraction
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINNED = HERE / "pinned.json"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 75
# The traced mix is a fixed amount of work, so that its counts and totals
# do not grow with the speed of the host or the program.
TRACED_ROUNDS = 2
# Timings are scaled to a host on which host_ref_s() takes this long.  The
# sandbox this was tuned on drifted between about 1.5 and 3 ms from one
# minute to the next, and every operation's time drifted with it.
REF_NOMINAL_S = 0.002
MODULES = ("_linalg", "fatpoints", "lattice", "dumnicki", "toric",
           "symbolic", "arrangements", "surfaces", "cli")


class Outcome:
    __slots__ = ("op", "rc", "doc", "seconds", "failed", "undecided",
                 "reason", "id")

    def __init__(self, op, rc, doc, seconds, reason, op_id):
        self.op, self.rc, self.doc, self.seconds = op, rc, doc, seconds
        self.failed = reason is not None
        self.undecided = not self.failed and rc == 3
        self.reason, self.id = reason, op_id


class Runner:
    """Runs operations one at a time, times them, checks every answer.

    With `record` set (pin.py), pinned answers are collected instead of
    compared, and a key seen twice must give the same answer.
    """

    def __init__(self, lib, pinned, record=None):
        self.lib, self.pinned, self.record = lib, pinned, record
        self.tracer = None  # set while a traced run records spans
        self.outcomes = []
        self.refs = []  # host reference time after each operation

    def run(self, gen, op=None):
        """Drive a round generator, sending each outcome back into it.

        `op` is the generator's first operation when it was already primed.
        """
        done = []
        out = None
        while True:
            if op is None:
                try:
                    op = gen.send(out)
                except StopIteration:
                    return done
            out = self.run_op(op)
            done.append(out)
            op = None

    def run_op(self, op):
        from oracle import Mismatch, cli_document
        op_id = len(self.outcomes)
        if self.tracer is not None:
            self.tracer.op = op_id
        rc = doc = exc = None
        stdout = io.StringIO()
        t0 = perf_counter()
        try:
            if op.argv is not None:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = self.lib.cli.main(op.argv)
            else:
                doc = op.call()
        except Exception as e:  # counted as a failed operation
            exc = e
        seconds = perf_counter() - t0
        reason = None
        try:
            if exc is not None:
                raise Mismatch(f"raised {type(exc).__name__}: {exc}")
            if op.argv is not None:
                doc = cli_document(rc, stdout.getvalue())
            if op.check is not None:
                op.check(rc, doc)
            if op.pin is not None:
                self._pinned(op, rc, doc)
        except Mismatch as e:
            reason = str(e)
        except (KeyError, TypeError, ValueError, IndexError,
                AttributeError) as e:
            reason = f"unexpected answer shape: {type(e).__name__}: {e}"
        out = Outcome(op, rc, doc, seconds, reason, op_id)
        self.outcomes.append(out)
        self.refs.append(host_ref_s())
        return out

    def _pinned(self, op, rc, doc):
        from oracle import Mismatch
        got = json.loads(json.dumps(op.extract(rc, doc)))
        if self.record is not None:
            if self.record.setdefault(op.pin, got) != got:
                raise Mismatch(f"answer for {op.pin!r} depends on the draw")
            return
        if op.pin not in self.pinned:
            raise Mismatch(f"no pinned answer for {op.pin!r}")
        if self.pinned[op.pin] != got:
            raise Mismatch(f"answer for {op.pin!r} differs from the pinned "
                           "one")


def load_library():
    """Import linserlab from src/ of this checkout; exit 2 if it is absent."""
    if not (SRC / "linserlab" / "cli.py").is_file():
        print(f"perfbench: no linserlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    lib = argparse.Namespace()
    for m in MODULES:
        setattr(lib, m.lstrip("_"), importlib.import_module(f"linserlab.{m}"))
    return lib


def environment():
    import numpy
    lines = {p.stem: sum(1 for _ in p.open())
             for p in sorted((SRC / "linserlab").glob("*.py"))}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "thread_pins": THREAD_PINS,
            "src_lines": lines, "src_lines_total": sum(lines.values())}


def setup(lib, args, work_dir):
    """Warm up, then write round 0's inputs (imports are already done).

    Returns the runner, the work area, and round 0 primed: its generator
    with the first operation.
    """
    import workloads
    pinned = json.loads(PINNED.read_text())
    work = workloads.Work(str(work_dir))
    runner = Runner(lib, pinned)
    warm = runner.run(workloads.warmup_ops(lib, work))
    bad = [o.reason for o in warm if o.failed]
    if bad:
        print(f"perfbench: warm-up failed: {bad[0]}", file=sys.stderr)
        sys.exit(1)
    runner.outcomes.clear()
    runner.refs.clear()
    gen = round_gen(lib, args, work, 0)
    return runner, work, (gen, next(gen))


def round_gen(lib, args, work, rnd):
    import workloads
    rng = workloads.round_rng(args.workload, args.seed, rnd)
    return workloads.WORKLOADS[args.workload][0](lib, rng, work, rnd)


def host_ref_s():
    """Time of a fixed pure-Python task (integer loop and Fraction sums).

    Shared hosts drift by tens of percent between runs; this figure is
    sampled after every operation, outside its timing, so that drift can be
    told from a change in the program.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    f = Fraction(0)
    for i in range(1, 200):
        f += Fraction(1, i)
    return perf_counter() - t0


def run_rounds(runner, lib, args, work, seconds, first=None):
    """Whole rounds until `seconds` of wall time have passed.

    Returns the outcomes and the number of rounds.
    """
    start = perf_counter()
    rnd = 0
    done = []
    while True:
        if rnd == 0 and first is not None:
            done += runner.run(*first)
        else:
            done += runner.run(round_gen(lib, args, work, rnd))
        rnd += 1
        if perf_counter() - start >= seconds:
            return done, rnd


def measure_setup(args):
    """Wall time of fresh processes that only set up, median of several."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        # no timeout: with one, the wait polls every 50 ms and the timing
        # comes out in 50 ms steps
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times), times


def end_to_end(outcomes, setup_s, ref_s):
    """End-to-end metrics with every time scaled by REF_NOMINAL_S / ref_s.

    ref_s is the median host reference time sampled after each operation
    of this run; with ref_s = REF_NOMINAL_S the values are the raw ones.
    """
    scale = REF_NOMINAL_S / ref_s
    times = [o.seconds * scale for o in outcomes]
    n = len(outcomes)
    q = statistics.quantiles(times, n=4) if n > 1 else times * 3
    return {
        "setup_s": setup_s * scale,
        "ops_per_s": n / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.p75": q[2],
        "answered_frac": sum(not o.failed for o in outcomes) / n,
        "decided_frac": sum(not o.undecided for o in outcomes) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def declared(section):
    """(name, unit) of the metrics BENCHMARK.json lists in `section`."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in doc[section]]


def run_probe(args, work):
    """One known-hard input in a child process, with a time cap."""
    import workloads
    found = workloads.probe(args.workload, work)
    if found is None:
        return None
    name, argv = found
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "linserlab.cli", *argv],
                            cwd=work.root, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        rc = None
    return {"name": name, "argv": argv, "seconds": perf_counter() - t0,
            "exit": rc, "timed_out": rc is None}


def traced(lib, args, runner, work, first):
    """Per-layer metrics of the mix, baselines and probes.

    The mix is rounds 0 .. TRACED_ROUNDS - 1.  Round 0 runs once untraced
    first; its operations against the same operations traced give the
    tracing overhead.
    """
    import workloads
    from trace import Tracer, layer_metrics
    ref = runner.run(*first)
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        mix = []
        for rnd in range(TRACED_ROUNDS):
            mix += runner.run(round_gen(lib, args, work, rnd))
        # baselines are reference points: the same inputs for every seed
        rng = workloads.round_rng(args.workload, "baseline", 0)
        base = runner.run(workloads.WORKLOADS[args.workload][1](
            lib, rng, work))
    finally:
        tracer.uninstall()
        runner.tracer = None
    probe = run_probe(args, work)

    mix_ids = {o.id for o in mix}
    scan_ids = {o.id for o in mix if o.op.kind.endswith(".scan")}
    metrics = layer_metrics(tracer.spans, mix_ids, scan_ids)
    # same inputs in the same order, each time over the host reference
    # sampled right after it, so host drift between the two passes cancels;
    # the median ratio resists a single operation caught by a slow moment
    refs = runner.refs
    metrics["trace.overhead_frac"] = statistics.median(
        (t.seconds / refs[t.id]) / (u.seconds / refs[u.id])
        for u, t in zip(ref, mix)) - 1
    metrics["trace.spans"] = sum(1 for s in tracer.spans if s[4] in mix_ids)
    metrics["host.ref_loop_s"] = statistics.median(
        runner.refs[o.id] for o in mix)
    tags = {}
    for o in base:
        tags.setdefault(o.op.tag, []).append(o)
    # baseline.<tag>.s and probe.<name>.{s,decided}, as BENCHMARK.json lists
    # them; a baseline or probe of another workload reads 0.  A probe is
    # decided when it exits 0, 1 or 2; exit 3 and the time cap are not.
    for name, _ in declared("per_layer"):
        kind, key, field = (name.split(".") + ["", ""])[:3]
        if kind == "baseline":
            metrics[name] = sum(o.seconds for o in tags.get(key, []))
        elif kind == "probe":
            hit = probe if probe and probe["name"] == key else None
            if field == "s":
                metrics[name] = hit["seconds"] if hit else 0.0
            else:
                metrics[name] = int(hit is not None
                                    and hit["exit"] in (0, 1, 2))
    report = {
        "rounds": TRACED_ROUNDS, "mix_ops": len(mix),
        "baseline": {tag: {"seconds": sum(o.seconds for o in os_),
                           "ops": [_op_record(o) for o in os_],
                           "layers": layer_metrics(
                               tracer.spans, {o.id for o in os_}, set())}
                     for tag, os_ in tags.items()},
        "probe": probe,
    }
    return ref + mix + base, metrics, report, tracer.spans


def _op_record(o):
    return {"kind": o.op.kind, "argv": o.op.argv, "tag": o.op.tag,
            "seconds": o.seconds, "exit": o.rc, "failed": o.failed,
            "undecided": o.undecided, "reason": o.reason}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit (used to time set-up)")
    args = ap.parse_args(argv)

    lib = load_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        runner, work, first = setup(lib, args, work_dir)
        if args.setup_only:
            return 0
        env = environment()
        env["seed"] = args.seed
        print("# env " + json.dumps(env, sort_keys=True), flush=True)
        if args.trace:
            outcomes, values, report, spans = traced(lib, args, runner, work,
                                                     first)
            metrics = {k: (values[k], u) for k, u in declared("per_layer")}
        else:
            setup_s, setup_runs = measure_setup(args)
            outcomes, rounds = run_rounds(runner, lib, args, work,
                                          args.seconds, first)
            ref_s = statistics.median(runner.refs)
            values = end_to_end(outcomes, setup_s, ref_s)
            metrics = {k: (values[k], u) for k, u in declared("end_to_end")}
            report = {"rounds": rounds, "setup_runs": setup_runs,
                      "raw": end_to_end(outcomes, setup_s, REF_NOMINAL_S)}
            spans = None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [o for o in outcomes if o.failed]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report.update(host_ref_s=statistics.median(runner.refs),
                  workload=args.workload, seed=args.seed,
                  seconds=args.seconds, env=env,
                  metrics={k: v for k, (v, _) in metrics.items()},
                  ops=[_op_record(o) for o in outcomes])
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1))
    if spans is not None:
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    for o in failed[:10]:
        print(f"# FAILED {o.op.kind} {o.op.argv or ''}: {o.reason}")
    for name, b in report.get("baseline", {}).items():
        exits = sorted({o["exit"] for o in b["ops"] if o["exit"] is not None})
        print(f"# baseline {name}: {b['seconds']:.3f} s over {len(b['ops'])} "
              f"operations" + (f", exits {exits}" if exits else ""))
    if report.get("probe"):
        p = report["probe"]
        print(f"# probe {p['name']}: {p['seconds']:.1f} s, exit {p['exit']}"
              f"{' (timed out)' if p['timed_out'] else ''}")
    print(f"# {args.workload} seed={args.seed}: {len(outcomes)} operations "
          f"in {report['rounds']} rounds, {len(failed)} failed; host "
          f"reference {report['host_ref_s'] * 1000:.3f} ms "
          f"(times scaled to {REF_NOMINAL_S * 1000:.1f} ms); "
          f"report in {OUT.name}/report-{tag}.json", flush=True)
    print(json.dumps({
        "correct": not failed, "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
