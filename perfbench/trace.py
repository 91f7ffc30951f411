"""Spans around calls into linserlab, recorded from outside the library.

`Tracer.install` replaces every binding of the functions in WRAP, in every
linserlab module that holds one (dumnicki, toric, arrangements and cli import
their own copies), with a wrapper that records a span: name, start, end,
parent span, operation id, the module the call went through, and a few
counts taken from the arguments or the result.  Spans stay in memory;
`uninstall` puts the original functions back.  Durations exclude the time
spent computing those counts, so self times stay comparable.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# Per module, the public functions that a per-layer metric reads, plus the
# ones cli.main calls directly, which cli.main.self_s subtracts.  Two more
# shape a metric through their children: initial_lift keeps its hull from
# counting as a halving of split_lift, and certificate_from_json keeps the
# decoding out of verify_certificate_json.self_s.  Per-point methods
# (CutFunctional.value and the like) are left alone: a span per lattice
# point would swamp the work.
WRAP = {
    "_linalg": ("rank_mod_p", "rank_exact", "to_int_rows", "det_exact",
                "independent_rows_mod_p", "nullspace"),
    "fatpoints": ("conditions_matrix", "cohomology", "generic_cohomology",
                  "alpha", "waldschmidt_sandwich", "chudnovsky_report",
                  "make_config"),
    "lattice": ("halfplane_partition", "triangle_set"),
    "dumnicki": ("search_cuts", "prove_empty", "verify_certificate",
                 "verify_certificate_json", "certificate_to_json",
                 "certificate_from_json", "interp_matrix",
                 "fact3_certificate", "check_line_assignment",
                 "paper_family"),
    "toric": ("split_lift", "initial_lift", "lower_hull_subdivision"),
    "symbolic": ("symbolic_power", "power", "subset", "howald_multiplier",
                 "asymptotic_multiplier", "containment_suite",
                 "els_chain_check"),
    "arrangements": ("graded_counts", "circuits", "singular_points",
                     "da_divisor"),
    "surfaces": ("build_incidence", "c_squared", "c_squared_bruteforce"),
    "cli": ("main",),
}

NAME, START, END, PARENT, OP, VIA, ATTRS = range(7)


def _hook_rank_mod_p(tracer, args, kwargs, result):
    rows = args[0]
    return {"full": result == (min(len(rows), len(rows[0])) if rows else 0)}


def _hook_to_int_rows(tracer, args, kwargs, result):
    parent = tracer.stack[-1] if tracer.stack else -1
    if parent < 0 or tracer.spans[parent][NAME] != "_linalg.rank_exact":
        return None
    bits = max((abs(e).bit_length() for row in result for e in row),
               default=0)
    return {"entries": sum(len(row) for row in result), "bits": bits}


def _hook_partition(tracer, args, kwargs, result):
    return {"points": len(result[0]) + len(result[1])}


def _hook_fact3(tracer, args, kwargs, result):
    direction = args[2] if len(args) > 2 else kwargs.get("direction")
    return {"horizontal": direction == "horizontal"}


def _hook_search(tracer, args, kwargs, result):
    return {"pieces": len(result) + 1 if result is not None else 0}


def _hook_prove(tracer, args, kwargs, result):
    pieces = getattr(result, "pieces", None)
    if pieces is None:
        return None
    kinds = {"LineAssignment": "line_assignment",
             "NonzeroDeterminant": "nonzero_determinant",
             "FullRank": "full_rank"}
    out = {}
    for p in pieces:
        k = kinds[type(p.evidence).__name__]
        out[k] = out.get(k, 0) + 1
    return out


HOOKS = {
    "_linalg.rank_mod_p": _hook_rank_mod_p,
    "_linalg.to_int_rows": _hook_to_int_rows,
    "lattice.halfplane_partition": _hook_partition,
    "dumnicki.fact3_certificate": _hook_fact3,
    "dumnicki.search_cuts": _hook_search,
    "dumnicki.prove_empty": _hook_prove,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.hook_s = 0.0  # time spent in hooks, removed from durations
        self._patched = []

    def _wrap(self, fn, name, via):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    via, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter() - self.hook_s
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter() - self.hook_s
                stack.pop()
            if hook is not None:
                t = perf_counter()
                span[ATTRS] = hook(self, args, kwargs, result)
                self.hook_s += perf_counter() - t
            return result

        return wrapper

    def install(self):
        modules = {m: importlib.import_module(f"linserlab.{m}") for m in WRAP}
        targets = {}
        for short, names in WRAP.items():
            for n in names:
                targets[getattr(modules[short], n)] = f"{short}.{n}"
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = targets.get(obj) if callable(obj) else None
                if name is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(obj, name, short))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a set of operations


class Layers:
    """Aggregates over spans whose operation id is in `ops`."""

    def __init__(self, spans, ops):
        self.spans = spans
        keep = [i for i, s in enumerate(spans) if s[OP] in ops]
        self.children = {i: [] for i in keep}
        for i in keep:
            p = spans[i][PARENT]
            if p in self.children:
                self.children[p].append(i)
        self.by_name = {}
        for i in keep:
            self.by_name.setdefault(spans[i][NAME], []).append(i)

    def dur(self, i):
        s = self.spans[i]
        return s[END] - s[START]

    def self_time(self, i):
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def ids(self, name):
        return self.by_name.get(name, [])

    def calls(self, name):
        return len(self.ids(name))

    def total(self, name):
        """Time inside `name`, counting a recursive call once."""
        return sum(self.dur(i) for i in self.ids(name)
                   if not self.under(i, name))

    def self_total(self, name):
        return sum(self.self_time(i) for i in self.ids(name))

    def under(self, i, name):
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def attr_sum(self, name, key):
        return sum((self.spans[i][ATTRS] or {}).get(key, 0)
                   for i in self.ids(name))

    def descendants(self, i, name):
        out = []
        for c in self.children[i]:
            if self.spans[c][NAME] == name:
                out.append(c)
            out.extend(self.descendants(c, name))
        return out

    def total_under(self, name, ancestor):
        """Time in `name` spans that run inside an `ancestor` span."""
        return sum(self.dur(i) for i in self.ids(name)
                   if self.under(i, ancestor) and not self.under(i, name))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, ops, scan_ops):
    """Per-layer metric values, keyed by the names in BENCHMARK.json."""
    L = Layers(spans, ops)
    m = {}
    mod_p = L.ids("_linalg.rank_mod_p")
    full = sum(1 for i in mod_p if spans[i][ATTRS]["full"])
    m["_linalg.rank_mod_p.calls"] = len(mod_p)
    m["_linalg.rank_mod_p.s"] = L.total("_linalg.rank_mod_p")
    m["_linalg.rank_mod_p.useful_ratio"] = _ratio(full, len(mod_p))

    fallbacks = 0
    for i in L.ids("_linalg.rank_exact"):
        tries = [c for c in L.children[i]
                 if spans[c][NAME] == "_linalg.rank_mod_p"]
        if tries and not any(spans[c][ATTRS]["full"] for c in tries):
            fallbacks += 1
    m["_linalg.rank_exact.calls"] = L.calls("_linalg.rank_exact")
    m["_linalg.rank_exact.self_s"] = L.self_total("_linalg.rank_exact")
    m["_linalg.rank_exact.fallbacks"] = fallbacks
    m["_linalg.rank_exact.entries"] = L.attr_sum("_linalg.to_int_rows",
                                                 "entries")
    m["_linalg.rank_exact.max_entry_bits"] = max(
        [(spans[i][ATTRS] or {}).get("bits", 0)
         for i in L.ids("_linalg.to_int_rows")], default=0)
    m["_linalg.to_int_rows.s"] = L.total("_linalg.to_int_rows")
    m["_linalg.det_exact.calls"] = L.calls("_linalg.det_exact")
    m["_linalg.det_exact.s"] = L.total("_linalg.det_exact")
    m["_linalg.independent_rows_mod_p.s"] = L.total(
        "_linalg.independent_rows_mod_p")
    m["_linalg.nullspace.calls"] = L.calls("_linalg.nullspace")
    m["_linalg.nullspace.s"] = L.total("_linalg.nullspace")

    m["fatpoints.conditions_matrix.calls"] = L.calls(
        "fatpoints.conditions_matrix")
    m["fatpoints.conditions_matrix.s"] = L.total("fatpoints.conditions_matrix")
    m["fatpoints.cohomology.calls"] = L.calls("fatpoints.cohomology")
    m["fatpoints.cohomology.self_s"] = L.self_total("fatpoints.cohomology")
    scan_calls = sum(1 for i in L.ids("fatpoints.cohomology")
                     if spans[i][OP] in scan_ops)
    m["fatpoints.cohomology.calls_per_scan"] = _ratio(scan_calls,
                                                      len(scan_ops))

    m["lattice.halfplane_partition.calls"] = L.calls(
        "lattice.halfplane_partition")
    m["lattice.halfplane_partition.s"] = L.total("lattice.halfplane_partition")
    m["lattice.halfplane_partition.points"] = L.attr_sum(
        "lattice.halfplane_partition", "points")

    attempts = sum(
        1 for i in L.ids("dumnicki.fact3_certificate")
        if spans[i][ATTRS]["horizontal"]
        and L.under(i, "dumnicki.search_cuts"))
    m["dumnicki.search_cuts.s"] = L.total("dumnicki.search_cuts")
    m["dumnicki.search_cuts.attempts"] = attempts
    m["dumnicki.search_cuts.useful_ratio"] = _ratio(
        L.attr_sum("dumnicki.search_cuts", "pieces"), attempts)
    m["dumnicki.prove_empty.s"] = L.total("dumnicki.prove_empty")
    m["dumnicki.verify_certificate.s"] = L.total("dumnicki.verify_certificate")
    m["dumnicki.verify.line_assignment_s"] = L.total_under(
        "dumnicki.check_line_assignment", "dumnicki.verify_certificate")
    m["dumnicki.verify.det_s"] = L.total_under(
        "_linalg.det_exact", "dumnicki.verify_certificate")
    for kind in ("line_assignment", "nonzero_determinant", "full_rank"):
        m[f"dumnicki.pieces.{kind}"] = L.attr_sum("dumnicki.prove_empty",
                                                  kind)
    m["dumnicki.interp_matrix.s"] = L.total("dumnicki.interp_matrix")
    m["dumnicki.certificate_to_json.s"] = L.total(
        "dumnicki.certificate_to_json")
    m["dumnicki.verify_certificate_json.self_s"] = L.self_total(
        "dumnicki.verify_certificate_json")

    halvings = 0
    for i in L.ids("toric.split_lift"):
        bends = sum(1 for c in L.children[i]
                    if spans[c][NAME] == "toric.lower_hull_subdivision")
        halvings += max(0, bends - 1)
    m["toric.split_lift.calls"] = L.calls("toric.split_lift")
    m["toric.split_lift.s"] = L.total("toric.split_lift")
    m["toric.split_lift.halvings"] = halvings
    m["toric.lower_hull_subdivision.s"] = L.total(
        "toric.lower_hull_subdivision")

    m["symbolic.symbolic_power.calls"] = L.calls("symbolic.symbolic_power")
    m["symbolic.symbolic_power.s"] = L.total("symbolic.symbolic_power")
    m["symbolic.power.s"] = L.total("symbolic.power")
    m["symbolic.subset.s"] = L.total("symbolic.subset")
    m["symbolic.howald_multiplier.calls"] = L.calls(
        "symbolic.howald_multiplier")
    m["symbolic.howald_multiplier.s"] = L.total("symbolic.howald_multiplier")
    m["symbolic.asymptotic_multiplier.samples"] = sum(
        len(L.descendants(i, "symbolic.howald_multiplier"))
        for i in L.ids("symbolic.asymptotic_multiplier"))

    m["arrangements.graded_counts.s"] = L.total("arrangements.graded_counts")
    m["arrangements.circuits.s"] = L.total("arrangements.circuits")
    m["arrangements.rank_exact.calls"] = sum(
        1 for i in L.ids("_linalg.rank_exact")
        if spans[i][VIA] == "arrangements")
    m["surfaces.c_squared_bruteforce.s"] = L.total(
        "surfaces.c_squared_bruteforce")
    m["cli.main.self_s"] = L.self_total("cli.main")
    return m
