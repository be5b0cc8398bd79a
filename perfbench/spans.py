"""Spans around calls into thomcalc's public functions, recorded from outside.

`Tracer.install()` replaces each traced function by a wrapper in every
thomcalc module namespace that holds it (``from .residue import ...`` binds
copies, so patching the defining module alone misses callers), and each
traced method in its class, aliases such as ``__rmul__`` included.  Every
call records a span: name, start, end, parent span and the run id.  Spans
stay in memory until `write` and `layer_metrics` read them after the job.

Each span also keeps the clock readings at wrapper entry and exit.  A
parent's `self_s` subtracts its children's wrapper durations, so the
tracer's own bookkeeping around a child is charged to no layer.
"""

import array
import json
import sys
import time

# (span name, module, attribute path, time stat reported, size stats reported)
# The span name is "<module>.<function>"; methods keep their class name, and
# the dunder methods are named after the operation.
TARGETS = (
    ("residue.iterated_residue", "residue", ("iterated_residue",), "self_s",
     ("out_terms", "factors", "numerator_terms")),
    ("residue.residue_by_pole_sum", "residue", ("residue_by_pole_sum",), "self_s", ()),
    ("residue.vanishing_criterion", "residue", ("vanishing_criterion",), "self_s", ()),
    ("poly.expand_inverse_factor", "poly", ("expand_inverse_factor",), "total_s", ("out_terms",)),
    ("poly.Polynomial.mul", "poly", ("Polynomial", "__mul__"), "total_s", ("out_terms",)),
    ("poly.Polynomial.add", "poly", ("Polynomial", "__add__"), "total_s", ()),
    ("poly.Polynomial.substitute", "poly", ("Polynomial", "substitute"), "total_s", ()),
    ("poly.Polynomial.evaluate", "poly", ("Polynomial", "evaluate"), "total_s", ()),
    # traced only to count the S-pairs buchberger_lex reduces
    ("poly.Polynomial.multiply_monomial", "poly", ("Polynomial", "multiply_monomial"), None, ()),
    ("thom.thom_polynomial", "thom", ("thom_polynomial",), "self_s", ("cache_hits",)),
    ("thom.residue_problem_for", "thom", ("residue_problem_for",), "self_s", ("numerator_terms",)),
    ("thom.vandermonde", "thom", ("vandermonde",), "total_s", ()),
    ("thom.positivity_expansion", "thom", ("positivity_expansion",), "self_s", ("series_terms",)),
    ("thom.nondistinguished_vanishing", "thom", ("nondistinguished_vanishing",), "self_s", ()),
    ("thom.sampled_class_agreement", "thom", ("sampled_class_agreement",), "self_s", ()),
    ("thom.substitute_chern", "thom", ("substitute_chern",), "total_s", ()),
    ("multidegree.buchberger_lex", "multidegree", ("buchberger_lex",), "self_s",
     ("basis_size", "spairs_reduced", "useful_ratio")),
    ("multidegree.multidegree_monomial", "multidegree", ("multidegree_monomial",), "self_s",
     ("init_generators",)),
    ("multidegree.subspace_multiplicity", "multidegree", ("subspace_multiplicity",), "total_s", ()),
    ("partitions.basic_relations", "partitions", ("basic_relations",), "total_s", ()),
    ("partitions.expansion_relation", "partitions", ("expansion_relation",), "total_s", ()),
    ("partitions.apply_right_action", "partitions", ("apply_right_action",), "total_s", ()),
    ("verify.run_suite", "verify", ("run_suite",), "self_s", ("checks", "failed")),
    ("cli.main", "cli", ("main",), "self_s", ()),
)

# Metrics the harness measures around the worker rather than from spans.
WORKER_METRICS = (
    ("python.startup_s", "s"),  # spawn until the worker's first statement runs
    ("python.import_s", "s"),  # importing thomcalc and thomcalc.cli
    ("trace.overhead_s", "s"),  # traced raw_wall_s minus untraced raw_wall_s
)

_RATIO_STATS = {"useful_ratio"}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name, _, _, time_stat, sizes in TARGETS:
        if time_stat is None:
            continue
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.{time_stat}", "s"))
        for stat in sizes:
            out.append((f"{name}.{stat}", "ratio" if stat in _RATIO_STATS else "count"))
    return out + list(WORKER_METRICS)


def _arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


# Counts recorded on a span from the call's arguments and result.
_SIZES = {
    "residue.iterated_residue": lambda args, kwargs, result: {
        "out_terms": len(result),
        "factors": sum(m for _, m in _arg(args, kwargs, "problem").denominator_factors),
        "numerator_terms": len(_arg(args, kwargs, "problem").numerator),
    },
    "poly.expand_inverse_factor": lambda args, kwargs, result: {"out_terms": len(result)},
    "poly.Polynomial.mul": lambda args, kwargs, result: {"out_terms": len(result)},
    "thom.residue_problem_for": lambda args, kwargs, result: {
        "numerator_terms": len(result.numerator),
    },
    "thom.positivity_expansion": lambda args, kwargs, result: {
        "series_terms": result.term_count,
    },
    "multidegree.buchberger_lex": lambda args, kwargs, result: {
        "basis_size": len(result),
        "generators": sum(1 for g in _arg(args, kwargs, "ideal").generators if not g.is_zero()),
    },
    "multidegree.multidegree_monomial": lambda args, kwargs, result: {
        "init_generators": len(_arg(args, kwargs, "ideal").generators),
    },
    "verify.run_suite": lambda args, kwargs, result: {
        "checks": len(result.results),
        "failed": sum(1 for r in result.results if not r.passed),
    },
}


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = [t[0] for t in TARGETS]
        self.name_ids = array.array("H")
        self.parents = array.array("q")
        self.entered = array.array("d")  # wrapper entry
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.left = array.array("d")  # wrapper exit
        self.sizes = {}  # span index -> {stat: count}
        self._stack = [-1]
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name_id, fn):
        sizes = _SIZES.get(self.names[name_id])
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            entered = clock()
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1])
            self.entered.append(entered)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.left.append(0.0)
            stack.append(index)
            try:
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    self.starts[index] = start
                    self.ends[index] = end
                if sizes is not None:
                    self.sizes[index] = sizes(args, kwargs, result)
                return result
            finally:
                self.left[index] = clock()

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "thomcalc" or key.startswith("thomcalc."))]
        for name_id, (_, module, path, _, _) in enumerate(TARGETS):
            owner = sys.modules[f"thomcalc.{module}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(name_id, original)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def __len__(self):
        return len(self.starts)

    def write(self, path):
        """One tab-separated line per span: run, id, parent, name, start,
        end, wrapper entry and exit, and the span's counts as JSON."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("run\tid\tparent\tname\tstart\tend\tentered\tleft\tcounts\n")
            for i in range(len(self.starts)):
                sizes = self.sizes.get(i)
                out.write(
                    f"{self.run_id}\t{i}\t{self.parents[i]}\t{self.names[self.name_ids[i]]}"
                    f"\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}"
                    f"\t{self.entered[i]:.9f}\t{self.left[i]:.9f}"
                    f"\t{json.dumps(sizes, sort_keys=True) if sizes else ''}\n"
                )

    def layer_metrics(self):
        """Per-layer metrics from the recorded spans (without the worker ones)."""
        count = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        child_time = [0.0] * count  # children's wrapper time, tracer cost included
        for i in range(count):
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] += self.left[i] - self.entered[i]
        index = {name: k for k, name in enumerate(self.names)}
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        sums = [dict() for _ in self.names]
        for i in range(count):
            k = self.name_ids[i]
            calls[k] += 1
            total[k] += durations[i]
            own[k] += durations[i] - child_time[i]
            for stat, value in (self.sizes.get(i) or {}).items():
                sums[k][stat] = sums[k].get(stat, 0) + value

        # thom_polynomial calls answered without building a residue problem
        tp_id, problem_id = index["thom.thom_polynomial"], index["thom.residue_problem_for"]
        built = {self.parents[i] for i in range(count) if self.name_ids[i] == problem_id}
        sums[tp_id]["cache_hits"] = sum(
            1 for i in range(count) if self.name_ids[i] == tp_id and i not in built
        )
        # each reduced S-pair multiplies both of its polynomials by a monomial
        gb_id, mm_id = index["multidegree.buchberger_lex"], index["poly.Polynomial.multiply_monomial"]
        under_gb = 0
        for i in range(count):
            if self.name_ids[i] != mm_id:
                continue
            parent = self.parents[i]
            while parent >= 0 and self.name_ids[parent] != gb_id:
                parent = self.parents[parent]
            under_gb += parent >= 0
        gb = sums[gb_id]
        gb["spairs_reduced"] = under_gb // 2
        added = gb.get("basis_size", 0) - gb.get("generators", 0)
        gb["useful_ratio"] = added / gb["spairs_reduced"] if gb["spairs_reduced"] else 0.0

        out = {}
        for k, (name, _, _, time_stat, stats) in enumerate(TARGETS):
            if time_stat is None:
                continue
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.{time_stat}"] = own[k] if time_stat == "self_s" else total[k]
            for stat in stats:
                out[f"{name}.{stat}"] = sums[k].get(stat, 0)
        return out
