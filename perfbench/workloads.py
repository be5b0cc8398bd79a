"""The benchmark's workloads: inputs from a seed, the job, and output checks.

Each workload builds its inputs from a `random.Random` seeded with the
workload seed, runs them through thomcalc's public API (or, for `checks`,
through the CLI entry point in-process), and checks every output.  One
output is one class on `tp-table`, one check on `checks` and one ideal on
`mdeg-level6`.  Output checks use independent references where they exist;
the level-6 multidegree is a regression pin (see expected/).

Imported by the worker after thomcalc, so input generation counts as
set-up time.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import thomcalc
import thomcalc.cli

EXPECTED = Path(__file__).resolve().parent / "expected"


def _load(name):
    with open(EXPECTED / name, encoding="utf-8") as handle:
        return json.load(handle)


def _describe(err):
    return f"{type(err).__name__}: {err}"


class TpTable:
    """Cold thom_polynomial(d, j) through the default registry for d <= max_d,
    j <= 2, in an order the seed permutes."""

    def __init__(self, max_d):
        self.max_d = max_d

    def inputs(self, rng):
        jobs = [(d, j) for d in range(1, self.max_d + 1) for j in range(3)]
        rng.shuffle(jobs)
        return jobs

    def run(self, jobs):
        out = {}
        for d, j in jobs:
            try:
                out[(d, j)] = thomcalc.thom_polynomial(d, j)
            except Exception as err:  # a failed output, counted and reported
                out[(d, j)] = err
        return out

    def check(self, jobs, results):
        published = _load("classes.json")["codim0"]
        failures = []
        for d, j in jobs:
            problem = self._problem(d, j, results, published)
            if problem:
                failures.append(f"tp({d}, {j}): {problem}")
        return len(jobs), failures

    @staticmethod
    def _problem(d, j, results, published):
        tp = results[(d, j)]
        if isinstance(tp, Exception):
            return _describe(tp)
        if d == 1 and tp.body != thomcalc.Polynomial.variable(thomcalc.cvar(j + 1)):
            return f"not c{j + 1}"
        if d == 2 and tp.body != thomcalc.ronga_reference(j).body:
            return "differs from ronga_reference"
        if j == 0 and str(d) in published and tp.to_text() != published[str(d)]:
            return f"{tp.to_text()} differs from the published {published[str(d)]}"
        if j >= 1:
            # shift_check reads both classes from the memo the timed pass
            # filled, so it compares the objects this run returned
            if isinstance(results[(d, j - 1)], Exception) or not thomcalc.shift_check(d, j):
                return f"shift relation against tp({d}, {j - 1}) fails"
        return None


class Checks:
    """`thomcalc verify --suite S --format json --seed <seed>` for each suite,
    driven through thomcalc.cli.main inside the worker."""

    def __init__(self, suites):
        self.suites = suites

    def inputs(self, rng):
        seed = rng.randrange(1, 2**31)  # the CLI reads 0 as fresh entropy
        return [
            ["verify", "--suite", suite, "--format", "json", "--seed", str(seed)]
            for suite in self.suites
        ]

    def run(self, argvs):
        out = []
        for argv in argvs:
            captured = io.StringIO()
            try:
                with contextlib.redirect_stdout(captured):
                    code = thomcalc.cli.main(argv, prog_name="thomcalc", standalone_mode=False)
            except SystemExit as stop:
                code = stop.code
            except Exception as err:  # a failed suite, counted and reported
                code = _describe(err)
            out.append((code, captured.getvalue()))
        return out

    def check(self, argvs, results):
        expected = _load("checks.json")
        attempted, failures = 0, []
        for argv, (code, text) in zip(argvs, results):
            suite = argv[2]
            wanted = expected[suite]
            missing = "missing from the report"
            try:
                seen = {c["id"]: c for c in json.loads(text)["checks"]}
            except (ValueError, KeyError, TypeError):
                seen = {}
                missing = f"{suite} printed no JSON report (exit {code})"
            ids = list(wanted) + sorted(set(seen) - set(wanted))
            attempted += len(ids)
            for check_id in ids:
                result = seen.get(check_id)
                if check_id not in wanted:
                    failures.append(f"{check_id}: not an expected check")
                elif result is None:
                    failures.append(f"{check_id}: {missing}")
                elif not result["passed"]:
                    failures.append(f"{check_id}: {result['detail']}")
        return attempted, failures


class Mdeg:
    """multidegree of the ideals of basic_relations(d), d in `levels`, in the
    uhat coordinates renamed y_1..y_n with uhat_weight weights and the lex
    order of uhat_index_triples.

    The seed permutes the generators of every level but 6, which keeps its
    given order.
    """

    def __init__(self, levels):
        self.levels = levels

    def inputs(self, rng):
        out = []
        for d in self.levels:
            triples = thomcalc.uhat_index_triples(d)
            order = [thomcalc.yvar(i + 1) for i in range(len(triples))]
            rename = {
                thomcalc.uhatvar(*t): thomcalc.Polynomial.variable(y)
                for t, y in zip(triples, order)
            }
            gens = [r.polynomial.substitute(rename) for r in thomcalc.basic_relations(d)]
            # At level 6 the generator order alone moves the Buchberger work
            # by up to 3x (3,012 to 9,110 S-pair multiplications over 8
            # permutations), and even a shuffle of the level-6 relations alone
            # moves the Polynomial.mul count by a fifth, which would bury any
            # other change in the spread between seeds.
            if d != 6:
                rng.shuffle(gens)
            ring = thomcalc.WeightedRing(
                tuple(thomcalc.uhat_weight(thomcalc.uhatvar(*t)) for t in triples)
            )
            out.append((d, thomcalc.PolynomialIdeal.of(gens, order), ring))
        return out

    def run(self, ideals):
        out = []
        for _, ideal, ring in ideals:
            try:
                out.append(thomcalc.multidegree(ideal, ring))
            except Exception as err:  # a failed output, counted and reported
                out.append(err)
        return out

    def check(self, ideals, results):
        failures = []
        for (d, _, _), result in zip(ideals, results):
            problem = self._problem(d, result)
            if problem:
                failures.append(f"level {d}: {problem}")
        return len(ideals), failures

    @staticmethod
    def _problem(d, result):
        if isinstance(result, Exception):
            return _describe(result)
        if d in (4, 5):
            return None if result == thomcalc.qhat(d) else "differs from qhat"
        degree = thomcalc.deg_qhat(d)
        if any(sum(e for _, e in mono) != degree for mono in result.term_map()):
            return f"not homogeneous of degree {degree}"
        pin = _load(f"multidegree_level{d}.json")
        if result != thomcalc.Polynomial.from_json_dict(pin["polynomial"]):
            return f"differs from the pinned {pin['terms']}-term result"
        return None


WORKLOADS = {
    "tp-table": TpTable(max_d=5),
    "checks": Checks(suites=("localization", "relations", "positivity")),
    "mdeg-level6": Mdeg(levels=(4, 5, 6)),
    # small inputs for the harness tests
    "tp-table-small": TpTable(max_d=3),
    "checks-relations": Checks(suites=("relations",)),
    "mdeg-level5": Mdeg(levels=(4, 5)),
}


def make_inputs(name, seed):
    return WORKLOADS[name].inputs(random.Random(seed))
