"""Named verification suites behind the CLI verify command.

Each check has a stable id of the form suite.name, so reports can be
compared across runs and releases.  A suite failure never aborts the run;
the report carries one entry per check and the caller decides the exit
code from all_passed.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

from .errors import CalcError
from .partitions import (
    basic_relations,
    deg_qhat,
    dim_normal_model,
    enumerate_admissible,
    expansion_relation,
    apply_right_action,
    pair_relation,
    partitions_up_to,
    relation_weight,
    stored_quartic_relation,
    u_reference_value,
    uhat_reference_value,
)
from .poly import Polynomial, cvar, linear_form, zvar
from .multidegree import toric_localization_example
from .thom import (
    DEFAULT_SEED,
    derive_qhat,
    flag_residue_identity,
    nondistinguished_vanishing,
    pole_sum_class,
    positivity_expansion,
    qhat,
    qhat5_derivation_steps,
    ronga_reference,
    sampled_class_agreement,
    shift_check,
    substitute_chern,
    thom_polynomial,
    tp_positivity,
)

@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    seed: int
    results: Tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            line = f"{status} {r.check_id}"
            if r.detail:
                line += f"  {r.detail}"
            lines.append(line)
        passed = sum(1 for r in self.results if r.passed)
        verdict = "PASS" if self.all_passed else "FAIL"
        lines.append(f"result: {verdict} ({passed}/{len(self.results)})")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "checks": [
                {"id": r.check_id, "passed": r.passed, "detail": r.detail}
                for r in self.results
            ],
            "all_passed": self.all_passed,
        }


# -- classical suite --------------------------------------------------


def _check_order1():
    for j in range(5):
        tp = thom_polynomial(1, j)
        if tp.body != Polynomial.variable(cvar(j + 1)):
            return False, f"codim {j} disagrees"
    return True, "five base cases"


def _check_order2():
    for j in range(4):
        if thom_polynomial(2, j).body != ronga_reference(j).body:
            return False, f"codim {j} disagrees"
    return True, "matches the closed form through codim 3"


def _check_order3():
    c0, c1, c2, c3 = (cvar(i) for i in range(4))
    expected = Polynomial({((c1, 3),): 1, ((c0, 1), (c1, 1), (c2, 1)): 3, ((c0, 2), (c3, 1)): 2})
    return thom_polynomial(3, 0).body == expected, ""


def _check_order4():
    text = thom_polynomial(4, 0).to_text()
    expected = "c1^4 + 6*c1^2*c2 + 2*c2^2 + 9*c1*c3 + 6*c4"
    return text == expected, ""


def _check_shift():
    for d in (2, 3, 4):
        for j in (1, 2):
            if not shift_check(d, j):
                return False, f"shift fails at order {d}, codim {j}"
    return True, "orders 2..4, codims 1..2"


def _check_structure():
    # the constructor revalidates factor count and weighted degree
    for d in range(1, 6):
        for j in range(3):
            thom_polynomial(d, j)
    return True, "orders 1..5, codims 0..2"


def _check_pole_sum():
    for d in (1, 2):
        for j in range(3):
            expected = substitute_chern(thom_polynomial(d, j), d, d + j)
            if pole_sum_class(d, j) != expected:
                return False, f"tp({d},{j}) differs from its pole sum"
    return True, "pole sum at Chern roots matches orders 1..2, codims 0..2"


def _classical(seed: int):
    yield "classical.order1", _check_order1
    yield "classical.order2", _check_order2
    yield "classical.order3", _check_order3
    yield "classical.order4", _check_order4
    yield "classical.shift", _check_shift
    yield "classical.structure", _check_structure
    yield "classical.pole-sum", _check_pole_sum


# -- localization suite -----------------------------------------------


def _localization(seed: int):
    def porteous():
        # tp(1, k - n) is c_(k - n + 1), so this is class agreement at depth 1
        for n, k in ((2, 3), (3, 5)):
            if not sampled_class_agreement(1, n, k, samples=3, seed=seed):
                return False, f"ranks ({n},{k})"
        return True, "rank pairs (2,3) and (3,5)"

    def flag():
        q2 = Polynomial.term(1, [(zvar(1), 2), (zvar(2), 1)]) + Polynomial.one()
        q3 = Polynomial.term(1, [(zvar(1), 1), (zvar(3), 1)]) + Polynomial.term(
            1, [(zvar(2), 2)]
        )
        ok2 = flag_residue_identity(q2, 3, 2, samples=3, seed=seed)
        ok3 = flag_residue_identity(q3, 4, 3, samples=2, seed=seed)
        return ok2 and ok3, "depth 2 in 3 roots, depth 3 in 4 roots"

    def agreement():
        for d, n, k in ((2, 2, 2), (2, 2, 3), (3, 3, 3), (3, 3, 4)):
            if not sampled_class_agreement(d, n, k, samples=5, seed=seed):
                return False, f"({d},{n},{k})"
        return True, "four rank configurations, five samples each"

    def vanishing():
        for d in (2, 3):
            for ev in nondistinguished_vanishing(d, 5, 5, samples=2, seed=seed):
                if not ev.vanishes:
                    return False, f"depth {d} term {ev.term.sequence.to_text()}"
        return True, "all non-distinguished terms die at five roots"

    yield "localization.porteous", porteous
    yield "localization.flag", flag
    yield "localization.class-agreement", agreement
    yield "localization.vanishing", vanishing


# -- relations suite --------------------------------------------------


def _relations(seed: int):
    def annihilation():
        count = 0
        taus = partitions_up_to(4)
        for d in (2, 3, 4):
            for rho in enumerate_admissible(d):
                for tau in taus:
                    rel = expansion_relation(rho, tau)
                    for m in range(1, d + 2):
                        if not apply_right_action(rel, m).is_zero():
                            return False, f"depth {d} rho {rho.to_text()}"
                    count += 1
        return True, f"{count} relations annihilated"

    def reference():
        for rel in basic_relations(5):
            if uhat_reference_value(rel.polynomial) != 0:
                return False, rel.label()
        return True, "levels 3..5"

    def homogeneity():
        for rel in basic_relations(5):
            rel.weight()
        return True, "every relation is weight-homogeneous"

    def quartic():
        weight = relation_weight(stored_quartic_relation())
        expected = linear_form(
            (2, zvar(1)), (3, zvar(2)), (3, zvar(3)),
            (-2, zvar(4)), (-1, zvar(5)), (-1, zvar(6)),
        )
        return weight == expected, weight.to_text()

    def splitting():
        partitions = partitions_up_to(3)
        for rho in partitions:
            for tau in partitions:
                top = rho.weight + tau.weight
                for m in range(top, top + 3):
                    if u_reference_value(pair_relation(rho, tau, m)) != 0:
                        return False, f"{rho.to_text()} {tau.to_text()} level {m}"
        return True, "reference point kills every splitting"

    def dimensions():
        expected = {1: (0, 0), 2: (1, 0), 3: (3, 0), 4: (7, 1), 5: (13, 3), 6: (22, 7)}
        for d, (model, degree) in expected.items():
            if dim_normal_model(d) != model or deg_qhat(d) != degree:
                return False, f"order {d}"
        return True, "orders 1..6"

    def census():
        admissible = enumerate_admissible(3)
        complete = enumerate_admissible(3, complete_only=True)
        return (len(admissible), len(complete)) == (8, 6), (
            f"{len(admissible)} admissible, {len(complete)} complete"
        )

    def qhat5():
        qhat5_derivation_steps()  # raises DerivationError unless it matches qhat(5)
        return (
            derive_qhat(4) == qhat(4),
            "levels 4 and 5 as multidegrees of the basic relations",
        )

    def toric():
        report = toric_localization_example()
        return report.agree, report.expected.to_text()

    yield "relations.annihilation", annihilation
    yield "relations.reference", reference
    yield "relations.homogeneity", homogeneity
    yield "relations.quartic-weight", quartic
    yield "relations.splitting", splitting
    yield "relations.dimensions", dimensions
    yield "relations.census", census
    yield "relations.qhat5-derivation", qhat5
    yield "relations.toric-multidegree", toric


# -- positivity suite -------------------------------------------------


def _positivity(seed: int):
    def series():
        for d in (2, 3, 4):
            report = positivity_expansion(d, 12)
            if not report.nonnegative:
                return False, f"order {d}: {report.minimum} at {report.witness}"
        return True, "orders 2..4 to total degree 12"

    def series_probe():
        report = positivity_expansion(5, 8)
        detail = f"minimum {report.minimum}"
        if report.witness:
            detail += f" at {report.witness}"
        return True, detail  # informational, the conjecture is open here

    def classes():
        for d in range(1, 5):
            for j in range(3):
                if not tp_positivity(d, j):
                    return False, f"order {d} codim {j}"
        return True, "orders 1..4, codims 0..2"

    yield "positivity.series", series
    yield "positivity.series-probe-order5", series_probe
    yield "positivity.classes", classes


_SUITE_RUNNERS: Dict[str, Callable[[int], Iterator[Tuple[str, Callable]]]] = {
    "classical": _classical,
    "localization": _localization,
    "relations": _relations,
    "positivity": _positivity,
}
SUITES = tuple(_SUITE_RUNNERS)


def run_suite(suite: str, seed: int = DEFAULT_SEED) -> VerifyReport:
    if suite != "all" and suite not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES} or all")
    results: List[CheckResult] = []
    for name in SUITES if suite == "all" else (suite,):
        for check_id, check in _SUITE_RUNNERS[name](seed):
            try:
                passed, detail = check()
            except CalcError as err:
                passed, detail = False, f"{type(err).__name__}: {err}"
            results.append(CheckResult(check_id, passed, detail))
    return VerifyReport(suite=suite, seed=seed, results=tuple(results))
