"""Iterated residues at infinity.

The main entry point divides by every denominator factor as a power series
in its top z-variable, one variable at a time (innermost variable first,
matching the regime |z_1| << ... << |z_d|), and reads off the coefficient
of 1/(z_1 ... z_d).  The residue carries the sign (-1)^d relative to that
coefficient.  A factor of negative multiplicity -m is a linear numerator
factor: it is multiplied in m times at its top variable's step, before
that variable's denominator factors, so the numerator V_d * Q_d of a class
never has to be expanded.

The expansion is exact in one pass.  Going from the last variable down,
each division stops at the exponent of v below which a term can no longer
reach the 1/v slice; a variable's own series is applied last and only
supplies that slice.  No truncation order is guessed and nothing is re-run
to validate.

The expansion runs on packed exponent ints (packed.ExponentPacking): one
field per variable, z_1..z_d first, then the Chern and other symbols, each
as wide as the problem's own exponent bounds require.  A monomial product
is one int addition, reading an exponent is a shift and a mask, and
coefficients are Python ints unless an input carries a Fraction.  Each
factor's step is packed.divide_by_form, the long-division recurrence
R = (T - L0*R)/(a*v) for the form a*v + L0, run layer by layer in v.

An iterated pole sum is the exact second route, on the same ResidueProblem:
the residue at infinity of a rational function is minus the sum of its
finite residues, so summing over simple poles shares no code with the
expansion.  A numerator form stays a linear form, substituted at each pole,
and is multiplied in only at the leaf, so this route never expands V_d
either.  Its adder, over a multiset of monic linear forms with one division
at the end, is the package's one exact sum of fractions, public as
fraction_sum.

The vanishing criterion reads the same ResidueProblem too.  It certifies
that a residue vanishes by counting degrees in a subset of the variables,
every other symbol held constant: the numerator's degree and one per form
with a variable in the subset, so that nothing is expanded.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from math import prod
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    CoincidentPoleError,
    ConstantFormError,
    TruncationUnstableError,
)
from .packed import (
    Coefficient,
    ExponentPacking,
    PackedTerms,
    divide_by_form,
    packed_mul,
    packed_product,
    poly_divide_exact,
)
from .poly import (
    LinearForm,
    Polynomial,
    Variable,
    json_object,
    strict_int,
    variable_from_text,
    zvar,
)

NEG_INF = float("-inf")

FactorList = Sequence[Tuple[LinearForm, int]]


class ResidueProblem:
    """A residue integrand: numerator, linear factors with signed
    multiplicities, and an optional finite Laurent series factor per
    variable.  A factor with multiplicity m > 0 divides m times; one with
    multiplicity -m multiplies the numerator m times."""

    __slots__ = ("numerator", "denominator_factors", "per_variable_series", "variables")

    def __init__(
        self,
        numerator: Polynomial,
        denominator_factors: FactorList = (),
        per_variable_series: Optional[Mapping[Variable, Polynomial]] = None,
        variables: Sequence[Variable] = (),
    ):
        variables = tuple(variables)
        var_set = set()
        for v in variables:
            if v.family != "z":
                raise ValueError(f"residue variables must be z-variables, got {v.text}")
            if v in var_set:
                raise ValueError(f"duplicate residue variable {v.text}")
            var_set.add(v)

        factors = []
        for form, mult in denominator_factors:
            mult = strict_int(mult)
            if not mult:
                raise ValueError("factor multiplicities must be nonzero")
            zs = [v for v in form.variables() if v.family == "z"]
            if not zs:
                raise ConstantFormError(f"denominator factor {form.to_text()} has no z-variable")
            stray = [v for v in zs if v not in var_set]
            if stray:
                raise ValueError(f"factor {form.to_text()} uses unlisted variable {stray[0].text}")
            factors.append((form, mult))

        series = dict(per_variable_series or {})
        for v, s in series.items():
            if v not in var_set:
                raise ValueError(f"series attached to unlisted variable {v.text}")
            for w in s.variables():
                if w.family == "z" and w is not v:
                    raise ValueError(
                        f"series for {v.text} mentions another residue variable {w.text}"
                    )

        for w in numerator.variables():
            if w.family == "z" and w not in var_set:
                raise ValueError(f"numerator uses unlisted variable {w.text}")

        self.numerator = numerator
        self.denominator_factors = tuple(factors)
        self.per_variable_series = series
        self.variables = variables

    # -- serialization used by the CLI --------------------------------

    def to_json_dict(self) -> dict:
        return {
            "numerator": self.numerator.to_json_dict(),
            "denominator_factors": [
                dict(form.to_json_dict(), mult=mult)
                for form, mult in self.denominator_factors
            ],
            "per_variable_series": {
                v.text: s.to_json_dict() for v, s in self.per_variable_series.items()
            },
            "variables": [v.text for v in self.variables],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "ResidueProblem":
        obj = json_object(obj)
        factors = []
        for entry in obj.get("denominator_factors", []):
            form = LinearForm.from_json_dict(entry)
            factors.append((form, entry.get("mult", 1)))
        series = {
            variable_from_text(name): Polynomial.from_json_dict(p)
            for name, p in json_object(obj.get("per_variable_series", {})).items()
        }
        return ResidueProblem(
            numerator=Polynomial.from_json_dict(obj["numerator"]),
            denominator_factors=factors,
            per_variable_series=series,
            variables=[variable_from_text(t) for t in obj["variables"]],
        )


def _reach(p: Polynomial) -> Dict[Variable, int]:
    """The largest |exponent| of each symbol of p."""
    out: Dict[Variable, int] = {}
    for w, e in p.exponent_pairs():
        out[w] = max(out.get(w, 0), abs(e))
    return out


def _packing(
    problem: ResidueProblem,
    variables: Sequence[Variable],
    topped: Mapping[Variable, FactorList],
    raised: Mapping[Variable, FactorList],
    series: Mapping[Variable, Polynomial],
) -> ExponentPacking:
    """Fields for z_1..z_d, then every other symbol, wide enough for any
    exponent the expansion can form.

    A term is one numerator term times one term of each raised numerator
    form, one term of each denominator factor's 1/form series and at most
    one term of each variable's series, so no exponent exceeds the sum of
    what each of those can carry; a form raised to the power m carries each
    of its symbols to at most m.  Going down from the last variable, that
    sum for v also bounds the deepest power of v's denominator factors a
    term can use, and a power-s term carries each lower symbol to at most s.
    """
    carry = _reach(problem.numerator)
    for v in variables:
        for w, e in _reach(series[v]).items():
            carry[w] = carry.get(w, 0) + e
        # the slice lifts v from -1 back to 0
        carry[v] = carry.get(v, 0) + 1
        for form, mult in raised[v]:
            for w, _ in form.items:
                carry[w] = carry.get(w, 0) + mult
    for v in reversed(variables):
        power = carry[v]
        for form, mult in topped[v]:
            for w, _ in form.items:
                carry[w] = carry.get(w, 0) + mult * (power + 1 if w is v else power)
    return ExponentPacking(carry.keys(), max(carry.values()))


def iterated_residue(problem: ResidueProblem, order: Optional[int] = None) -> Polynomial:
    """Residue at infinity in every listed variable, exactly.

    The terms are divided by each denominator factor, once per unit of its
    multiplicity, only as deep as they can still reach the 1/(z_1 ... z_d)
    slice, so the answer needs no truncation order.  A numerator form
    (negative multiplicity) is multiplied in at its top variable's step,
    ahead of the divisions.  An order is a budget on that depth, the
    deepest power of any factor's 1/form series the residue may use: when
    the exact answer needs a deeper power of some factor, the call raises
    TruncationUnstableError instead of expanding further.  A negative order
    raises ValueError.

    The expansion runs on packed exponent ints (see ExponentPacking) with
    int coefficients wherever the inputs are integral.  Each factor's step
    is packed.divide_by_form, down to the lowest exponent of the factor's
    top variable that the factors still to come and the variable's own
    series can bring back to -1; each variable's series then supplies the
    slice by a lookup on that exponent.  The result becomes a Polynomial
    once, at the end.
    """
    if order is not None and order < 0:
        raise ValueError("the order budget must be nonnegative")
    if not problem.variables:
        return problem.numerator

    # the regime is |z_1| << |z_2| << ... whatever the listed order: each
    # factor is a series in its z-variable of largest index
    variables = sorted(problem.variables, key=lambda v: v.index)
    # per top variable: the denominator factors, and the raised numerator forms
    topped: Dict[Variable, List[Tuple[LinearForm, int]]] = {v: [] for v in variables}
    raised: Dict[Variable, List[Tuple[LinearForm, int]]] = {v: [] for v in variables}
    for form, mult in problem.denominator_factors:
        (topped if mult > 0 else raised)[form.top_z_variable()[0]].append((form, abs(mult)))
    own_series = {v: problem.per_variable_series.get(v, Polynomial.one()) for v in variables}
    packing = _packing(problem, variables, topped, raised, own_series)
    mask, half = packing.mask, packing.half

    current = packing.terms(problem.numerator, biased=True)
    for v in reversed(variables):
        shift = packing.shift[v]
        # v's series keyed by its own exponent; no series reads as 1.  A
        # term's key also carries the slice: it lifts v from -1 back to 0.
        by_exp: Dict[int, List[Tuple[int, Coefficient]]] = {}
        for key, coeff in packing.terms(own_series[v]).items():
            e = ((key + packing.bias) >> shift & mask) - half
            by_exp.setdefault(e, []).append((key + (1 << shift), coeff))
        hi_v = max(by_exp, default=0)
        # numerator forms first, so that every cut sees v's final exponent
        for form, mult in raised[v]:
            terms = packing.terms(form.as_polynomial())
            for _ in range(mult):
                current = packed_mul(current, terms)
        # factors topped by v only lower e_v, by at least one each
        v_left = sum(mult for _, mult in topped[v])
        for form, mult in topped[v]:
            if not current:
                break
            power = max((key >> shift) & mask for key in current) - half + hi_v - v_left + 1
            if power < 0:
                current = {}
                break
            if order is not None and power > order:
                raise TruncationUnstableError(
                    f"the residue in {v.text} needs power {power} of 1/({form.to_text()}), "
                    f"past the order budget {order}"
                )
            for _ in range(mult):
                v_left -= 1
                # below this biased field of v, a term cannot reach the slice
                current = divide_by_form(current, packing, form, v_left - hi_v - 1 + half)
        # v's series last: it only has to supply the 1/v slice
        sliced: PackedTerms = {}
        for k1, c1 in current.items():
            for k2, c2 in by_exp.get(half - 1 - ((k1 >> shift) & mask), ()):
                key = k1 + k2
                q = sliced.get(key, 0) + c1 * c2
                if q:
                    sliced[key] = q
                else:
                    del sliced[key]
        current = sliced

    if len(variables) % 2:
        current = {key: -coeff for key, coeff in current.items()}
    return packing.polynomial(current)


# -- the exact pole sum -----------------------------------------------


def residue_by_pole_sum(problem: ResidueProblem) -> Polynomial:
    """The residue iterated_residue takes, as a nested sum over simple poles.

    Exact (no truncation), in the same regime and with the same signed
    multiplicities, at the price of simple poles: each variable's
    denominator factors must have pairwise distinct linear roots, and a
    multiplicity above 1 raises CoincidentPoleError.  A per-variable series
    raises ValueError.  A numerator form (multiplicity -m) is substituted
    at each pole as a linear form and multiplied in, m times, only at the
    leaf.  The numerator forms are substituted first, and a branch where
    one of them is identically 0 is skipped before anything else is: the
    poles have been checked simple, so that form is a multiple of the
    pole's own form, the pole is removable and the branch is 0.  A
    coincidence of poles found only below such a branch is not reported.
    Intended for cross-checks, at numeric parameter values or at
    symbolic roots that keep the poles apart.  The poles' fractions are
    added as in fraction_sum; NonDivisibleError says the sum is not a
    polynomial.
    """
    if problem.per_variable_series:
        raise ValueError("the pole sum takes no per-variable series")
    if problem.numerator.has_negative_exponent():
        raise ValueError("pole-sum backend expects a polynomial numerator")
    forms: List[LinearForm] = []
    raised: List[LinearForm] = []
    for form, mult in problem.denominator_factors:
        if mult > 1:
            raise CoincidentPoleError(
                f"1/({form.to_text()}) has multiplicity {mult}; the pole sum needs simple poles"
            )
        if mult > 0:
            forms.append(form)
        else:
            raised += [form] * -mult
    variables = sorted(problem.variables, key=lambda v: v.index)
    return _quotient(_pole_sum(problem.numerator, forms, raised, variables))


def fraction_sum(terms: Iterable[Tuple[Polynomial, Sequence[LinearForm]]]) -> Polynomial:
    """The polynomial sum of numerator / prod(forms) over the pairs.

    Each fraction is made monic, the sum keeps its denominator as a
    multiset of monic forms, and one exact division ends it.  Raises
    NonDivisibleError when the sum is not a polynomial.
    """
    parts = (_monic(numerator, forms) for numerator, forms in terms)
    return _quotient(reduce(_add, parts, (Polynomial.zero(), Counter())))


# A sum of fractions over a multiset of monic linear forms, so adding two
# multiplies each numerator by only the factors it lacks.
Factored = Tuple[Polynomial, Counter]


def _monic(numerator: Polynomial, forms: Sequence[LinearForm]) -> Factored:
    # the constants and leading coefficients go to the numerator
    leads = [form.items[0][1] if form.items else form.constant for form in forms]
    den = Counter(form.scaled(1 / lead) for form, lead in zip(forms, leads) if form.items)
    return numerator * (1 / prod(leads, start=Fraction(1))), den


def _times(p: Polynomial, forms: Counter) -> Polynomial:
    return packed_product(p, *(form.as_polynomial() for form in forms.elements()))


def _add(a: Factored, b: Factored) -> Factored:
    if b[0].is_zero():
        return a
    if a[0].is_zero():
        return b
    den = a[1] | b[1]
    return _times(a[0], den - a[1]) + _times(b[0], den - b[1]), den


def _quotient(total: Factored) -> Polynomial:
    return poly_divide_exact(total[0], _times(Polynomial.one(), total[1]))


def _pole_sum(
    numerator: Polynomial,
    forms: List[LinearForm],
    raised: List[LinearForm],
    variables: List[Variable],
) -> Factored:
    if not variables:
        if raised:
            numerator = packed_product(numerator, *(g.as_polynomial() for g in raised))
        return _monic(numerator, forms)
    v = variables[-1]
    rest_vars = variables[:-1]
    with_v = [f for f in forms if f.coefficient(v) != 0]
    without_v = [f for f in forms if f.coefficient(v) == 0]

    roots: List[LinearForm] = []
    for f in with_v:
        a = f.coefficient(v)
        roots.append(f.drop(v).scaled(Fraction(-1) / a))
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if roots[i] == roots[j]:
                raise CoincidentPoleError(
                    f"poles in {v.text} coincide at {roots[i].to_text()}"
                )

    total: Factored = (Polynomial.zero(), Counter())
    for f, root in zip(with_v, roots):
        sub_raised = [g.substitute_linear({v: root}) if g.coefficient(v) else g for g in raised]
        if any(g.is_zero() for g in sub_raised):
            # that form vanishes where f does, so it is a multiple of f: the
            # pole is removable and the branch is 0
            continue
        a = f.coefficient(v)
        sub_numerator = numerator.substitute({v: root.as_polynomial()}) * (Fraction(-1) / a)
        # the -1/a carries both the residue normalization and the sign of
        # the at-infinity flip for this variable
        sub_forms = list(without_v)
        for g in with_v:
            if g is f:
                continue
            sub_forms.append(g.substitute_linear({v: root}))
        total = _add(total, _pole_sum(sub_numerator, sub_forms, sub_raised, rest_vars))
    return total


# -- vanishing bookkeeping --------------------------------------------

def deg_in_subset(p: Polynomial, subset: Iterable[int]):
    """Degree of p in the z_i with i in subset (z-indices), every other
    symbol held constant: the largest sum of subset exponents over p's
    terms, and -inf on the zero polynomial.  Over a polynomial ring, an
    integral domain, the degrees of a product's factors add."""
    svars = {zvar(i) for i in subset}
    return max(
        (sum(e for v, e in mono if v in svars) for mono in p.term_map()), default=NEG_INF
    )


def vanishing_criterion(problem: ResidueProblem, l: int) -> bool:
    """True when degree bookkeeping alone forces the iterated residue of
    problem to vanish at position l, counting its variables in index order.

    Either the degrees in the tail z_l, ..., z_d leave no room for the
    exponent pattern (-1, ..., -1), or the degrees in z_l alone do while
    every denominator factor with z_l is topped by it.  Each side's degree
    is a sum over its factors: the numerator's degree plus one per numerator
    form with a z in the subset, against one per denominator form with such
    a z, so no form is ever multiplied out.  A per-variable series raises
    ValueError.
    """
    if problem.per_variable_series:
        raise ValueError("the vanishing criterion takes no per-variable series")
    variables = sorted(problem.variables, key=lambda v: v.index)
    d = len(variables)
    if not 1 <= l <= d:
        raise ValueError("need 1 <= l <= d")
    z_l = variables[l - 1]

    def sides(subset: Collection[Variable]):
        num = deg_in_subset(problem.numerator, [v.index for v in subset])
        den = 0
        for form, mult in problem.denominator_factors:
            if any(w in subset for w, _ in form.items):
                if mult > 0:
                    den += mult
                else:
                    num -= mult
        return num, den

    num, den = sides(set(variables[l - 1 :]))
    if num + (d - l + 1) < den:
        return True
    num, den = sides({z_l})
    topped = sum(
        mult
        for form, mult in problem.denominator_factors
        if mult > 0 and form.top_z_variable()[0] is z_l
    )
    return num + 1 < den and den == topped
