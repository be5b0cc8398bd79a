"""Iterated residues at infinity.

The main entry point expands every denominator factor as a geometric series
in its top z-variable, multiplies the series together one variable at a time
(innermost variable first, matching the regime |z_1| << ... << |z_d|), and
reads off the coefficient of 1/(z_1 ... z_d).  The residue carries the sign
(-1)^d relative to that coefficient.  A factor of negative multiplicity -m
is a linear numerator factor: it is multiplied in m times at its top
variable's step, before that variable's denominator factors, so the
numerator V_d * Q_d of a class never has to be expanded.

The expansion is exact in one pass.  Going from the last variable down,
each factor's series is cut at the deepest power the current terms can
still carry to the 1/v slice, and a candidate term is dropped as soon as
one of its exponents can no longer reach -1; a variable's own series is
applied last and only supplies that slice.  No truncation order is guessed
and nothing is re-run to validate.

The expansion runs on packed exponent ints (packed.ExponentPacking): one
field per variable, z_1..z_d first, then the Chern and other symbols, each
as wide as the problem's own exponent bounds require.  A monomial product
is one int addition, reading an exponent is a shift and a mask, and
coefficients are Python ints unless an input carries a Fraction.  Each
factor's step is packed.cut_mul, the product loop every packed product
shares.

An iterated pole sum is the exact second route: the residue at infinity of
a rational function is minus the sum of its finite residues, so summing
over simple poles shares no code with the expansion.  Its adder, over a
multiset of monic linear forms with one division at the end, is the
package's one exact sum of fractions, public as fraction_sum.  The
module also hosts the degree bookkeeping (deg on a variable subset,
leading-factor counts) behind the criterion that certifies a residue
vanishes without expanding anything.
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
    cut_mul,
    inverse_series,
    packed_mul,
    packed_product,
    poly_divide_exact,
)
from .poly import (
    LinearForm,
    Monomial,
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
    form, one piece of each denominator factor's series and at most one
    term of each variable's series, so no exponent exceeds the sum of what
    each of those can carry; a form raised to the power m carries each of
    its symbols to at most m.  Going down from the last variable, that sum
    for v also bounds the power at which v's denominator factors are cut,
    and a power-s piece carries each lower symbol to at most s.
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

    Each denominator factor is expanded once, only as deep as the terms in
    play can still reach the 1/(z_1 ... z_d) slice, so the answer needs no
    truncation order.  A numerator form (negative multiplicity) is
    multiplied in at its top variable's step, ahead of the cuts.  An order
    is a budget on that depth, the deepest power of any factor's series the
    residue may use: when the exact answer needs a deeper power of some
    factor, the call raises TruncationUnstableError instead of expanding
    further.  A negative order raises ValueError.

    The expansion runs on packed exponent ints (see ExponentPacking) with
    int coefficients wherever the inputs are integral.  Each factor's step
    is packed.cut_mul, a term meeting only the series pieces whose power s
    its exponent of the factor's top variable can still bring back to -1;
    each variable's series then supplies the slice by a lookup on that
    exponent.  The result becomes a Polynomial once, at the end.
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
            # the power-s piece of 1/form carries v^-(s+1)
            pieces = inverse_series(packing, form, power)
            for _ in range(mult):
                v_left -= 1
                # compared with the biased field of v
                slack = hi_v - v_left - half
                current = cut_mul(current, pieces, lambda k1: (k1 >> shift & mask) + slack)
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


def residue_by_pole_sum(
    numerator: Polynomial,
    forms: Sequence[LinearForm],
    variables: Sequence[Variable],
) -> Polynomial:
    """Iterated residue at infinity as a nested sum over simple poles.

    Exact (no truncation), at the price of requiring each variable's
    denominator factors to have pairwise distinct linear roots.  Intended
    for cross-checks, at numeric parameter values or at symbolic roots
    that keep the poles apart.  The poles' fractions are added as in
    fraction_sum; NonDivisibleError says the sum is not a polynomial.
    """
    if numerator.has_negative_exponent():
        raise ValueError("pole-sum backend expects a polynomial numerator")
    return _quotient(_pole_sum(numerator, list(forms), list(variables)))


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
    numerator: Polynomial, forms: List[LinearForm], variables: List[Variable]
) -> Factored:
    if not variables:
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
        a = f.coefficient(v)
        sub_numerator = numerator.substitute({v: root.as_polynomial()}) * (Fraction(-1) / a)
        # the -1/a carries both the residue normalization and the sign of
        # the at-infinity flip for this variable
        sub_forms = list(without_v)
        for g in with_v:
            if g is f:
                continue
            sub_forms.append(g.substitute_linear({v: root}))
        total = _add(total, _pole_sum(sub_numerator, sub_forms, rest_vars))
    return total


# -- vanishing bookkeeping --------------------------------------------

def deg_in_subset(p: Polynomial, subset: Iterable[int]):
    """Degree of p after sending z_i for i in subset (z-indices) to t and
    the other z-variables to 1, keeping remaining symbols.  Returns -inf on
    the zero polynomial (and in particular whenever cancellation wipes out
    every term).

    The map is a ring homomorphism into R[t] with R a polynomial ring over
    the rationals, an integral domain, so on a product the degrees add and
    one factor sent to 0 makes the product's degree -inf."""
    svars = {zvar(i) for i in subset}
    buckets: Dict[Tuple[int, Monomial], Fraction] = {}
    for mono, coeff in p.term_map().items():
        texp = 0
        rest = []
        for v, e in mono:
            if v in svars:
                texp += e
            elif v.family == "z":
                continue  # evaluated at 1
            else:
                rest.append((v, e))
        key = (texp, tuple(rest))
        q = buckets.get(key, Fraction(0)) + coeff
        if q:
            buckets[key] = q
        else:
            buckets.pop(key, None)
    if not buckets:
        return NEG_INF
    return max(texp for texp, _ in buckets)


def _factors_deg_in_subset(factors: FactorList, subset: Collection[int]):
    """The degree of prod(factors) in the subset, summed over the factors
    (see deg_in_subset); NEG_INF absorbs the sum when one factor has no
    term in the subset."""
    return sum(mult * deg_in_subset(form.as_polynomial(), subset) for form, mult in factors)


def lead_count(factors: FactorList, m: int) -> int:
    """Number of denominator factors (with multiplicity) whose top
    z-variable is z_m."""
    count = 0
    for form, mult in factors:
        try:
            top, _ = form.top_z_variable()
        except ConstantFormError:
            continue
        if top.index == m:
            count += mult
    return count


def vanishing_criterion(
    numerator_factors: Sequence[Polynomial], factors: FactorList, l: int, d: int
) -> bool:
    """True when degree bookkeeping alone forces the iterated residue of
    prod(numerator_factors) / prod(factors) over z_1..z_d to vanish at
    position l.

    Either the tail-subset degrees leave no room for the exponent pattern
    (-1, ..., -1), or the single-variable count at z_l does while every
    z_l-factor tops out there.  Sending the subset's z to t and the other z
    to 1 is a ring homomorphism into R[t], an integral domain, so both
    sides' degrees are sums over their factors, and one factor sent to 0
    gives -inf; the numerator is never expanded.  A single polynomial p is
    passed as [p].
    """
    if not 1 <= l <= d:
        raise ValueError("need 1 <= l <= d")
    tail = range(l, d + 1)
    dp_tail = sum(deg_in_subset(p, tail) for p in numerator_factors)
    if dp_tail + (d - l + 1) < _factors_deg_in_subset(factors, tail):
        return True

    single = [l]
    dq_single = _factors_deg_in_subset(factors, single)
    if dq_single == NEG_INF:
        return False
    dp_single = sum(deg_in_subset(p, single) for p in numerator_factors)
    return dp_single + 1 < dq_single and dq_single == lead_count(factors, l)
