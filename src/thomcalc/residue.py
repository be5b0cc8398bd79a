"""Iterated residues at infinity.

The main entry point expands every denominator factor as a geometric series
in its top z-variable, multiplies the series together one variable at a time
(innermost variable first, matching the regime |z_1| << ... << |z_d|), and
reads off the coefficient of 1/(z_1 ... z_d).  The residue carries the sign
(-1)^d relative to that coefficient.

The expansion is exact in one pass.  Going from the last variable down,
each factor's series is cut at the deepest power the current terms can
still carry to the 1/v slice, and a candidate term is dropped as soon as
one of its exponents can no longer reach -1; a variable's own series is
applied last and only supplies that slice.  No truncation order is guessed
and nothing is re-run to validate.

An iterated pole sum is the exact second route: the residue at infinity of
a rational function is minus the sum of its finite residues, so summing
over simple poles shares no code with the expansion.  The module also
hosts the degree bookkeeping (deg on a variable subset, leading-factor
counts) behind the criterion that certifies a residue vanishes without
expanding anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .errors import (
    CoincidentPoleError,
    ConstantFormError,
    TruncationUnstableError,
)
from .poly import (
    LinearForm,
    Monomial,
    Polynomial,
    RationalFunction,
    Variable,
    expand_inverse_factor,
    zvar,
)

NEG_INF = float("-inf")

FactorList = Sequence[Tuple[LinearForm, int]]


@dataclass(frozen=True)
class TruncationPolicy:
    """A budget on the expansion: base_order is the deepest power of any
    denominator factor's series the residue may use."""

    base_order: int

    def __post_init__(self):
        if self.base_order < 0:
            raise ValueError("base_order must be nonnegative")


class ResidueProblem:
    """A residue integrand: numerator, linear denominator factors, and
    an optional finite Laurent series factor per variable."""

    __slots__ = ("numerator", "denominator_factors", "per_variable_series", "variables")

    def __init__(
        self,
        numerator: Polynomial,
        denominator_factors: FactorList = (),
        per_variable_series: Optional[Mapping[Variable, Polynomial]] = None,
        variables: Sequence[Variable] = (),
    ):
        variables = tuple(variables)
        seen = set()
        for v in variables:
            if v.family != "z":
                raise ValueError(f"residue variables must be z-variables, got {v.text}")
            if v in seen:
                raise ValueError(f"duplicate residue variable {v.text}")
            seen.add(v)
        var_set = set(variables)

        factors = []
        for form, mult in denominator_factors:
            if mult < 1:
                raise ValueError("factor multiplicities must be positive")
            zs = [v for v in form.variables() if v.family == "z"]
            if not zs:
                raise ConstantFormError(f"denominator factor {form.to_text()} has no z-variable")
            stray = [v for v in zs if v not in var_set]
            if stray:
                raise ValueError(f"factor {form.to_text()} uses unlisted variable {stray[0].text}")
            factors.append((form, int(mult)))

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
        from .poly import variable_from_text

        factors = []
        for entry in obj.get("denominator_factors", []):
            form = LinearForm.from_json_dict(entry)
            factors.append((form, int(entry.get("mult", 1))))
        series = {
            variable_from_text(name): Polynomial.from_json_dict(p)
            for name, p in obj.get("per_variable_series", {}).items()
        }
        return ResidueProblem(
            numerator=Polynomial.from_json_dict(obj["numerator"]),
            denominator_factors=factors,
            per_variable_series=series,
            variables=[variable_from_text(t) for t in obj["variables"]],
        )


def _split(mono: Monomial, v: Variable) -> Tuple[int, Monomial]:
    # the exponent of v, and the monomial without v
    for i, (w, e) in enumerate(mono):
        if w is v:
            return e, mono[:i] + mono[i + 1:]
    return 0, mono


def _degrees(mono: Monomial, v: Variable) -> Tuple[int, int]:
    # the exponent of v, and the total z-degree
    e = zdeg = 0
    for w, we in mono:
        if w.family == "z":
            zdeg += we
            if w is v:
                e = we
    return e, zdeg


def _z_homogeneous(form: LinearForm) -> bool:
    return form.constant == 0 and all(v.family == "z" for v, _ in form.items)


def iterated_residue(
    problem: ResidueProblem, policy: Optional[TruncationPolicy] = None
) -> Polynomial:
    """Residue at infinity in every listed variable, exactly.

    Each denominator factor is expanded once, only as deep as the terms in
    play can still reach the 1/(z_1 ... z_d) slice, so the answer needs no
    truncation order.  A policy's base_order is a budget on that depth:
    when the exact answer needs a deeper power of some factor, the call
    raises TruncationUnstableError instead of expanding further.
    """
    if not problem.variables:
        return problem.numerator
    from .poly import _mono_mul  # local alias, hot loop

    budget = None if policy is None else policy.base_order
    # the regime is |z_1| << |z_2| << ... whatever the listed order: each
    # factor is a series in its z-variable of largest index
    variables = sorted(problem.variables, key=lambda v: v.index)
    topped: Dict[Variable, List[Tuple[LinearForm, int]]] = {v: [] for v in variables}
    for form, mult in problem.denominator_factors:
        topped[form.top_z_variable()[0]].append((form, mult))
    # each variable's series keyed by its own exponent; no series reads as 1
    series: Dict[Variable, Dict[int, List[Tuple[Monomial, Fraction]]]] = {}
    for v in variables:
        by_exp: Dict[int, List[Tuple[Monomial, Fraction]]] = {}
        own = problem.per_variable_series.get(v, Polynomial.one())
        for mono, coeff in own.term_map().items():
            e, rest = _split(mono, v)
            by_exp.setdefault(e, []).append((rest, coeff))
        series[v] = by_exp or {0: []}

    # Every factor term has total z-degree at most -1, exactly -1 for a
    # factor homogeneous in z, and each variable ends at exponent -1 after
    # its series; so the total z-degree D of a term over the variables not
    # yet sliced is bounded by what the remaining factors and series can do.
    factors_left = sum(mult for _, mult in problem.denominator_factors)
    inhomogeneous_left = sum(
        mult for form, mult in problem.denominator_factors if not _z_homogeneous(form)
    )
    series_hi = sum(max(by_exp) for by_exp in series.values())
    series_lo = sum(min(by_exp) for by_exp in series.values())

    current: Dict[Monomial, Fraction] = dict(problem.numerator.term_map())
    for i in range(len(variables) - 1, -1, -1):
        v = variables[i]
        hi_v, lo_v = max(series[v]), min(series[v])
        # factors topped by v only lower e_v, by at least one each
        v_left = sum(mult for _, mult in topped[v])
        for form, mult in topped[v]:
            if not current:
                break
            power = max(_degrees(m, v)[0] for m in current) + hi_v - v_left + 1
            if power < 0:
                current = {}
                break
            if budget is not None and power > budget:
                raise TruncationUnstableError(
                    f"the residue in {v.text} needs power {power} of 1/({form.to_text()}), "
                    f"past the order budget {budget}"
                )
            # the terms of 1/form by s, where the term carries v^-(s+1)
            pieces = []
            for mono, coeff in expand_inverse_factor(form, power).term_map().items():
                e, zdeg = _degrees(mono, v)
                pieces.append((-1 - e, mono, coeff, zdeg))
            pieces.sort(key=lambda piece: piece[0])
            homogeneous = _z_homogeneous(form)
            for _ in range(mult):
                v_left -= 1
                factors_left -= 1
                if not homogeneous:
                    inhomogeneous_left -= 1
                slack = hi_v - v_left
                zdeg_lo = factors_left - (i + 1) - series_hi
                zdeg_hi = factors_left - (i + 1) - series_lo
                merged: Dict[Monomial, Fraction] = {}
                for m1, c1 in current.items():
                    e1, z1 = _degrees(m1, v)
                    reach = e1 + slack
                    for s, m2, c2, z2 in pieces:
                        if s > reach:
                            break
                        zdeg = z1 + z2
                        if zdeg < zdeg_lo or (zdeg > zdeg_hi and not inhomogeneous_left):
                            continue
                        mono = _mono_mul(m1, m2)
                        q = merged.get(mono)
                        q = c1 * c2 if q is None else q + c1 * c2
                        if q:
                            merged[mono] = q
                        else:
                            del merged[mono]
                current = merged
        # v's series last: it only has to supply the 1/v slice
        sliced: Dict[Monomial, Fraction] = {}
        for mono, coeff in current.items():
            e, rest = _split(mono, v)
            for s_mono, s_coeff in series[v].get(-1 - e, ()):
                key = _mono_mul(rest, s_mono)
                q = sliced.get(key, 0) + coeff * s_coeff
                if q:
                    sliced[key] = q
                else:
                    del sliced[key]
        current = sliced
        series_hi -= hi_v
        series_lo -= lo_v

    result = Polynomial(current)
    if len(variables) % 2:
        result = -result
    return result


# -- the exact pole sum -----------------------------------------------


def residue_by_pole_sum(
    numerator: Polynomial,
    forms: Sequence[LinearForm],
    variables: Sequence[Variable],
) -> RationalFunction:
    """Iterated residue at infinity as a nested sum over simple poles.

    Exact (no truncation), at the price of requiring each variable's
    denominator factors to have pairwise distinct linear roots.  Intended
    for cross-checks, at numeric parameter values or at symbolic roots
    that keep the poles apart.
    """
    if numerator.has_negative_exponent():
        raise ValueError("pole-sum backend expects a polynomial numerator")
    return _pole_sum(numerator, list(forms), list(variables))


def _pole_sum(
    numerator: Polynomial, forms: List[LinearForm], variables: List[Variable]
) -> RationalFunction:
    if not variables:
        result = RationalFunction(numerator)
        for form in forms:
            result = result / RationalFunction(form.as_polynomial())
        return result
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

    total = RationalFunction(Polynomial.zero())
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
        total = total + _pole_sum(sub_numerator, sub_forms, rest_vars)
    return total


# -- vanishing bookkeeping --------------------------------------------

VarOrIndex = Union[Variable, int]


def _as_zvar_set(subset: Iterable[VarOrIndex]) -> Set[Variable]:
    out = set()
    for item in subset:
        v = zvar(item) if isinstance(item, int) else item
        if v.family != "z":
            raise ValueError(f"subset entries must be z-variables, got {v.text}")
        out.add(v)
    return out


def deg_in_subset(p: Polynomial, subset: Iterable[VarOrIndex]):
    """Degree of p after sending subset variables to t and other z-variables
    to 1, keeping remaining symbols.  Returns -inf on the zero polynomial
    (and in particular whenever cancellation wipes out every term)."""
    svars = _as_zvar_set(subset)
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


def _form_deg_in_subset(form: LinearForm, svars: Set[Variable]):
    tcoeff = Fraction(0)
    lower = form.constant
    symbolic = False
    for v, q in form.items:
        if v in svars:
            tcoeff += q
        elif v.family == "z":
            lower += q
        else:
            symbolic = True
    if tcoeff != 0:
        return 1
    if symbolic or lower != 0:
        return 0
    return NEG_INF


def _factors_deg_in_subset(factors: FactorList, subset: Set[Variable]):
    """The degree of prod(factors) in the subset; NEG_INF as soon as one
    factor has no term in it."""
    total = 0
    for form, mult in factors:
        fd = _form_deg_in_subset(form, subset)
        if fd == NEG_INF:
            return NEG_INF
        total += mult * fd
    return total


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


def vanishing_criterion(p: Polynomial, factors: FactorList, l: int, d: int) -> bool:
    """True when degree bookkeeping alone forces the iterated residue of
    p / prod(factors) over z_1..z_d to vanish at position l.

    Either the tail-subset degrees leave no room for the exponent pattern
    (-1, ..., -1), or the single-variable count at z_l does while every
    z_l-factor tops out there.
    """
    if not 1 <= l <= d:
        raise ValueError("need 1 <= l <= d")
    tail = _as_zvar_set(range(l, d + 1))
    if deg_in_subset(p, tail) + (d - l + 1) < _factors_deg_in_subset(factors, tail):
        return True

    single = _as_zvar_set([l])
    dq_single = _factors_deg_in_subset(factors, single)
    if dq_single == NEG_INF:
        return False
    dp_single = deg_in_subset(p, single)
    return dp_single + 1 < dq_single and dq_single == lead_count(factors, l)
