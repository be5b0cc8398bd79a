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
expansion.  It takes the variables one at a time, as the kernel does, and
each level's sum over poles, divided exactly, is the next level's
polynomial numerator.  A numerator form stays a linear form, substituted
at each pole, so this route never expands V_d either.  A level's adder,
over a multiset of monic linear forms with one division at the end, is the
package's one exact sum of fractions, public as fraction_sum.  One packing
serves a whole sum: forms and roots are packed linear forms, each root
enters the numerator through its packed powers, and the residue becomes a
Polynomial once, at the end.

The vanishing criterion reads the same ResidueProblem too.  It certifies
that a residue vanishes by counting degrees in a subset of the variables,
every other symbol held constant: the numerator's degree and one per form
with a variable in the subset, so that nothing is expanded.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
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
    add_into,
    divide_by_form,
    divide_exact,
    exact_quotient,
    packed_mul,
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


def _layout(problem: ResidueProblem):
    """The variables in index order; per top variable, the denominator
    factors and the raised numerator forms; and each variable's series,
    1 where it has none."""
    variables = sorted(problem.variables, key=lambda v: v.index)
    topped: Dict[Variable, List[Tuple[LinearForm, int]]] = {v: [] for v in variables}
    raised: Dict[Variable, List[Tuple[LinearForm, int]]] = {v: [] for v in variables}
    for form, mult in problem.denominator_factors:
        (topped if mult > 0 else raised)[form.top_z_variable()[0]].append((form, abs(mult)))
    own_series = {v: problem.per_variable_series.get(v, Polynomial.one()) for v in variables}
    return variables, topped, raised, own_series


def _packing(problem: ResidueProblem, layout) -> ExponentPacking:
    """Fields for z_1..z_d, then every other symbol, wide enough for any
    exponent the expansion of problem can form; layout is _layout(problem).

    A term is one numerator term times one term of each raised numerator
    form, one term of each denominator factor's 1/form series and at most
    one term of each variable's series, so no exponent exceeds the sum of
    what each of those can carry; a form raised to the power m carries each
    of its symbols to at most m.  Going down from the last variable, that
    sum for v also bounds the deepest power of v's denominator factors a
    term can use, and a power-s term carries each lower symbol to at most s.
    """
    variables, topped, raised, series = layout
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
    return ExponentPacking(carry.keys(), max(carry.values(), default=0))


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

    The numerator is packed once (see ExponentPacking), with int
    coefficients wherever the inputs are integral, and the expansion runs on
    packed keys.  Each factor's step is packed.divide_by_form, down to the
    lowest exponent of the factor's top variable that the factors still to
    come and the variable's own series can bring back to -1; each variable's
    series then supplies the slice by a lookup on that exponent.  The result
    becomes a Polynomial once, at the end.
    """
    if order is not None and order < 0:
        raise ValueError("the order budget must be nonnegative")
    # the regime is |z_1| << |z_2| << ... whatever the listed order: each
    # factor is a series in its z-variable of largest index
    layout = _layout(problem)
    variables, topped, raised, own_series = layout
    packing = _packing(problem, layout)
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
            form_terms = packing.terms(form.as_polynomial())
            for _ in range(mult):
                current = packed_mul(current, form_terms)
        # factors topped by v only lower e_v, by at least one each
        v_left = sum(mult for _, mult in topped[v])
        for form, mult in topped[v]:
            if not current:
                break
            if order is not None:
                # the deepest power of 1/form that a term can still use
                power = max((key >> shift) & mask for key in current) - half + hi_v - v_left + 1
                if power > order:
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
    """The residue iterated_residue takes, as a sum over simple poles.

    Exact (no truncation), in the same regime and with the same signed
    multiplicities, at the price of simple poles: each variable's
    denominator factors must have pairwise distinct linear roots, and a
    multiplicity above 1 raises CoincidentPoleError.  A per-variable series
    raises ValueError.  The sum goes level by level, from the last variable
    down: minus the sum of the residues at the poles of the forms v tops is
    a polynomial in the other symbols, since each of those forms has a
    numeric lead in v, and one exact division makes it the next level's
    numerator.  A numerator form (multiplicity -m) is substituted at each
    pole of its top variable and multiplied in m times.  A branch where it
    is identically 0 is skipped: the poles are simple, so that form is a
    multiple of the pole's own form and the pole is removable.  Once a
    level's sum is 0, no lower level is checked for coincident poles.
    Intended for cross-checks, at numeric parameter values or at symbolic
    roots that keep the poles apart.

    The whole sum runs on one ExponentPacking: the numerator is packed
    once, each root enters it through the root's packed powers, each
    level's fractions are added as in fraction_sum and divided exactly
    (packed.divide_exact), and the residue becomes a Polynomial once, at
    the end.  NonDivisibleError says a level's sum is not a polynomial.
    """
    if problem.per_variable_series:
        raise ValueError("the pole sum takes no per-variable series")
    if problem.numerator.has_negative_exponent():
        raise ValueError("pole-sum backend expects a polynomial numerator")
    for form, mult in problem.denominator_factors:
        if mult > 1:
            raise CoincidentPoleError(
                f"1/({form.to_text()}) has multiplicity {mult}; the pole sum needs simple poles"
            )
    variables, topped, raised, _ = _layout(problem)
    # A level's numerator has degree at most the numerator's plus one per
    # raised form above it.  A branch at a pole of v divides by the k_v - 1
    # other forms of v at that root, each a multiple of a difference of two
    # of v's roots, so the sum's denominator holds at most C(k_v, 2) monic
    # forms and a branch is multiplied by at most that many.
    spare = sum(mult for forms in raised.values() for _, mult in forms)
    spare += max((len(forms) * (len(forms) - 1) // 2 for forms in topped.values()), default=0)
    packing = _fraction_packing(
        [problem.numerator], [form for form, _ in problem.denominator_factors], spare, variables
    )
    terms = packing.terms(problem.numerator, biased=True)
    for v in reversed(variables):
        terms = _level_sum(
            packing,
            terms,
            v,
            [packing.terms(form.as_polynomial()) for form, _ in topped[v]],
            [packing.terms(form.as_polynomial()) for form, mult in raised[v] for _ in range(mult)],
        )
        if not terms:
            break
    return packing.polynomial(terms)


def fraction_sum(terms: Iterable[Tuple[Polynomial, Sequence[LinearForm]]]) -> Polynomial:
    """The polynomial sum of numerator / prod(forms) over the pairs.

    The inputs are packed once, on one packing for the whole sum.  Each
    fraction is made monic, the sum keeps its denominator as a multiset of
    monic forms, and one exact division ends it.  A zero form raises
    ValueError; NonDivisibleError says the sum is not a polynomial.
    """
    pairs = [(numerator, list(forms)) for numerator, forms in terms]
    for i, (_, forms) in enumerate(pairs):
        for form in forms:
            if form.is_zero():
                raise ValueError(f"fraction {i} divides by the zero form {form.to_text()}")
    # the sum's denominator holds at most every form of every fraction
    every_form = [form for _, forms in pairs for form in forms]
    packing = _fraction_packing([numerator for numerator, _ in pairs], every_form, len(every_form))
    parts = (
        _monic(
            packing.terms(numerator, biased=True),
            [packing.terms(form.as_polynomial()) for form in forms],
        )
        for numerator, forms in pairs
    )
    return packing.polynomial(_quotient(packing, reduce(_add, parts, ({}, Counter()))))


def _fraction_packing(
    numerators: Sequence[Polynomial],
    forms: Sequence[LinearForm],
    spare: int,
    variables: Iterable[Variable] = (),
) -> ExponentPacking:
    """A field for every symbol of the numerators and forms, and for the
    variables, wide enough for a numerator term times spare linear forms."""
    symbols = set(variables).union(
        *(p.variables() for p in numerators), *(f.variables() for f in forms)
    )
    degree = max(
        (sum(abs(e) for _, e in mono) for p in numerators for mono in p.term_map()), default=0
    )
    return ExponentPacking(symbols, degree + spare)


# A sum of fractions over a multiset of monic linear forms, so adding two
# multiplies each numerator by only the factors it lacks.  A monic form is
# a sorted tuple of its (key, coefficient) pairs.
Factored = Tuple[PackedTerms, Counter]


def _monic(numerator: PackedTerms, forms: Sequence[PackedTerms]) -> Factored:
    # the constants and leading coefficients go to the numerator
    scale: Coefficient = 1
    den: Counter = Counter()
    for form in forms:
        items = sorted(form.items())
        # the lead is the first variable's coefficient, or the constant
        lead = items[1][1] if items[0][0] == 0 and len(items) > 1 else items[0][1]
        scale = exact_quotient(scale, lead)
        if len(items) > 1 or items[0][0]:
            den[tuple((key, exact_quotient(q, lead)) for key, q in items)] += 1
    return {key: c * scale for key, c in numerator.items()}, den


def _times(terms: PackedTerms, forms: Counter) -> PackedTerms:
    for form in forms.elements():
        terms = packed_mul(terms, dict(form))
    return terms


def _add(a: Factored, b: Factored) -> Factored:
    """The sum, which may reuse a's terms."""
    if not b[0]:
        return a
    if not a[0]:
        return b
    den = a[1] | b[1]
    out = _times(a[0], den - a[1])
    add_into(out, _times(b[0], den - b[1]))
    return out, den


def _quotient(packing: ExponentPacking, total: Factored) -> PackedTerms:
    terms, den = total
    return divide_exact(packing, terms, _times({0: 1}, den))


def _at(form: PackedTerms, at: int, root: PackedTerms) -> PackedTerms:
    """The form with the variable keyed at replaced by root.  A form, and a
    root, is packed with unbiased keys, its constant at key 0."""
    c = form.get(at)
    if c is None:
        return form
    out = {key: q for key, q in form.items() if key != at}
    add_into(out, {key: c * q for key, q in root.items()})
    return out


def _substitute(
    packing: ExponentPacking, terms: PackedTerms, v: Variable, root: PackedTerms, scale: Coefficient
) -> PackedTerms:
    """scale times the biased terms with v replaced by root, through the
    root's powers, each formed once."""
    shift, mask, half = packing.shift[v], packing.mask, packing.half
    powers = [{0: scale}]
    out: PackedTerms = {}
    for key, c in terms.items():
        e = (key >> shift & mask) - half
        while len(powers) <= e:
            powers.append(packed_mul(powers[-1], root))
        rest = key - (e << shift)
        add_into(out, {rest + k: c * q for k, q in powers[e].items()})
    return out


def _level_sum(
    packing: ExponentPacking,
    terms: PackedTerms,
    v: Variable,
    forms: Sequence[PackedTerms],
    raised: Sequence[PackedTerms],
) -> PackedTerms:
    """Minus the sum of the residues, at the poles of v's forms, of the
    biased terms times the raised forms over the forms, as biased terms."""
    at = packing.key(v, 1)
    roots = [{key: exact_quotient(-q, f[at]) for key, q in f.items() if key != at} for f in forms]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if roots[i] == roots[j]:
                root = packing.polynomial({packing.bias + key: q for key, q in roots[i].items()})
                raise CoincidentPoleError(f"poles in {v.text} coincide at {root.to_text()}")

    total: Factored = ({}, Counter())
    for f, root in zip(forms, roots):
        values = [_at(g, at, root) for g in raised]
        if not all(values):
            # that form vanishes where f does, so it is a multiple of f: the
            # pole is removable and the branch is 0
            continue
        # the -1/a carries both the residue normalization and the sign of
        # the at-infinity flip for this variable
        scale = exact_quotient(-1, f[at])
        branch = reduce(packed_mul, values, _substitute(packing, terms, v, root, scale))
        total = _add(total, _monic(branch, [_at(g, at, root) for g in forms if g is not f]))
    return _quotient(packing, total)


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
    variables, topped, _, _ = _layout(problem)
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
    return num + 1 < den and den == sum(mult for _, mult in topped[z_l])
