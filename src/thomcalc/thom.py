"""Closed classes of higher-order contact loci, computed by iterated residue.

The generating object is a rational function in auxiliary variables z_1..z_d
whose residue at infinity, taken one variable at a time from the last to the
first, lands on a polynomial in Chern symbols c_0, c_1, ...  The numerator
is a registered polynomial Qhat_d times the Vandermonde product of the
z_m - z_l, m < l; the denominator is the product of the arithmetic weights
z_m + z_r - z_l.  Both products stay factored: the residue kernel takes the
Vandermonde forms as factors of multiplicity -1 and the weights as factors
of multiplicity 1.

Beyond the main computation this module holds the classical cross-checks
(the length-two closed form, the series shift) and the fixed-point
localization terms for depths 1 to 3, generated from the complete
admissible sequences (depth 1 is the rank-one Porteous sum).  One flag sum
over ordered selections of source roots evaluates both the fixed-point sum
and the flag residue identity.  The module also proves that the
non-distinguished contributions vanish, derives a numerator Qhat_d as the
multidegree of the ideal of basic relations, and runs a positivity probe:
the residue fraction itself at z_l = a_l ... a_(d-1), expanded from the
same numerator and the same 1/form series as the kernel, on packed
exponent ints.
"""

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, permutations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    CodimensionMismatchError,
    CoincidentPoleError,
    DerivationError,
    MissingQhatError,
    QhatFormatError,
)
from .partitions import (
    AdmissibleSequence,
    basic_relations,
    deg_qhat,
    enumerate_admissible,
    triple_weight,
    uhat_index_triples,
)
from .multidegree import basic_relations_ideal, multidegree
from .poly import (
    LinearForm,
    Monomial,
    Polynomial,
    ScalarLike,
    _mono_from_pairs,
    avar,
    cvar,
    lamvar,
    linear_form,
    read_json,
    strict_int,
    thvar,
    zvar,
)
from .packed import ExponentPacking, cut_mul, inverse_series, packed_product, poly_divide_exact
from .residue import (
    FactorList,
    ResidueProblem,
    iterated_residue,
    residue_by_pole_sum,
    vanishing_criterion,
)

DEFAULT_SEED = 1729


# -- the numerator registry -------------------------------------------


def _builtin_entries() -> Dict[int, Polynomial]:
    z1, z2, z3, z4, z5 = (zvar(i) for i in range(1, 6))
    lead = linear_form((2, z1), (1, z2), (-1, z5)).as_polynomial()
    tail = Polynomial.zero()
    for coeff, pairs in (
        (2, [(z1, 2)]),
        (3, [(z1, 1), (z2, 1)]),
        (-2, [(z1, 1), (z5, 1)]),
        (2, [(z2, 1), (z3, 1)]),
        (-1, [(z2, 1), (z4, 1)]),
        (-1, [(z2, 1), (z5, 1)]),
        (-1, [(z3, 1), (z4, 1)]),
        (1, [(z4, 1), (z5, 1)]),
    ):
        tail = tail + Polynomial.term(coeff, pairs)
    return {
        1: Polynomial.one(),
        2: Polynomial.one(),
        3: Polynomial.one(),
        4: linear_form((2, z1), (1, z2), (-1, z4)).as_polynomial(),
        5: lead * tail,
    }


def _validate_qhat(d: int, poly: Polynomial):
    if d < 1:
        raise QhatFormatError("the singularity order must be at least 1")
    if poly.is_zero():
        raise QhatFormatError("the zero polynomial cannot serve as a numerator")
    expected = deg_qhat(d)
    for mono, _ in poly.terms():
        degree = 0
        for v, e in mono:
            if v.family != "z":
                raise QhatFormatError(f"numerator contains non-z symbol {v.text}")
            if not 1 <= v.index <= d:
                raise QhatFormatError(
                    f"variable {v.text} is out of range for order {d}"
                )
            if e < 0:
                raise QhatFormatError(f"negative exponent on {v.text}")
            degree += e
        if degree != expected:
            raise QhatFormatError(
                f"monomial of degree {degree} in a numerator that must be "
                f"homogeneous of degree {expected}"
            )


class QhatRegistry:
    """Numerator polynomials keyed by singularity order.

    Orders 1 through 5 are built in.  Higher orders can be supplied from
    JSON files, either a bare polynomial (the order is then read off the
    largest z-index) or an object {"d": ..., "polynomial": ...}.
    """

    def __init__(self, entries: Optional[Mapping[int, Polynomial]] = None):
        self._entries = _builtin_entries()
        # the classes thom_polynomial derives from the entries; register clears it
        self._classes: Dict[Tuple[int, int], "ThomPolynomial"] = {}
        if entries:
            for d, poly in entries.items():
                self.register(d, poly)

    def register(self, d: int, poly: Polynomial):
        _validate_qhat(d, poly)
        self._entries[d] = poly
        self._classes.clear()

    def get(self, d: int) -> Polynomial:
        if d not in self._entries:
            raise MissingQhatError(
                f"no numerator registered for order {d}; "
                f"known orders are {self.known_orders()}"
            )
        return self._entries[d]

    def known_orders(self) -> List[int]:
        return sorted(self._entries)

    def load_file(self, path: str) -> int:
        """Register one numerator from a JSON file, returning its order."""
        try:
            with open(path) as handle:
                obj = read_json(handle.read())
        except (OSError, ValueError) as err:
            raise QhatFormatError(f"cannot read numerator file {path}: {err}")
        if not isinstance(obj, dict):
            raise QhatFormatError(f"{path}: expected a JSON object")
        try:
            if "polynomial" in obj:
                d = strict_int(obj["d"])
                poly = Polynomial.from_json_dict(obj["polynomial"])
            else:
                poly = Polynomial.from_json_dict(obj)
                indices = [v.index for v in poly.variables() if v.family == "z"]
                if not indices:
                    raise QhatFormatError(
                        f"{path}: constant numerator needs an explicit order, "
                        f'use the {{"d": ..., "polynomial": ...}} form'
                    )
                d = max(indices)
        except (KeyError, TypeError, ValueError) as err:
            raise QhatFormatError(f"{path}: malformed numerator file: {err}")
        self.register(d, poly)
        return d


def _plugin_files(env: str) -> List[str]:
    try:
        names = sorted(os.listdir(env))
    except OSError as err:
        raise QhatFormatError(f"cannot scan numerator directory {env}: {err}")
    return [os.path.join(env, name) for name in names if name.endswith(".json")]


def _plugin_key() -> Optional[Tuple[str, str]]:
    """$THOMCALC_QHAT_DIR with a sha256 over its plugin files' names and
    contents, so a plugin edited in place is not served from a cache;
    None when the variable is unset."""
    env = os.environ.get("THOMCALC_QHAT_DIR")
    if not env:
        return None
    import hashlib  # here, so a run without plugins never loads it

    digest = hashlib.sha256()
    for path in _plugin_files(env):
        try:
            with open(path, "rb") as handle:
                content = handle.read()
        except OSError as err:
            raise QhatFormatError(f"cannot read numerator file {path}: {err}")
        digest.update(os.path.basename(path).encode() + b"\0")
        digest.update(hashlib.sha256(content).digest())
    return env, digest.hexdigest()


# the plugin key with the registry it loads, or with an unraised copy of
# the error its loading raised
_default_state: Optional[
    Tuple[Optional[Tuple[str, str]], Union[QhatRegistry, QhatFormatError]]
] = None


def default_registry() -> QhatRegistry:
    """The shared registry, including plugins from $THOMCALC_QHAT_DIR.

    A plugin that fails to load is not read again while the directory's
    files stay the same: each later call raises a new error of the same
    type and message."""
    global _default_state
    key = _plugin_key()
    if _default_state is None or _default_state[0] != key:
        registry = QhatRegistry()
        try:
            if key is not None:
                for path in _plugin_files(key[0]):
                    registry.load_file(path)
        except QhatFormatError as err:
            _default_state = (key, type(err)(*err.args))
            raise
        _default_state = (key, registry)
    state = _default_state[1]
    if isinstance(state, QhatFormatError):
        raise type(state)(*state.args)
    return state


def qhat(d: int, registry: Optional[QhatRegistry] = None) -> Polynomial:
    return (registry or default_registry()).get(d)


# -- the residue formula ----------------------------------------------


def _vandermonde_forms(d: int) -> List[LinearForm]:
    """The linear factors z_m - z_l, m < l, of the Vandermonde product."""
    return [
        linear_form((1, zvar(m)), (-1, zvar(l)))
        for m in range(1, d + 1)
        for l in range(m + 1, d + 1)
    ]


def vandermonde(d: int) -> Polynomial:
    return packed_product(*(form.as_polynomial() for form in _vandermonde_forms(d)))


def denominator_forms(d: int) -> List[LinearForm]:
    """The arithmetic weights z_m + z_r - z_l, one per index triple."""
    return [triple_weight(*t) for t in uhat_index_triples(d)]


def _series_cap(top: int, factor_count: int, d: int, lead: int) -> int:
    """The last index t of a per-variable series sum_t c_t z_l^(lead - t)
    that can reach the residue, for a numerator of z-degree at most top.

    Every factor is homogeneous of degree 1 in z, and factor_count is the
    signed count, the sum of the multiplicities, so the integrand without
    its series has z-degree at most top - factor_count.  A term on the
    1/(z_1 ... z_d) slice has total z-degree -d, so the indices t_1, ...,
    t_d taken from the d series sum to at most top - factor_count +
    d * (lead + 1); none of them can exceed that count.
    """
    return max(0, top - factor_count + d * (lead + 1))


def _chern_window_problem(
    numerator: Polynomial, factors: FactorList, d: int, lead: int, sign: int = 1
) -> ResidueProblem:
    """numerator times the factors over z_1..z_d, with sign times the window
    c_0 z_l^lead + ... + c_cap z_l^(lead - cap) of the Chern series on each
    z_l.  The cap is the degree count of _series_cap, which for the residue
    of tp(d, codim) is the weighted degree d * (codim + 1)."""
    top = max(sum(e for v, e in mono if v.family == "z") for mono in numerator.term_map())
    cap = _series_cap(top, sum(mult for _, mult in factors), d, lead)
    zs = tuple(zvar(l) for l in range(1, d + 1))
    series = {
        z: Polynomial(
            {_mono_from_pairs([(cvar(i), 1), (z, lead - i)]): sign for i in range(cap + 1)}
        )
        for z in zs
    }
    return ResidueProblem(numerator, factors, series, zs)


def _integrand(d: int, registry: QhatRegistry) -> Tuple[Polynomial, FactorList]:
    """F_d as the numerator (-1)^d Q_d and one factor list: the Vandermonde
    forms z_m - z_l at multiplicity -1, then the denominator forms at 1.
    Every codim, the pole sum and the positivity probe read it."""
    qhat_d = registry.get(d)
    factors = [(form, -1) for form in _vandermonde_forms(d)]
    factors += [(form, 1) for form in denominator_forms(d)]
    return (-qhat_d if d % 2 else qhat_d), tuple(factors)


def _check_class_args(d: int, codim: int):
    if d < 1:
        raise ValueError("the singularity order must be at least 1")
    if codim < 0:
        raise ValueError("the codimension parameter must be nonnegative")


def residue_problem_for(
    d: int, codim: int, registry: Optional[QhatRegistry] = None
) -> ResidueProblem:
    """The integrand whose iterated residue is the closed-class polynomial."""
    _check_class_args(d, codim)
    return _chern_window_problem(*_integrand(d, registry or default_registry()), d, codim)


@dataclass(frozen=True)
class ThomPolynomial:
    """A closed-class polynomial in Chern symbols.

    Every monomial must consist of exactly d Chern factors whose indices
    sum to d * (codim + 1).  The background symbol c_0 is kept; sending it
    to 1 gives the usual display.
    """

    d: int
    codim: int
    body: Polynomial

    def __post_init__(self):
        weighted = self.d * (self.codim + 1)
        for mono in self.body.term_map():
            count = 0
            weight = 0
            for v, e in mono:
                if v.family != "c" or e < 0:
                    raise ValueError(f"unexpected factor {v.text} in a closed class")
                count += e
                weight += v.index * e
            if count != self.d or weight != weighted:
                raise ValueError(
                    f"monomial with {count} factors of weighted degree {weight}, "
                    f"expected {self.d} and {weighted}"
                )

    def display_body(self) -> Polynomial:
        return self.body.substitute({cvar(0): Polynomial.one()})

    def to_text(self) -> str:
        return self.display_body().to_text()

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "codim": self.codim,
            "polynomial": self.body.to_json_dict(),
        }


def thom_polynomial(
    d: int, codim: int, registry: Optional[QhatRegistry] = None
) -> ThomPolynomial:
    """The closed class of the order-d contact locus in codimension shift codim.

    Uses the registered numerator for order d, so orders past the built-in
    range need a plugin.  Results are memoized in the registry until
    register changes it.
    """
    registry = registry or default_registry()
    result = registry._classes.get((d, codim))
    if result is None:
        body = iterated_residue(residue_problem_for(d, codim, registry))
        result = registry._classes[(d, codim)] = ThomPolynomial(d=d, codim=codim, body=body)
    return result


# -- classical reference values ---------------------------------------


def ronga_reference(codim: int) -> ThomPolynomial:
    """The classical closed form at order 2: c_{j+1}^2 plus the doubled
    off-diagonal products with coefficients 1, 2, 4, ..."""
    if codim < 0:
        raise ValueError("the codimension parameter must be nonnegative")
    j = codim
    body = Polynomial.term(1, [(cvar(j + 1), 2)])
    for i in range(1, j + 2):
        body = body + Polynomial.term(
            2 ** (i - 1), [(cvar(j + 1 - i), 1), (cvar(j + 1 + i), 1)]
        )
    return ThomPolynomial(d=2, codim=codim, body=body)


def thom_series_view(tp: ThomPolynomial) -> Polynomial:
    """Recenter Chern indices at codim + 1, exposing the stable series shape."""
    offset = tp.codim + 1
    mapping = {v: Polynomial.variable(avar(v.index - offset)) for v in tp.body.variables()}
    return tp.body.substitute(mapping)


def shift_check(d: int, codim: int, registry: Optional[QhatRegistry] = None) -> bool:
    """Dropping the c_0 monomials and lowering every index by one must
    reproduce the class one codimension down."""
    if codim < 1:
        raise ValueError("need codim at least 1 to shift down")
    hi = thom_polynomial(d, codim, registry).body
    lo = thom_polynomial(d, codim - 1, registry).body
    lowered = {v: Polynomial.variable(cvar(v.index - 1)) if v.index else 0 for v in hi.variables()}
    return hi.substitute(lowered) == lo


# -- Chern data for bundle maps ---------------------------------------


def _product_coeffs(roots: Sequence, bound: int, one) -> list:
    # graded coefficients of prod (1 + root * q), truncated past q^bound
    coeffs = [one] + [one * 0] * bound
    for root in roots:
        for s in range(bound, 0, -1):
            coeffs[s] = coeffs[s] + coeffs[s - 1] * root
    return coeffs


def _chern_values(lam: Sequence, theta: Sequence, truncation: int, one) -> list:
    """[c_0, ..., c_truncation] of c(q) = prod(1 + theta_j q) / prod(1 + lam_i q)
    at the given roots, in the ring whose unit is one: Polynomial roots give
    the universal classes, Fraction roots their value at a sample (evaluation
    is a ring map, so the two agree)."""
    top = _product_coeffs(theta, truncation, one)
    bottom = _product_coeffs(lam, truncation, one)
    values = [one]
    for m in range(1, truncation + 1):
        c = top[m]
        for t in range(1, min(m, len(lam)) + 1):
            c = c - bottom[t] * values[m - t]
        values.append(c)
    return values


def chern_classes(n: int, k: int, truncation: int) -> Dict[int, Polynomial]:
    """The quotient Chern classes {m: c_m} of a map between bundles of ranks
    n and k, for m <= truncation, written in the universal root symbols."""
    if n < 0 or k < 0:
        raise ValueError("bundle ranks must be nonnegative")
    if truncation < 0:
        raise ValueError("the truncation bound must be nonnegative")
    values = _chern_values(
        [Polynomial.variable(lamvar(i)) for i in range(1, n + 1)],
        [Polynomial.variable(thvar(j)) for j in range(1, k + 1)],
        truncation,
        Polynomial.one(),
    )
    return dict(enumerate(values))


def substitute_chern(tp: ThomPolynomial, n: int, k: int) -> Polynomial:
    """Specialize a closed class to a rank-n source and rank-k target."""
    if k - n != tp.codim:
        raise CodimensionMismatchError(
            f"rank excess {k - n} does not match the codimension "
            f"parameter {tp.codim}"
        )
    values = chern_classes(n, k, tp.d * (tp.codim + 1))
    return tp.body.substitute({cvar(m): c for m, c in values.items()})


def pole_sum_class(
    d: int, codim: int, registry: Optional[QhatRegistry] = None
) -> Polynomial:
    """tp(d, codim) at the roots of a rank-d source and a rank-(d + codim)
    target, as a pole sum that shares no code with the series kernel.

    At the roots the Chern series sum_i c_i z_l^(codim - i) is
    prod_t (z_l + theta_t) / prod_i (z_l + lambda_i), so the theta factors
    join the numerator and the z_l + lambda_i the denominator.  The result
    equals substitute_chern(thom_polynomial(d, codim), d, d + codim).  When
    d = 1, or d = 2 with codim <= 2, c_1 .. c_(2d + codim) are algebraically
    independent and cover every index in the class, so that equality is
    equality of the classes.  From d = 3 on some poles coincide
    structurally and the pole sum raises CoincidentPoleError.
    """
    _check_class_args(d, codim)
    k = d + codim
    zs = [zvar(l) for l in range(1, d + 1)]
    theta_factors = (
        linear_form((1, z), (1, thvar(t))).as_polynomial() for z in zs for t in range(1, k + 1)
    )
    numerator, factors = _integrand(d, registry or default_registry())
    forms = [form for form, mult in factors if mult > 0]
    forms += [linear_form((1, z), (1, lamvar(i))) for z in zs for i in range(1, d + 1)]
    return residue_by_pole_sum(packed_product(numerator, vandermonde(d), *theta_factors), forms, zs)


# -- localization over flags ------------------------------------------


def _distinct_fractions(rng: random.Random, count: int) -> List[Fraction]:
    out: List[Fraction] = []
    while len(out) < count:
        q = Fraction(rng.randint(-96, 96), rng.randint(1, 12))
        if q not in out:
            out.append(q)
    return out


def _flag_sum(lam: List[Fraction], d: int, value) -> Fraction:
    # sum over ordered d-selections s of value(z_m -> lam_{s_m}), each divided
    # by prod over stages m of prod_{i not yet chosen} (lam_i - lam_{s_m})
    zs = [zvar(l) for l in range(1, d + 1)]
    total = Fraction(0)
    for selection in permutations(range(len(lam)), d):
        num = value({z: lam[s] for z, s in zip(zs, selection)})
        den = Fraction(1)
        chosen = set()
        for s in selection:
            chosen.add(s)
            for i in range(len(lam)):
                if i not in chosen:
                    den *= lam[i] - lam[s]
        total += num / den
    return total


def flag_residue_identity(
    numerator: Polynomial,
    n: int,
    d: int,
    samples: int = 5,
    seed: int = DEFAULT_SEED,
) -> bool:
    """Check, at random rational root samples, that the nested-exclusion sum
    over ordered d-element selections equals the iterated residue of the
    Vandermonde-weighted numerator against the root poles."""
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    zs = [zvar(l) for l in range(1, d + 1)]
    for v in numerator.variables():
        if v.family != "z" or not 1 <= v.index <= d:
            raise ValueError(f"numerator must live in z_1..z_{d}, found {v.text}")
    rng = random.Random(seed)
    weighted = packed_product(vandermonde(d), numerator)
    for _ in range(samples):
        lam = _distinct_fractions(rng, n)
        lhs = _flag_sum(lam, d, numerator.evaluate)
        forms = _root_poles(d, [LinearForm(li) for li in lam])
        rhs = residue_by_pole_sum(weighted, forms, zs).evaluate({})
        if lhs != rhs:
            return False
    return True


# -- fixed-point data at depths 1 to 3 --------------------------------


@dataclass(frozen=True)
class FixedPointTerm:
    """One fixed-point contribution to the localization form.

    shifts are the jet weights tested against the target roots; the chart
    factors are the normal weights dividing the contribution.  Exactly one
    term per depth is distinguished, and it alone survives the residue.
    """

    sequence: AdmissibleSequence
    shifts: Tuple[LinearForm, ...]
    chart_factors: Tuple[LinearForm, ...]
    distinguished: bool


@cache
def fixed_point_terms(d: int) -> Tuple[FixedPointTerm, ...]:
    """The localization terms at depth d, one per complete admissible
    sequence pi = (pi_1, ..., pi_d); generated for depths 1 to 3.

    The shifts are s_l = sum of z_i over the parts i of pi_l, counted with
    multiplicity.  Each triple (m, r, l) of uhat_index_triples(d) gives one
    chart factor: z_q - s_l when pi_m and pi_r merge into some pi_q with
    q <= l, otherwise s_m + s_r - s_l, and z_l - s_l where that is zero.
    The distinguished term has pi_l = [l] for every l.  At depth 4 the rule
    fails class agreement (the orbit closure is singular there, so a fixed
    point needs its equivariant multiplicity), and d >= 4 raises ValueError.
    """
    if not 1 <= d <= 3:
        raise ValueError("localization terms are generated for depths 1 to 3 only")
    terms = []
    for seq in enumerate_admissible(d, complete_only=True):
        pi = (None,) + seq.entries
        # s_l as (coefficient, z_i) pairs, a part i repeated as often as it occurs
        s = [None] + [[(1, zvar(i)) for i in p.parts] for p in seq.entries]
        charts = []
        for m, r, l in uhat_index_triples(d):
            less_s = [(-1, v) for _, v in s[l]]
            q = next((q for q in range(1, l + 1) if pi[q] == pi[m].union(pi[r])), None)
            weight = linear_form(*([(1, zvar(q))] if q else s[m] + s[r]), *less_s)
            if weight.is_zero():
                weight = linear_form((1, zvar(l)), *less_s)
            charts.append(weight)
        shifts = tuple(linear_form(*s[l]) for l in range(1, d + 1))
        distinguished = all(p.parts == (l,) for l, p in enumerate(seq.entries, start=1))
        terms.append(FixedPointTerm(seq, shifts, tuple(charts), distinguished))
    return tuple(terms)


def fixed_point_sum(d: int, lam: Sequence[ScalarLike], theta: Sequence[ScalarLike]) -> Fraction:
    """The full depth-d fixed-point sum at numeric roots: lam are the n
    source roots and theta the k target roots, with d <= n <= k."""
    lam = [Fraction(x) for x in lam]
    theta = [Fraction(x) for x in theta]
    if not d <= len(lam) <= len(theta):
        raise ValueError("need d <= n <= k")
    terms = fixed_point_terms(d)
    if len(set(lam)) != len(lam):
        raise CoincidentPoleError("source roots in the sample coincide")

    def bracket(assignment):
        total = Fraction(0)
        for term in terms:
            num = Fraction(1)
            for shift in term.shifts:
                w = shift.evaluate(assignment)
                for t in theta:
                    num *= t - w
            den = Fraction(1)
            for chart in term.chart_factors:
                q = chart.evaluate(assignment)
                if q == 0:
                    raise CoincidentPoleError(
                        f"chart weight {chart.to_text()} vanishes at the sample"
                    )
                den *= q
            total += num / den
        return total

    return _flag_sum(lam, d, bracket)


def sampled_class_agreement(
    d: int, n: int, k: int, samples: int = 5, seed: int = DEFAULT_SEED
) -> bool:
    """Compare the fixed-point sum against the closed class at seeded
    rational samples, drawing fresh roots past pole coincidences.  The class
    is evaluated at the sample's Chern values, which equals evaluating
    substitute_chern of it at the roots."""
    rng = random.Random(seed)
    tp = thom_polynomial(d, k - n)
    top = tp.d * (tp.codim + 1)
    done = 0
    attempts = 0
    while done < samples:
        attempts += 1
        if attempts > 50 * samples:
            raise CoincidentPoleError("cannot draw enough generic root samples")
        lam = _distinct_fractions(rng, n)
        theta = [
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(k)
        ]
        try:
            lhs = fixed_point_sum(d, lam, theta)
        except CoincidentPoleError:
            continue
        values = _chern_values(lam, theta, top, Fraction(1))
        if lhs != tp.body.evaluate({cvar(m): c for m, c in enumerate(values)}):
            return False
        done += 1
    return True


# -- vanishing of the non-distinguished contributions -----------------


def _elementary_envelope(shift: LinearForm, k: int) -> Polynomial:
    # prod_j (theta_j - X) = sum_t a_t (-X)^(k - t), with the elementary
    # symmetric coefficients a_t of the theta alphabet riding as opaque
    # a-symbols (a_0 = 1), by Horner's rule in -X
    minus_x = -shift.as_polynomial()
    out = Polynomial.one()
    for t in range(1, k + 1):
        out = out * minus_x + Polynomial.variable(avar(t))
    return out


def _term_numerator_factors(term: FixedPointTerm, k: int) -> List[Polynomial]:
    # V_d's linear factors, then one envelope per shift
    return [form.as_polynomial() for form in _vandermonde_forms(term.sequence.depth)] + [
        _elementary_envelope(shift, k) for shift in term.shifts
    ]


def _root_poles(d: int, roots: Sequence[LinearForm]) -> List[LinearForm]:
    # root - z_l for l = 1..d and each source root, l outermost
    return [root.minus(linear_form((1, zvar(l)))) for l in range(1, d + 1) for root in roots]


def _term_factor_list(term: FixedPointTerm, n: int) -> FactorList:
    roots = [linear_form((1, lamvar(i))) for i in range(1, n + 1)]
    poles = _root_poles(term.sequence.depth, roots)
    return tuple((form, 1) for form in (*term.chart_factors, *poles))


def _compressed_term_residue(term: FixedPointTerm, num: Polynomial, n: int) -> Polynomial:
    """The term's full residue with theta compressed to elementary symbols
    (num is the product of its _term_numerator_factors) and the root poles
    compressed to complete homogeneous symbols."""
    charts = tuple((form, 1) for form in term.chart_factors)
    sign = -1 if n % 2 else 1
    return iterated_residue(_chern_window_problem(num, charts, term.sequence.depth, -n, sign))


def _term_residue_at_roots(
    num: Polynomial, charts: Sequence[LinearForm], lam: List[Fraction], d: int
) -> Polynomial:
    # chart weights substituted with numeric roots can produce repeated
    # poles, so this goes through the series engine rather than pole sums
    forms = (*charts, *_root_poles(d, [LinearForm(li) for li in lam]))
    problem = ResidueProblem(
        numerator=num,
        denominator_factors=tuple((form, 1) for form in forms),
        variables=tuple(zvar(l) for l in range(1, d + 1)),
    )
    return iterated_residue(problem)


@dataclass(frozen=True)
class VanishingEvidence:
    """Three independent reasons one non-distinguished term contributes
    nothing.  criterion_position is the slot where degree bookkeeping
    forces the residue to die, or None when no slot qualifies."""

    term: FixedPointTerm
    criterion_position: Optional[int]
    expansion_zero: bool
    sampled_zero: bool

    @property
    def vanishes(self) -> bool:
        return (
            self.criterion_position is not None
            and self.expansion_zero
            and self.sampled_zero
        )


def nondistinguished_vanishing(
    d: int, n: int, k: int, samples: int = 3, seed: int = DEFAULT_SEED
) -> List[VanishingEvidence]:
    """Evidence that every non-distinguished term dies in the residue.

    For each term this runs the degree criterion over all slots, takes the
    compressed symbolic residue, and recomputes the residue at seeded
    numeric root samples with the target alphabet kept symbolic."""
    if n < d:
        raise ValueError("need at least d source roots")
    if k < 1:
        raise ValueError("need at least one target root")
    rng = random.Random(seed)
    out = []
    for term in fixed_point_terms(d):
        if term.distinguished:
            continue
        num_factors = _term_numerator_factors(term, k)
        num = packed_product(*num_factors)
        factors = _term_factor_list(term, n)
        position = None
        for l in range(1, d + 1):
            if vanishing_criterion(num_factors, factors, l, d):
                position = l
                break
        expansion = _compressed_term_residue(term, num, n)
        sampled_zero = True
        for _ in range(samples):
            lam = _distinct_fractions(rng, n)
            value = _term_residue_at_roots(num, term.chart_factors, lam, d)
            if not value.is_zero():
                sampled_zero = False
        out.append(
            VanishingEvidence(
                term=term,
                criterion_position=position,
                expansion_zero=expansion.is_zero(),
                sampled_zero=sampled_zero,
            )
        )
    return out


# -- numerators by multidegree ----------------------------------------


def derive_qhat(d: int) -> Polynomial:
    """Qhat_d as the multidegree of the ideal of basic_relations(d), in the
    coordinates and weights of basic_relations_ideal."""
    return multidegree(*basic_relations_ideal(d))


@dataclass(frozen=True)
class Qhat5Steps:
    toric_quotient: Polynomial
    weight_factor: Polynomial
    result: Polynomial


def qhat5_derivation_steps(registry: Optional[QhatRegistry] = None) -> Qhat5Steps:
    """Derive the level-5 numerator and split it at the defect.

    The numerator is derive_qhat(5).  It factors as the weight of the
    unique non-toric level-5 relation times a quadratic toric quotient.
    A second non-toric relation, or a result other than the registered
    numerator, raises DerivationError."""
    defect = [r for r in basic_relations(5) if not r.toric]
    if len(defect) != 1:
        raise DerivationError(
            f"expected one non-toric relation at level 5, found {len(defect)}"
        )
    weight_factor = defect[0].weight().as_polynomial()
    result = derive_qhat(5)
    if result != qhat(5, registry):
        raise DerivationError("the level-5 multidegree disagrees with the registry")
    return Qhat5Steps(
        toric_quotient=poly_divide_exact(result, weight_factor),
        weight_factor=weight_factor,
        result=result,
    )


# -- positivity of the residue fraction -------------------------------


@dataclass(frozen=True)
class PositivityReport:
    d: int
    order: int
    minimum: Fraction
    witness: str
    term_count: int

    @property
    def nonnegative(self) -> bool:
        return self.minimum >= 0


def positivity_expansion(
    d: int, total_order: int, registry: Optional[QhatRegistry] = None
) -> PositivityReport:
    """The residue fraction F_d = V_d Q_d / prod(z_m + z_r - z_l) at
    z_l = a_l ... a_(d-1), expanded where each z_m / z_l with m < l is
    small, through total degree total_order in the a_t.  The positivity
    conjecture predicts nonnegative coefficients; the report carries the
    smallest one, with a witness monomial.

    A term prod z_l^e_l becomes prod_t a_t^(e_1 + ... + e_t), of degree
    sum_l e_l (d - l), which the packing keeps in its top field.  Each
    inverse_series factor is one packed.cut_mul, ranked by degree: a term
    meets a piece only while their degrees plus the lowest degrees of the
    factors still to come stay in range.  d = 5 takes about 0.03 s to
    degree 12."""
    if d < 1:
        raise ValueError("the singularity order must be at least 1")
    if total_order < 0:
        raise ValueError("the expansion order must be nonnegative")
    numerator, factors = _integrand(d, registry or default_registry())
    numerator = packed_product(numerator, vandermonde(d))
    # every numerator term has z-degree deg_qhat(d) + d (d - 1) / 2
    reach = deg_qhat(d) + d * (d - 1) // 2
    forms = [form for form, mult in factors if mult > 0]
    zs = [zvar(l) for l in range(1, d + 1)]
    weights = {z: d - z.index for z in zs}
    # the power-s term of 1/form, topped by z_l, has degree at least s - (d - l)
    leads = [-weights[form.top_z_variable()[0]] for form in forms]
    lowest = min(sum(e * weights[v] for v, e in mono) for mono in numerator.term_map())
    slack = max(0, total_order - lowest - sum(leads))
    # weights are below d, and a power-s term carries 2s + 1 exponents
    packing = ExponentPacking(zs, d * (reach + len(forms) * (2 * slack + 1)), weights)
    mask, half, dshift = packing.mask, packing.half, packing.degree_shift

    sign = (-1) ** d  # carried by _integrand's numerator for the residue, not by F_d
    rest = sum(leads)
    current = {
        key: sign * coeff
        for key, coeff in packing.terms(numerator, biased=True).items()
        if (key >> dshift & mask) - half + rest <= total_order
    }
    for form, lead in zip(forms, leads):
        rest -= lead
        pieces = sorted(
            ((key + packing.bias >> dshift & mask) - half, key, coeff)
            for _, key, coeff in inverse_series(packing, form, slack)
        )
        cut = total_order - rest + half  # compared with biased fields
        current = cut_mul(current, pieces, lambda k1: cut - (k1 >> dshift & mask))

    # homogeneity fixes e_d, so distinct terms give distinct monomials
    kept: Dict[Monomial, Fraction] = {}
    for key, coeff in current.items():
        exps = accumulate((key >> packing.shift[z] & mask) - half for z in zs[:-1])
        kept[tuple((avar(t), e) for t, e in enumerate(exps, 1) if e)] = Fraction(coeff)
    minimum, witness = Fraction(0), ""
    if kept:
        worst = min(kept, key=lambda mono: (kept[mono], [(v.key, e) for v, e in mono]))
        minimum, witness = kept[worst], Polynomial.term(1, worst).to_text()
    return PositivityReport(
        d=d, order=total_order, minimum=minimum, witness=witness, term_count=len(kept)
    )


def tp_positivity(d: int, codim: int, registry: Optional[QhatRegistry] = None) -> bool:
    """Every coefficient of the closed class is nonnegative."""
    body = thom_polynomial(d, codim, registry).body
    return all(coeff >= 0 for coeff in body.term_map().values())
