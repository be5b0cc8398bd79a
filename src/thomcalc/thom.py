"""Closed classes of higher-order contact loci, computed by iterated residue.

The generating object is a rational function in auxiliary variables z_1..z_d
whose residue at infinity, taken one variable at a time from the last to the
first, lands on a polynomial in Chern symbols c_0, c_1, ...  The numerator
carries a Vandermonde factor and a registered polynomial Qhat_d; the
denominator is the product of the arithmetic weights z_m + z_r - z_l.

Beyond the main computation this module holds the classical cross-checks
(the length-two closed form, the series shift), the fixed-point
localization data for depths 1 to 3 (depth 1 is the rank-one Porteous sum)
together with machinery proving that the non-distinguished contributions
vanish, the derivation of a numerator Qhat_d as the multidegree of the
ideal of basic relations, and a Laurent expansion probing the positivity
of the residue fraction itself.
"""

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    CodimensionMismatchError,
    CoincidentPoleError,
    DerivationError,
    MissingQhatError,
    QhatFormatError,
)
from .partitions import (
    AdmissibleSequence,
    Partition,
    basic_relations,
    deg_qhat,
    dim_normal_model,
    dim_orbit,
    uhat_index_triples,
    uhat_weight,
)
from .multidegree import PolynomialIdeal, WeightedRing, multidegree
from .poly import (
    LinearForm,
    Polynomial,
    ScalarLike,
    Variable,
    avar,
    cvar,
    lamvar,
    linear_form,
    poly_divide_exact,
    thvar,
    uhatvar,
    yvar,
    zvar,
)
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
        if entries:
            for d, poly in entries.items():
                self.register(d, poly)

    def register(self, d: int, poly: Polynomial):
        _validate_qhat(d, poly)
        self._entries[d] = poly

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
                obj = json.load(handle)
        except (OSError, ValueError) as err:
            raise QhatFormatError(f"cannot read numerator file {path}: {err}")
        if not isinstance(obj, dict):
            raise QhatFormatError(f"{path}: expected a JSON object")
        try:
            if "polynomial" in obj:
                d = int(obj["d"])
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
        except QhatFormatError:
            raise
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


_default_state: Optional[Tuple[Optional[Tuple[str, str]], QhatRegistry]] = None


def default_registry() -> QhatRegistry:
    """The shared registry, including plugins from $THOMCALC_QHAT_DIR."""
    global _default_state
    key = _plugin_key()
    if _default_state is None or _default_state[0] != key:
        registry = QhatRegistry()
        if key is not None:
            for path in _plugin_files(key[0]):
                registry.load_file(path)
        _default_state = (key, registry)
    return _default_state[1]


def qhat(d: int, registry: Optional[QhatRegistry] = None) -> Polynomial:
    return (registry or default_registry()).get(d)


# -- the residue formula ----------------------------------------------


def vandermonde(d: int) -> Polynomial:
    out = Polynomial.one()
    for m in range(1, d + 1):
        for l in range(m + 1, d + 1):
            out = out * linear_form((1, zvar(m)), (-1, zvar(l))).as_polynomial()
    return out


def denominator_forms(d: int) -> List[LinearForm]:
    """The arithmetic weights z_m + z_r - z_l, one per index triple."""
    return [
        linear_form((1, zvar(m)), (1, zvar(r)), (-1, zvar(l)))
        for m, r, l in uhat_index_triples(d)
    ]


def _series_cap(numerator: Polynomial, factor_count: int, d: int, lead: int) -> int:
    """The last index t of a per-variable series sum_t c_t z_l^(lead - t)
    that can reach the residue.

    Every denominator factor is homogeneous of degree 1 in z, and a term
    on the 1/(z_1 ... z_d) slice has total z-degree -d, so the indices
    t_1, ..., t_d taken from the d series sum to deg_z(numerator) -
    factor_count + d * (lead + 1); none of them can exceed that count.
    """
    top = max(
        sum(e for v, e in mono if v.family == "z") for mono in numerator.term_map()
    )
    return max(0, top - factor_count + d * (lead + 1))


def _chern_tail(l: int, codim: int, cap: int) -> Polynomial:
    """The window c_0 z_l^codim + ... + c_cap z_l^(codim - cap) of the Chern
    series; the cap is the degree count of _series_cap, which for the
    residue of tp(d, codim) is the weighted degree d * (codim + 1)."""
    out = Polynomial.zero()
    for i in range(cap + 1):
        out = out + Polynomial.term(1, [(cvar(i), 1), (zvar(l), codim - i)])
    return out


def residue_problem_for(
    d: int, codim: int, registry: Optional[QhatRegistry] = None
) -> ResidueProblem:
    """The integrand whose iterated residue is the closed-class polynomial."""
    if d < 1:
        raise ValueError("the singularity order must be at least 1")
    if codim < 0:
        raise ValueError("the codimension parameter must be nonnegative")
    # registry lookup first, so an unregistered order fails before the
    # Vandermonde product does any work
    top = qhat(d, registry)
    numerator = vandermonde(d) * top
    if d % 2:
        numerator = -numerator
    forms = denominator_forms(d)
    cap = _series_cap(numerator, len(forms), d, codim)
    series = {zvar(l): _chern_tail(l, codim, cap) for l in range(1, d + 1)}
    return ResidueProblem(
        numerator=numerator,
        denominator_factors=tuple((form, 1) for form in forms),
        per_variable_series=series,
        variables=tuple(zvar(l) for l in range(1, d + 1)),
    )


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
        for mono, _ in self.body.terms():
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


_tp_cache: Dict[Tuple[int, int, Optional[Tuple[str, str]]], "ThomPolynomial"] = {}


def thom_polynomial(
    d: int, codim: int, registry: Optional[QhatRegistry] = None
) -> ThomPolynomial:
    """The closed class of the order-d contact locus in codimension shift codim.

    Uses the registered numerator for order d, so orders past the built-in
    range need a plugin.  Results for the default registry are memoized.
    """
    cache_key = None
    if registry is None:
        cache_key = (d, codim, _plugin_key())
        cached = _tp_cache.get(cache_key)
        if cached is not None:
            return cached
    problem = residue_problem_for(d, codim, registry)
    body = iterated_residue(problem)
    result = ThomPolynomial(d=d, codim=codim, body=body)
    if cache_key is not None:
        _tp_cache[cache_key] = result
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
    mapping = {}
    for v in tp.body.variables():
        mapping[v] = Polynomial.variable(avar(v.index - offset))
    return tp.body.substitute(mapping)


def shift_check(d: int, codim: int, registry: Optional[QhatRegistry] = None) -> bool:
    """Dropping the c_0 monomials and lowering every index by one must
    reproduce the class one codimension down."""
    if codim < 1:
        raise ValueError("need codim at least 1 to shift down")
    hi = thom_polynomial(d, codim, registry)
    lo = thom_polynomial(d, codim - 1, registry)
    shifted = Polynomial.zero()
    for mono, coeff in hi.body.term_map().items():
        if any(v.index == 0 for v, _ in mono):
            continue
        shifted = shifted + Polynomial.term(
            coeff, [(cvar(v.index - 1), e) for v, e in mono]
        )
    return shifted == lo.body


# -- Chern data for bundle maps ---------------------------------------


@dataclass(frozen=True)
class ChernAssignment:
    """Quotient Chern classes of a map between bundles of ranks n and k,
    written in the universal root symbols."""

    n: int
    k: int
    truncation: int
    values: Mapping[int, Polynomial]

    def substitution_map(self) -> Dict[Variable, Polynomial]:
        return {cvar(i): poly for i, poly in self.values.items()}


def _product_coeffs(roots: Sequence[Variable], bound: int) -> List[Polynomial]:
    # graded coefficients of prod (1 + root * q), truncated past q^bound
    coeffs = [Polynomial.one()] + [Polynomial.zero()] * bound
    for v in roots:
        root = Polynomial.variable(v)
        for s in range(bound, 0, -1):
            coeffs[s] = coeffs[s] + coeffs[s - 1] * root
    return coeffs


def chern_classes(n: int, k: int, truncation: int) -> ChernAssignment:
    if n < 0 or k < 0:
        raise ValueError("bundle ranks must be nonnegative")
    if truncation < 0:
        raise ValueError("the truncation bound must be nonnegative")
    top = _product_coeffs([thvar(j) for j in range(1, k + 1)], truncation)
    bottom = _product_coeffs([lamvar(i) for i in range(1, n + 1)], truncation)
    values: Dict[int, Polynomial] = {0: Polynomial.one()}
    for m in range(1, truncation + 1):
        c = top[m] if m <= k else Polynomial.zero()
        for t in range(1, min(m, n) + 1):
            c = c - bottom[t] * values[m - t]
        values[m] = c
    return ChernAssignment(n=n, k=k, truncation=truncation, values=values)


def substitute_chern(tp: ThomPolynomial, n: int, k: int) -> Polynomial:
    """Specialize a closed class to a rank-n source and rank-k target."""
    if k - n != tp.codim:
        raise CodimensionMismatchError(
            f"rank excess {k - n} does not match the codimension "
            f"parameter {tp.codim}"
        )
    assignment = chern_classes(n, k, tp.d * (tp.codim + 1))
    return tp.body.substitute(assignment.substitution_map())


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
    k = d + codim
    zs = [zvar(l) for l in range(1, d + 1)]
    numerator = residue_problem_for(d, codim, registry).numerator
    forms = denominator_forms(d)
    for z in zs:
        for t in range(1, k + 1):
            numerator = numerator * linear_form((1, z), (1, thvar(t))).as_polynomial()
        forms += [linear_form((1, z), (1, lamvar(i))) for i in range(1, d + 1)]
    return residue_by_pole_sum(numerator, forms, zs).to_polynomial()


# -- localization over flags ------------------------------------------


def _distinct_fractions(rng: random.Random, count: int, bound: int = 12) -> List[Fraction]:
    out: List[Fraction] = []
    while len(out) < count:
        q = Fraction(rng.randint(-8 * bound, 8 * bound), rng.randint(1, bound))
        if q not in out:
            out.append(q)
    return out


def _nested_exclusion_denominator(lam: List[Fraction], selection) -> Fraction:
    # prod over stages m of prod_{i not yet chosen} (lam_i - lam_{s_m})
    den = Fraction(1)
    chosen = set()
    for s in selection:
        chosen.add(s)
        for i in range(len(lam)):
            if i not in chosen:
                den *= lam[i] - lam[s]
    return den


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
    weighted = vandermonde(d) * numerator
    for _ in range(samples):
        lam = _distinct_fractions(rng, n)
        lhs = Fraction(0)
        for selection in permutations(range(n), d):
            assignment = {zs[m]: lam[selection[m]] for m in range(d)}
            lhs += numerator.evaluate(assignment) / _nested_exclusion_denominator(
                lam, selection
            )
        forms = [
            linear_form((-1, z), constant=li) for z in zs for li in lam
        ]
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


def _seq(*parts: Sequence[int]) -> AdmissibleSequence:
    return AdmissibleSequence(tuple(Partition(tuple(p)) for p in parts))


def fixed_point_terms(d: int) -> Tuple[FixedPointTerm, ...]:
    """The hand-tabulated localization terms; stored for depths 1 to 3."""
    z1, z2, z3 = zvar(1), zvar(2), zvar(3)
    form = linear_form
    if d == 1:
        return (FixedPointTerm(_seq([1]), (form((1, z1)),), (), True),)
    if d == 2:
        return (
            FixedPointTerm(
                _seq([1], [2]),
                (form((1, z1)), form((1, z2))),
                (form((2, z1), (-1, z2)),),
                True,
            ),
            FixedPointTerm(
                _seq([1], [1, 1]),
                (form((1, z1)), form((2, z1))),
                (form((1, z2), (-2, z1)),),
                False,
            ),
        )
    if d == 3:
        return (
            FixedPointTerm(
                _seq([1], [2], [3]),
                (form((1, z1)), form((1, z2)), form((1, z3))),
                (
                    form((2, z1), (-1, z2)),
                    form((2, z1), (-1, z3)),
                    form((1, z1), (1, z2), (-1, z3)),
                ),
                True,
            ),
            FixedPointTerm(
                _seq([1], [2], [1, 2]),
                (form((1, z1)), form((1, z2)), form((1, z1), (1, z2))),
                (
                    form((2, z1), (-1, z2)),
                    form((1, z3), (-1, z1), (-1, z2)),
                    form((1, z1), (-1, z2)),
                ),
                False,
            ),
            FixedPointTerm(
                _seq([1], [2], [1, 1]),
                (form((1, z1)), form((1, z2)), form((2, z1))),
                (
                    form((2, z1), (-1, z2)),
                    form((1, z3), (-2, z1)),
                    form((1, z2), (-1, z1)),
                ),
                False,
            ),
            FixedPointTerm(
                _seq([1], [1, 1], [3]),
                (form((1, z1)), form((2, z1)), form((1, z3))),
                (
                    form((1, z2), (-2, z1)),
                    form((1, z2), (-1, z3)),
                    form((3, z1), (-1, z3)),
                ),
                False,
            ),
            FixedPointTerm(
                _seq([1], [1, 1], [1, 1, 1]),
                (form((1, z1)), form((2, z1)), form((3, z1))),
                (
                    form((1, z2), (-2, z1)),
                    form((1, z3), (-3, z1)),
                    form((1, z2), (-3, z1)),
                ),
                False,
            ),
            FixedPointTerm(
                _seq([1], [1, 1], [2]),
                (form((1, z1)), form((2, z1)), form((1, z2))),
                (
                    form((1, z2), (-2, z1)),
                    form((1, z3), (-1, z2)),
                    form((3, z1), (-1, z2)),
                ),
                False,
            ),
        )
    raise ValueError("localization tables are stored for depths 1 to 3 only")


@dataclass(frozen=True)
class LocalizationSum:
    """Evaluator for the full fixed-point sum at numeric root samples."""

    d: int
    n: int
    k: int
    terms: Tuple[FixedPointTerm, ...]

    def evaluate(self, lam: Sequence[ScalarLike], theta: Sequence[ScalarLike]) -> Fraction:
        lam = [Fraction(x) for x in lam]
        theta = [Fraction(x) for x in theta]
        if len(lam) != self.n or len(theta) != self.k:
            raise ValueError("sample sizes must match the bundle ranks")
        if len(set(lam)) != self.n:
            raise CoincidentPoleError("source roots in the sample coincide")
        zs = [zvar(l) for l in range(1, self.d + 1)]
        total = Fraction(0)
        for selection in permutations(range(self.n), self.d):
            assignment = {zs[m]: lam[selection[m]] for m in range(self.d)}
            bracket = Fraction(0)
            for term in self.terms:
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
                bracket += num / den
            total += bracket / _nested_exclusion_denominator(lam, selection)
        return total


def fixed_point_sum(d: int, n: int, k: int) -> LocalizationSum:
    if not d <= n <= k:
        raise ValueError("need d <= n <= k")
    return LocalizationSum(d=d, n=n, k=k, terms=fixed_point_terms(d))


def porteous_localization_sum(n: int, k: int) -> LocalizationSum:
    """The rank-one degeneracy class as a sum over source roots: the
    depth-1 fixed-point sum."""
    return fixed_point_sum(1, n, k)


def sampled_class_agreement(
    d: int, n: int, k: int, samples: int = 5, seed: int = DEFAULT_SEED
) -> bool:
    """Compare the fixed-point sum against the substituted closed class at
    seeded rational samples, drawing fresh roots past pole coincidences."""
    rng = random.Random(seed)
    poly = substitute_chern(thom_polynomial(d, k - n), n, k)
    localization = fixed_point_sum(d, n, k)
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
            lhs = localization.evaluate(lam, theta)
        except CoincidentPoleError:
            continue
        assignment = {lamvar(i + 1): lam[i] for i in range(n)}
        assignment.update({thvar(j + 1): theta[j] for j in range(k)})
        if lhs != poly.evaluate(assignment):
            return False
        done += 1
    return True


# -- vanishing of the non-distinguished contributions -----------------


def _elementary_envelope(shift: LinearForm, k: int) -> Polynomial:
    # prod_j (theta_j - X) with the elementary symmetric coefficients of
    # the theta alphabet riding as opaque a-symbols
    x = shift.as_polynomial()
    out = Polynomial.zero()
    for t in range(k + 1):
        piece = (-x) ** (k - t)
        if t > 0:
            piece = piece * Polynomial.variable(avar(t))
        out = out + piece
    return out


def compressed_term_numerator(term: FixedPointTerm, k: int) -> Polynomial:
    d = term.sequence.depth
    num = vandermonde(d)
    for shift in term.shifts:
        num = num * _elementary_envelope(shift, k)
    return num


def _term_factor_list(term: FixedPointTerm, n: int) -> FactorList:
    factors = [(chart, 1) for chart in term.chart_factors]
    for l in range(1, term.sequence.depth + 1):
        for i in range(1, n + 1):
            factors.append((linear_form((1, lamvar(i)), (-1, zvar(l))), 1))
    return tuple(factors)


def _compressed_term_residue(term: FixedPointTerm, n: int, k: int) -> Polynomial:
    """The term's full residue with theta compressed to elementary symbols
    and the root poles compressed to complete homogeneous symbols."""
    d = term.sequence.depth
    num = compressed_term_numerator(term, k)
    cap = _series_cap(num, len(term.chart_factors), d, -n)
    sign = -1 if n % 2 else 1
    series = {zvar(l): sign * _chern_tail(l, -n, cap) for l in range(1, d + 1)}
    problem = ResidueProblem(
        numerator=num,
        denominator_factors=tuple((chart, 1) for chart in term.chart_factors),
        per_variable_series=series,
        variables=tuple(zvar(l) for l in range(1, d + 1)),
    )
    return iterated_residue(problem)


def _term_residue_at_roots(
    num: Polynomial, charts: Sequence[LinearForm], lam: List[Fraction], d: int
) -> Polynomial:
    # chart weights substituted with numeric roots can produce repeated
    # poles, so this goes through the series engine rather than pole sums
    forms = list(charts)
    forms.extend(
        linear_form((-1, zvar(l)), constant=li)
        for l in range(1, d + 1)
        for li in lam
    )
    problem = ResidueProblem(
        numerator=num,
        denominator_factors=tuple((form, 1) for form in forms),
        variables=tuple(zvar(l) for l in range(1, d + 1)),
    )
    return iterated_residue(problem)


def residue_term_value(
    term: FixedPointTerm, lam: Sequence[ScalarLike], theta: Sequence[ScalarLike]
) -> Fraction:
    """One term's iterated residue at a fully numeric root sample."""
    d = term.sequence.depth
    lam = [Fraction(x) for x in lam]
    theta = [Fraction(x) for x in theta]
    num = vandermonde(d)
    for shift in term.shifts:
        base = shift.as_polynomial()
        for t in theta:
            num = num * (Polynomial.constant(t) - base)
    return _term_residue_at_roots(num, term.chart_factors, lam, d).constant_term()


def distinguished_residue_value(
    d: int, lam: Sequence[ScalarLike], theta: Sequence[ScalarLike]
) -> Fraction:
    terms = [t for t in fixed_point_terms(d) if t.distinguished]
    return residue_term_value(terms[0], lam, theta)


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
        num = compressed_term_numerator(term, k)
        factors = _term_factor_list(term, n)
        position = None
        for l in range(1, d + 1):
            if vanishing_criterion(num, factors, l, d):
                position = l
                break
        expansion = _compressed_term_residue(term, n, k)
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
    """Qhat_d as the multidegree of the ideal of basic_relations(d).

    The uhat coordinates become y_1..y_n in the order of uhat_index_triples,
    which is also the lex order of the Groebner degeneration (first entry
    largest), and each carries its uhat_weight."""
    if d < 1:
        raise ValueError("the singularity order must be at least 1")
    triples = uhat_index_triples(d)
    order = [yvar(i) for i in range(1, len(triples) + 1)]
    rename = {uhatvar(*t): Polynomial.variable(y) for t, y in zip(triples, order)}
    generators = [rel.polynomial.substitute(rename) for rel in basic_relations(d)]
    ring = WeightedRing(tuple(uhat_weight(uhatvar(*t)) for t in triples))
    return multidegree(PolynomialIdeal.of(generators, order), ring)


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


def qhat5_derivation(registry: Optional[QhatRegistry] = None) -> Polynomial:
    return qhat5_derivation_steps(registry).result


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
    """Expand the residue fraction in consecutive-ratio coordinates.

    Substituting a_t for z_t / z_(t+1) and normalizing z_d to 1 turns the
    fraction into a Laurent series whose coefficients the positivity
    conjecture predicts to be nonnegative.  The report carries the smallest
    coefficient seen up to the requested total order, with a witness
    monomial."""
    if d < 1:
        raise ValueError("the singularity order must be at least 1")
    if total_order < 0:
        raise ValueError("the expansion order must be nonnegative")
    q = qhat(d, registry)
    ratios = [avar(t) for t in range(1, d)]

    def ratio_mono(m: int, l: int):
        return [(ratios[t - 1], 1) for t in range(m, l)]

    def mono_degree(mono) -> int:
        return sum(e for _, e in mono)

    def trunc(p: Polynomial, bound: int) -> Polynomial:
        return Polynomial(
            {m: c for m, c in p.term_map().items() if mono_degree(m) <= bound}
        )

    # prefactor exponents from collecting z_l powers before normalization
    per_level = [(l - 1) - (l * l) // 4 for l in range(1, d + 1)]
    prefactor_pairs = []
    for t in range(1, d):
        e = sum(per_level[:t])
        if e:
            prefactor_pairs.append((ratios[t - 1], e))
    total_shift = sum(e for _, e in prefactor_pairs)
    working = total_order + max(0, -total_shift)

    series = Polynomial.one()
    for m in range(1, d + 1):
        for l in range(m + 1, d + 1):
            series = trunc(
                series * (Polynomial.one() - Polynomial.term(1, ratio_mono(m, l))),
                working,
            )
    z_images = {
        zvar(l): Polynomial.term(1, ratio_mono(l, d)) for l in range(1, d + 1)
    }
    series = trunc(series * q.substitute(z_images), working)
    for m, r, l in uhat_index_triples(d):
        base = Polynomial.term(1, ratio_mono(m, l)) + Polynomial.term(
            1, ratio_mono(r, l)
        )
        geometric = Polynomial.one()
        power = Polynomial.one()
        for _ in range(working):
            power = trunc(power * base, working)
            if power.is_zero():
                break
            geometric = geometric + power
        series = trunc(series * geometric, working)

    sign = -1 if (dim_orbit(d) + dim_normal_model(d)) % 2 else 1
    result = series.multiply_monomial(tuple(prefactor_pairs), sign)
    kept = {
        mono: coeff
        for mono, coeff in result.term_map().items()
        if mono_degree(mono) <= total_order
    }
    if not kept:
        return PositivityReport(
            d=d, order=total_order, minimum=Fraction(0), witness="", term_count=0
        )
    worst = min(kept, key=lambda mono: (kept[mono], mono))
    witness = Polynomial.term(1, worst).to_text()
    return PositivityReport(
        d=d,
        order=total_order,
        minimum=kept[worst],
        witness=witness,
        term_count=len(kept),
    )


def tp_positivity(d: int, codim: int, registry: Optional[QhatRegistry] = None) -> bool:
    """Every coefficient of the closed class is nonnegative."""
    body = thom_polynomial(d, codim, registry).body
    return all(coeff >= 0 for _, coeff in body.terms())
