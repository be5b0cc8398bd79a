"""Equivariant multidegrees of coordinate-ring quotients.

Three computation routes, kept deliberately independent so they can
cross-check each other:

* monomial ideals directly, as a weighted sum of staircase counts over
  minimal coordinate subspaces,
* general weight-homogeneous ideals by lex Groebner degeneration to the
  initial monomial ideal,
* ideals with a linear generator y_j - f, peeling off the factor eta_j and
  recursing on the substituted ideal.

Weights are linear forms (usually in eta-symbols); a multidegree is a
polynomial in whatever symbols the weights use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    InfiniteStaircaseError,
    MissingGeneratorError,
    SPairBudgetError,
    WeightInhomogeneityError,
)
from .poly import (
    LinearForm,
    Monomial,
    Polynomial,
    RationalFunction,
    Variable,
    etavar,
    yvar,
)


@dataclass(frozen=True)
class WeightedRing:
    """Coordinates y_1..y_n with a torus weight form per coordinate."""

    weights: Tuple[LinearForm, ...]

    @property
    def n(self) -> int:
        return len(self.weights)

    def weight_of(self, index: int) -> LinearForm:
        return self.weights[index - 1]

    def variables(self) -> List[Variable]:
        return [yvar(i) for i in range(1, self.n + 1)]


def euler_class(ring: WeightedRing) -> Polynomial:
    out = Polynomial.one()
    for w in ring.weights:
        out = out * w.as_polynomial()
    return out


Exponents = Dict[int, int]


class MonomialIdeal:
    """A monomial ideal given by its minimal generators (an antichain)."""

    __slots__ = ("generators", "variable_indices")

    def __init__(self, generators: Iterable[Exponents], variable_indices: Iterable[int]):
        self.variable_indices = tuple(sorted(set(variable_indices)))
        cleaned = []
        for gen in generators:
            gen = {int(t): int(e) for t, e in gen.items() if e > 0}
            for t in gen:
                if t not in self.variable_indices:
                    raise ValueError(f"generator mentions unknown coordinate y_{t}")
            cleaned.append(gen)
        self.generators = _minimalize(cleaned)

    def is_unit(self) -> bool:
        return any(not g for g in self.generators)

    def restrict(self, subset: FrozenSet[int]) -> "MonomialIdeal":
        """Project onto the chosen coordinates (the others are set to 1)."""
        gens = [{t: e for t, e in g.items() if t in subset} for g in self.generators]
        return MonomialIdeal(gens, subset)


def _minimalize(gens: List[Exponents]) -> Tuple[Exponents, ...]:
    uniq: List[Exponents] = []
    for g in gens:
        if g not in uniq:
            uniq.append(g)
    kept = [g for g in uniq if not any(h != g and _divides(h, g) for h in uniq)]
    return tuple(kept)


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(b.get(t, 0) >= e for t, e in a.items())


def subspace_multiplicity(ideal: MonomialIdeal, subset: Iterable[int]) -> int:
    """Standard-monomial count of the ideal restricted to the subset
    coordinates.  Zero when the restriction is the unit ideal; raises
    InfiniteStaircaseError when the count is not finite (the subset's
    codimension hypothesis fails)."""
    subset = frozenset(subset)
    restricted = ideal.restrict(subset)
    if restricted.is_unit():
        return 0
    bounds: Dict[int, int] = {}
    for g in restricted.generators:
        if len(g) == 1:
            ((t, e),) = g.items()
            bounds[t] = min(bounds.get(t, e), e)
    for t in subset:
        if t not in bounds:
            raise InfiniteStaircaseError(
                f"no pure power of y_{t} in the restricted ideal, staircase is infinite"
            )
    axes = sorted(subset)
    count = 0
    for point in itertools.product(*(range(bounds[t]) for t in axes)):
        exps = dict(zip(axes, point))
        if not any(_divides(g, exps) for g in restricted.generators):
            count += 1
    return count


def multidegree_monomial(ideal: MonomialIdeal, ring: WeightedRing) -> Polynomial:
    """Multidegree of a monomial ideal: staircase multiplicities times
    weight products over the minimal-codimension coordinate subspaces."""
    if ideal.is_unit():
        return Polynomial.zero()
    indices = ideal.variable_indices
    codim = None
    for s in range(len(indices) + 1):
        if any(_is_hitting(ideal, set(combo)) for combo in itertools.combinations(indices, s)):
            codim = s
            break
    if codim is None:
        raise InfiniteStaircaseError("no coordinate subspace meets every generator")
    total = Polynomial.zero()
    for combo in itertools.combinations(indices, codim):
        subset = frozenset(combo)
        if not _is_hitting(ideal, subset):
            continue
        mult = subspace_multiplicity(ideal, subset)
        if mult == 0:
            continue
        piece = Polynomial.constant(mult)
        for t in sorted(subset):
            piece = piece * ring.weight_of(t).as_polynomial()
        total = total + piece
    return total


def _is_hitting(ideal: MonomialIdeal, subset) -> bool:
    return all(any(t in subset for t in g) for g in ideal.generators)


@dataclass(frozen=True)
class PolynomialIdeal:
    """Generators plus the lex variable order used for degenerations
    (first entry largest)."""

    generators: Tuple[Polynomial, ...]
    order: Tuple[Variable, ...]

    def __post_init__(self):
        known = set(self.order)
        for v in self.order:
            if v.family != "y":
                raise ValueError("ideal coordinates must be y-variables")
        for g in self.generators:
            for v in g.variables():
                if v.family == "y" and v not in known:
                    raise ValueError(f"generator uses {v.text}, not in the order list")

    @staticmethod
    def of(generators: Sequence[Polynomial], order: Optional[Sequence[Variable]] = None) -> "PolynomialIdeal":
        if order is None:
            vs = set()
            for g in generators:
                vs |= {v for v in g.variables() if v.family == "y"}
            order = sorted(vs, key=lambda v: v.index)
        return PolynomialIdeal(tuple(generators), tuple(order))


class _Lex:
    def __init__(self, order: Sequence[Variable]):
        self.pos = {v: i for i, v in enumerate(order)}
        self.size = len(self.pos)

    def vec(self, mono: Monomial) -> tuple:
        out = [0] * self.size
        for v, e in mono:
            out[self.pos[v]] = e
        return tuple(out)

    def lead(self, p: Polynomial) -> Tuple[Monomial, Fraction, tuple]:
        best = None
        for mono, coeff in p.term_map().items():
            v = self.vec(mono)
            if best is None or v > best[2]:
                best = (mono, coeff, v)
        return best


def _reduce(p: Polynomial, basis: List[Tuple[Monomial, Fraction, tuple, Polynomial]], lex: _Lex) -> Polynomial:
    remainder = Polynomial.zero()
    while not p.is_zero():
        mono, coeff, vec = lex.lead(p)
        hit = None
        for bmono, bcoeff, bvec, bpoly in basis:
            if all(a >= b for a, b in zip(vec, bvec)):
                hit = (bmono, bcoeff, bvec, bpoly)
                break
        if hit is None:
            t = Polynomial({mono: coeff})
            remainder = remainder + t
            p = p - t
            continue
        bmono, bcoeff, bvec, bpoly = hit
        quot_pairs = [(v, a - b) for (v, a), b in zip_with_vec(mono, bvec, lex)]
        t = Polynomial.term(coeff / bcoeff, quot_pairs)
        p = p - t * bpoly
    return remainder


def zip_with_vec(mono: Monomial, bvec: tuple, lex: _Lex):
    # pair each variable of mono with the divisor's exponent at that slot
    out = []
    for v, a in mono:
        out.append(((v, a), bvec[lex.pos[v]]))
    return out


def buchberger_lex(ideal: PolynomialIdeal, pair_budget: int = 10_000) -> List[Polynomial]:
    """A lex Groebner basis by Buchberger's algorithm with the coprime-lead
    skip; raises SPairBudgetError past the pair budget."""
    lex = _Lex(ideal.order)
    basis: List[Tuple[Monomial, Fraction, tuple, Polynomial]] = []
    for g in ideal.generators:
        if not g.is_zero():
            mono, coeff, vec = lex.lead(g)
            basis.append((mono, coeff, vec, g))
    pairs = [(a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))]
    processed = 0
    while pairs:
        a, b = pairs.pop(0)
        processed += 1
        if processed > pair_budget:
            raise SPairBudgetError(f"more than {pair_budget} S-pairs")
        amono, acoeff, avec, apoly = basis[a]
        bmono, bcoeff, bvec, bpoly = basis[b]
        if all(x == 0 or y == 0 for x, y in zip(avec, bvec)):
            continue  # coprime leading monomials reduce to zero
        lcm = tuple(max(x, y) for x, y in zip(avec, bvec))
        fa = _vec_to_pairs(tuple(l - x for l, x in zip(lcm, avec)), lex)
        fb = _vec_to_pairs(tuple(l - y for l, y in zip(lcm, bvec)), lex)
        s = apoly.multiply_monomial(fa, Fraction(1) / acoeff) - bpoly.multiply_monomial(
            fb, Fraction(1) / bcoeff
        )
        remainder = _reduce(s, basis, lex)
        if remainder.is_zero():
            continue
        mono, coeff, vec = lex.lead(remainder)
        basis.append((mono, coeff, vec, remainder))
        new_index = len(basis) - 1
        pairs.extend((i, new_index) for i in range(new_index))
    return [entry[3] for entry in basis]


def _vec_to_pairs(vec: tuple, lex: _Lex) -> Monomial:
    inverse = {i: v for v, i in lex.pos.items()}
    pairs = [(inverse[i], e) for i, e in enumerate(vec) if e]
    pairs.sort(key=lambda p: p[0].key)
    return tuple(pairs)


def initial_ideal(ideal: PolynomialIdeal, pair_budget: int = 10_000) -> MonomialIdeal:
    lex = _Lex(ideal.order)
    basis = buchberger_lex(ideal, pair_budget)
    gens = []
    for g in basis:
        mono, _, _ = lex.lead(g)
        gens.append({v.index: e for v, e in mono})
    return MonomialIdeal(gens, [v.index for v in ideal.order])


def check_weight_homogeneous(ideal: PolynomialIdeal, ring: WeightedRing) -> None:
    for gi, g in enumerate(ideal.generators):
        expected = None
        for mono, _ in g.terms():
            w = _monomial_weight(mono, ring)
            if expected is None:
                expected = w
            elif w != expected:
                raise WeightInhomogeneityError(
                    f"generator {gi + 1} ({g.to_text()}) is not weight-homogeneous"
                )


def _monomial_weight(mono: Monomial, ring: WeightedRing) -> LinearForm:
    coeffs: Dict[Variable, Fraction] = {}
    constant = Fraction(0)
    for v, e in mono:
        w = ring.weight_of(v.index)
        constant += e * w.constant
        for s, q in w.items:
            coeffs[s] = coeffs.get(s, Fraction(0)) + e * q
    return LinearForm(constant, coeffs)


def multidegree(ideal: PolynomialIdeal, ring: WeightedRing, pair_budget: int = 10_000) -> Polynomial:
    """Multidegree by Groebner degeneration: the initial monomial ideal
    under the ideal's lex order has the same multidegree."""
    check_weight_homogeneous(ideal, ring)
    if not ideal.generators:
        return Polynomial.one()
    init = initial_ideal(ideal, pair_budget)
    return multidegree_monomial(init, ring)


def reduce_by_linear_generator(
    ideal: PolynomialIdeal, ring: WeightedRing, j: int, f: Polynomial
) -> Tuple[PolynomialIdeal, LinearForm]:
    """Split off a generator y_j - f: returns the substituted ideal in the
    remaining coordinates and the weight factor eta_j that multiplies its
    multidegree."""
    target = Polynomial.variable(yvar(j)) - f
    kept = []
    found = False
    for g in ideal.generators:
        if not found and _scalar_multiple(g, target):
            found = True
            continue
        kept.append(g.substitute({yvar(j): f}))
    if not found:
        raise MissingGeneratorError(f"no generator of the form y_{j} - ({f.to_text()})")
    kept = [g for g in kept if not g.is_zero()]
    order = tuple(v for v in ideal.order if v.index != j)
    return PolynomialIdeal(tuple(kept), order), ring.weight_of(j)


def _scalar_multiple(a: Polynomial, b: Polynomial) -> bool:
    ta, tb = a.term_map(), b.term_map()
    if set(ta) != set(tb) or not ta:
        return False
    ratio = None
    for mono, coeff in ta.items():
        r = coeff / tb[mono]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


@dataclass(frozen=True)
class ToricExampleReport:
    localization_sum: Polynomial
    two_term_sum: Polynomial
    groebner_route: Polynomial
    expected: Polynomial

    @property
    def agree(self) -> bool:
        return (
            self.localization_sum == self.expected
            and self.two_term_sum == self.expected
            and self.groebner_route == self.expected
        )


def toric_localization_example() -> ToricExampleReport:
    """The quadric cone y1*y3 = y2*y4 with eta_4 = eta_1 + eta_3 - eta_2.

    Three independent routes to its multidegree: the four-fixed-point
    localization sum, the two-point sum over the resolved factor, and lex
    degeneration of the defining ideal.  All must give eta_1 + eta_3.
    """
    e = [None] + [Polynomial.variable(etavar(i)) for i in range(1, 5)]
    eta4 = e[1] + e[3] - e[2]

    # four fixed points on the cone, cyclic neighbors 1-2-3-4
    values = {1: e[1], 2: e[2], 3: e[3], 4: eta4}
    neighbors = {1: (2, 4), 2: (1, 3), 3: (2, 4), 4: (1, 3)}
    total = RationalFunction(Polynomial.zero())
    for s in (1, 2, 3, 4):
        num = Polynomial.one()
        for t in (1, 2, 3, 4):
            if t != s:
                num = num * values[t]
        den = Polynomial.one()
        for t in neighbors[s]:
            den = den * (values[t] - values[s])
        total = total + RationalFunction(num, den)
    localization = total.to_polynomial()

    # the same class from the two-fixed-point factor: eta1*eta2/(eta2-eta3)
    # plus eta3*eta4/(eta3-eta2)
    two_term = (
        RationalFunction(e[1] * e[2], e[2] - e[3])
        + RationalFunction(e[3] * eta4, e[3] - e[2])
    ).to_polynomial()

    ring = WeightedRing(
        (
            LinearForm(0, {etavar(1): 1}),
            LinearForm(0, {etavar(2): 1}),
            LinearForm(0, {etavar(3): 1}),
            LinearForm(0, {etavar(1): 1, etavar(3): 1, etavar(2): -1}),
        )
    )
    y = [None] + [Polynomial.variable(yvar(i)) for i in range(1, 5)]
    ideal = PolynomialIdeal.of([y[1] * y[3] - y[2] * y[4]])
    groebner = multidegree(ideal, ring)

    return ToricExampleReport(
        localization_sum=localization,
        two_term_sum=two_term,
        groebner_route=groebner,
        expected=e[1] + e[3],
    )
