"""Equivariant multidegrees of coordinate-ring quotients.

Two computation routes:

* monomial ideals directly, as a weighted sum of staircase counts over
  minimal coordinate subspaces,
* general weight-homogeneous ideals by lex Groebner degeneration to the
  initial monomial ideal.

The third check is independent of both: toric_localization_example sums
the worked quadric cone's multidegree over its torus fixed points (with
residue.fraction_sum) and compares it with the Groebner route.

Weights are linear forms (usually in eta-symbols); a multidegree is a
polynomial in whatever symbols the weights use.  basic_relations_ideal
gives the ideal of the basic relations, whose multidegree is the numerator
Q_d of the residue formula.

The Groebner route works on packed exponent ints (packed.ExponentPacking):
each generator is converted once to {key: coefficient} with the first
variable of the lex order in the top field, so int comparison is the
monomial order, a divisibility test is one subtraction against the guard
bits and a reduction step updates a dict.  Buchberger's algorithm takes
S-pairs first in, first out and skips a pair by the coprime criterion or by
the chain criterion (Gebauer and Moeller, J. Symb. Comput. 6, 1988); its
``pair_budget`` counts every pair taken from the queue, skipped or reduced.
The staircase step finds the minimal-codimension coordinate subspaces of
the initial ideal by a branching search for minimum hitting sets of the
generators' supports, not by scanning all coordinate subsets.  On each it
counts the standard monomials on exponent tuples over the subspace's
coordinates; it packs each weight once and adds multiplicity times weight
product into one packed dict.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    InfiniteStaircaseError,
    SPairBudgetError,
    WeightInhomogeneityError,
)
from .packed import Divisor, ExponentPacking, PackedTerms, TermHeap, add_into, exact_quotient
from .packed import packed_mul, packed_product
from .partitions import basic_relations, uhat_index_triples, uhat_weight
from .poly import LinearForm, Monomial, Polynomial, Variable, etavar, uhatvar, yvar
from .residue import fraction_sum


@dataclass(frozen=True)
class WeightedRing:
    """Coordinates y_1..y_n with a torus weight form per coordinate."""

    weights: Tuple[LinearForm, ...]

    def weight_of(self, index: int) -> LinearForm:
        return self.weights[index - 1]


Exponents = Dict[int, int]


class MonomialIdeal:
    """A monomial ideal given by its minimal generators (an antichain)."""

    __slots__ = ("generators",)

    def __init__(self, generators: Iterable[Exponents], variable_indices: Iterable[int]):
        known = set(variable_indices)
        cleaned = []
        for gen in generators:
            gen = {int(t): int(e) for t, e in gen.items() if e > 0}
            for t in gen:
                if t not in known:
                    raise ValueError(f"generator mentions unknown coordinate y_{t}")
            cleaned.append(gen)
        self.generators = _minimalize(cleaned)

    def is_unit(self) -> bool:
        return any(not g for g in self.generators)


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
    codimension hypothesis fails).

    Each generator is restricted once, to an exponent tuple over the sorted
    subset.  The pure powers bound the box that holds the staircase, and
    only the generators inside the box are tested against its points."""
    axes = sorted(set(subset))
    # tuple() of a list: from a generator it over-allocates, then resizes,
    # and the resized tuples pile up unused in CPython's tuple free lists
    gens = [tuple([g.get(t, 0) for t in axes]) for g in ideal.generators]
    if not all(any(exps) for exps in gens):
        return 0
    # a pure power of axis i is a tuple whose entry i is its whole sum
    box = [min((e[i] for e in gens if e[i] == sum(e)), default=0) for i in range(len(axes))]
    for t, side in zip(axes, box):
        if not side:
            raise InfiniteStaircaseError(
                f"no pure power of y_{t} in the restricted ideal, staircase is infinite"
            )
    inside = [exps for exps in gens if all(map(int.__lt__, exps, box))]
    return sum(
        not any(all(map(int.__le__, exps, point)) for exps in inside)
        for point in itertools.product(*map(range, box))
    )


def multidegree_monomial(ideal: MonomialIdeal, ring: WeightedRing) -> Polynomial:
    """Multidegree of a monomial ideal: staircase multiplicities times
    weight products over the minimal-codimension coordinate subspaces.

    Those subspaces are the smallest coordinate sets meeting the support of
    every generator, found by branching: take a generator the set does not
    meet yet and try each coordinate of its support in turn.  The weights
    are packed once, bounded by the subspace size as each is linear, and the
    products are summed in one packed dict."""
    if ideal.is_unit():
        return Polynomial.zero()
    supports = [frozenset(g) for g in ideal.generators]
    found: set = set()
    # the set of all coordinates meets every support, so the search ends
    for size in itertools.count():
        _hitting_sets(supports, frozenset(), size, found)
        if found:
            break
    weights = {t: ring.weight_of(t).as_polynomial() for t in set().union(*found)}
    packing = ExponentPacking(set().union(*(w.variables() for w in weights.values())), size)
    packed = {t: packing.terms(w) for t, w in weights.items()}
    total: PackedTerms = {}
    for subset in sorted(found, key=sorted):
        # at least 1: the subset meets every generator, so 1 is standard
        product = {packing.bias: subspace_multiplicity(ideal, subset)}
        for t in sorted(subset):
            product = packed_mul(product, packed[t])
        add_into(total, product)
    return packing.polynomial(total)


def _hitting_sets(
    supports: List[FrozenSet[int]], chosen: FrozenSet[int], room: int, found: set
) -> None:
    """Add to found every set of at most len(chosen) + room coordinates that
    extends chosen and meets each support; every minimum such set is reached."""
    open_supports = [s for s in supports if s.isdisjoint(chosen)]
    if not open_supports:
        found.add(chosen)
    elif room:
        for t in min(open_supports, key=len):
            _hitting_sets(supports, chosen | {t}, room - 1, found)


@dataclass(frozen=True)
class PolynomialIdeal:
    """Generators plus the lex variable order used for degenerations
    (first entry largest)."""

    generators: Tuple[Polynomial, ...]
    order: Tuple[Variable, ...]

    def __post_init__(self):
        known = set(self.order)
        if len(known) != len(self.order):
            raise ValueError("repeated variable in the order list")
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


def _reduce(work: TermHeap, basis: List[Divisor]) -> PackedTerms:
    """Full reduction of the terms in work (consumed) by the basis, largest
    term first; returns the remainder."""
    guard = work.guard
    remainder: PackedTerms = {}
    for key, coeff in work.drain():
        for entry in basis:
            shift = key - entry.lead
            if not shift & guard:
                work.subtract(entry.tail, shift, exact_quotient(coeff, entry.coeff))
                break
        else:
            remainder[key] = coeff
    return remainder


def _s_polynomial(a: Divisor, b: Divisor, lcm: int, guard: int) -> TermHeap:
    out = TermHeap({}, guard)
    out.subtract(a.tail, lcm - a.lead, exact_quotient(-1, a.coeff))
    out.subtract(b.tail, lcm - b.lead, exact_quotient(1, b.coeff))
    return out


def _lex_basis(ideal: PolynomialIdeal, pair_budget: int) -> Tuple[List[Polynomial], Dict[str, int]]:
    """The basis and counters of the Buchberger loop behind buchberger_lex.

    The fields first hold the generators' largest exponent.  A new key that
    outgrows them runs the loop again on fields twice as wide; the run is
    deterministic, so it takes the same pairs to the same counters."""
    generators = [g for g in ideal.generators if not g.is_zero()]
    bound = max((e for g in generators for _, e in g.exponent_pairs()), default=0)
    while True:
        packing = ExponentPacking(ideal.order, bound, lex=True)
        try:
            return _buchberger(packing, generators, pair_budget)
        except OverflowError:
            bound = packing.half ** 2


def _buchberger(
    packing: ExponentPacking, generators: List[Polynomial], pair_budget: int
) -> Tuple[List[Polynomial], Dict[str, int]]:
    """The Buchberger loop on one packing; OverflowError when a key
    outgrows it."""
    guard, width, mask = packing.bias, packing.width, packing.mask
    basis = [Divisor(packing.terms(g)) for g in generators]
    pairs = deque((a, b) for b in range(len(basis)) for a in range(b))
    taken = set()
    counts = {"taken": 0, "reduced": 0, "coprime": 0, "chain": 0}
    while pairs:
        if counts["taken"] == pair_budget:
            raise SPairBudgetError(pair_budget, dict(counts, basis=len(basis)))
        a, b = pairs.popleft()
        counts["taken"] += 1
        taken.add((a, b))
        lead_a, lead_b = basis[a].lead, basis[b].lead
        # the guard bit stays set in each field where lead_a's exponent is
        # at least lead_b's; spread to a full field, it picks lead_a's there
        pick_a = ((((lead_a | guard) - lead_b) & guard) >> (width - 1)) * mask
        lcm = (lead_a & pick_a) | (lead_b & ~pick_a)
        if lcm == lead_a + lead_b:
            counts["coprime"] += 1
            continue
        if any(
            not (lcm - entry.lead) & guard
            and (min(a, k), max(a, k)) in taken
            and (min(b, k), max(b, k)) in taken
            for k, entry in enumerate(basis)
        ):
            counts["chain"] += 1
            continue
        counts["reduced"] += 1
        remainder = _reduce(_s_polynomial(basis[a], basis[b], lcm, guard), basis)
        if remainder:
            basis.append(Divisor(remainder))
            new = len(basis) - 1
            pairs.extend((i, new) for i in range(new))
    polys = [packing.polynomial({k + packing.bias: c for k, c in e.terms.items()}) for e in basis]
    return polys, dict(counts, basis=len(basis))


def buchberger_lex(ideal: PolynomialIdeal, pair_budget: int = 10_000) -> List[Polynomial]:
    """A lex Groebner basis by Buchberger's algorithm (first order entry
    largest).

    Terms are kept on packed exponent ints with the ideal's order from the
    top field down, so key order is the lex order and a reduction step is a
    dict update; each S-polynomial is fully reduced, dividing in Fractions
    only by a lead coefficient other than 1 or -1.  Pairs are taken first
    in, first out.  A pair is skipped when its leading monomials are coprime
    (Buchberger's first criterion), or when some basis element's leading
    monomial divides their lcm and the pairs it forms with both have
    already been taken (the chain criterion).  ``pair_budget`` bounds the
    pairs taken from the queue, skipped ones included; past it
    SPairBudgetError reports the pairs taken, reduced and skipped by each
    criterion, and the basis size.
    """
    return _lex_basis(ideal, pair_budget)[0]


def initial_ideal(ideal: PolynomialIdeal) -> MonomialIdeal:
    basis = buchberger_lex(ideal)
    bound = max((e for g in basis for _, e in g.exponent_pairs()), default=0)
    packing = ExponentPacking(ideal.order, bound, lex=True)
    leads = [max(packing.terms(g)) for g in basis]
    # MonomialIdeal drops the zero exponents
    gens = [{v.index: k >> packing.shift[v] & packing.mask for v in ideal.order} for k in leads]
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


def multidegree(ideal: PolynomialIdeal, ring: WeightedRing) -> Polynomial:
    """Multidegree by Groebner degeneration: the initial monomial ideal
    under the ideal's lex order has the same multidegree."""
    check_weight_homogeneous(ideal, ring)
    if not ideal.generators:
        return Polynomial.one()
    init = initial_ideal(ideal)
    return multidegree_monomial(init, ring)


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
    # four fixed points on the cone, cyclic neighbors 1-2-3-4
    eta = {t: LinearForm(0, {etavar(t): 1}) for t in (1, 2, 3)}
    eta[4] = LinearForm(0, {etavar(1): 1, etavar(3): 1, etavar(2): -1})
    e = {t: w.as_polynomial() for t, w in eta.items()}
    neighbors = {1: (2, 4), 2: (1, 3), 3: (2, 4), 4: (1, 3)}
    localization = fraction_sum(
        (
            packed_product(*(e[t] for t in eta if t != s)),
            [eta[t].minus(eta[s]) for t in neighbors[s]],
        )
        for s in eta
    )

    # the same class from the two-fixed-point factor: eta1*eta2/(eta2-eta3)
    # plus eta3*eta4/(eta3-eta2)
    two_term = fraction_sum(
        [(e[1] * e[2], [eta[2].minus(eta[3])]), (e[3] * e[4], [eta[3].minus(eta[2])])]
    )

    ring = WeightedRing(tuple(eta.values()))
    y = [None] + [Polynomial.variable(yvar(i)) for i in range(1, 5)]
    ideal = PolynomialIdeal.of([y[1] * y[3] - y[2] * y[4]])
    groebner = multidegree(ideal, ring)

    return ToricExampleReport(
        localization_sum=localization,
        two_term_sum=two_term,
        groebner_route=groebner,
        expected=e[1] + e[3],
    )


def basic_relations_ideal(d: int) -> Tuple[PolynomialIdeal, WeightedRing]:
    """The ideal of basic_relations(d) and its weighted ring.

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
    return PolynomialIdeal.of(generators, order), ring
