"""Equivariant multidegrees of coordinate-ring quotients.

Two computation routes:

* monomial ideals directly, as a weighted sum of staircase counts over
  minimal coordinate subspaces,
* general weight-homogeneous ideals by lex Groebner degeneration to the
  initial monomial ideal.

The third check is independent of both: toric_localization_example sums
the worked quadric cone's multidegree over its torus fixed points (with
residue.fraction_sum) and compares it with the Groebner route.

An ideal's ``order`` fixes the lex order of initial_ideal and
buchberger_lex.  multidegree degenerates in a lex order of its own, with
the coordinates used by the fewest generators first; the multidegree is
the same for every term order, so only the cost of the degeneration
depends on that choice.

Weights are linear forms (usually in eta-symbols); a multidegree is a
polynomial in whatever symbols the weights use.  basic_relations_ideal
gives the ideal of the basic relations, whose multidegree is the numerator
Q_d of the residue formula.

The Groebner route works on packed exponent ints (packed.ExponentPacking):
each generator is converted once to {key: coefficient} with the first
variable of the lex order in the top field, so int comparison is the
monomial order, a divisibility test is one subtraction against the guard
bits and a reduction step updates a dict.  Buchberger's algorithm takes
S-pairs first in, first out; each new basis element passes through the pair
update of Gebauer and Moeller (J. Symb. Comput. 6, 1988; Becker and
Weispfenning, Groebner Bases, 1993, UPDATE), which drops most pairs before
they are queued.  Its ``pair_budget`` counts every pair formed, whether it
is later dropped or reduced.
The staircase step finds the minimal-codimension coordinate subspaces of
the initial ideal by a branching search for minimum hitting sets of the
generators' supports, not by scanning all coordinate subsets; each branch
passes on only the supports it has not met yet.  On each subspace it
counts the standard monomials by slices, one axis at a time, on the
distinct exponent tuples over the subspace's coordinates, and each slice
drops its own repeats.  It packs each weight once and sums multiplicity
times weight product by Horner's rule over the subspaces' prefix trie, so
a weight that several subspaces share through a prefix is multiplied in
once.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import (
    InfiniteStaircaseError,
    SPairBudgetError,
    WeightInhomogeneityError,
)
from .packed import Divisor, ExponentPacking, PackedTerms, TermHeap, add_into, exact_quotient
from .packed import packed_mul, packed_product
from .partitions import basic_relations, triple_weight, uhat_index_triples
from .poly import LinearForm, Polynomial, Variable, etavar, monomial_weight, strict_int
from .poly import uhatvar, yvar
from .residue import fraction_sum


@dataclass(frozen=True)
class WeightedRing:
    """Coordinates y_1..y_n with a torus weight form per coordinate."""

    weights: Tuple[LinearForm, ...]

    def weight_of(self, index: int) -> LinearForm:
        if not 1 <= index <= len(self.weights):
            n = len(self.weights)
            raise ValueError(f"no weight for y_{index} in a ring of {n} coordinates")
        return self.weights[index - 1]


Exponents = Dict[int, int]


class MonomialIdeal:
    """A monomial ideal given by its minimal generators (an antichain)."""

    __slots__ = ("generators",)

    def __init__(self, generators: Iterable[Exponents], variable_indices: Iterable[int]):
        known = set(variable_indices)
        cleaned = []
        for gen in generators:
            gen = {strict_int(t): strict_int(e) for t, e in gen.items()}
            if any(e < 0 for e in gen.values()):
                raise ValueError(f"negative exponent in the monomial generator {gen}")
            gen = {t: e for t, e in gen.items() if e}
            for t in gen:
                if t not in known:
                    raise ValueError(f"generator mentions unknown coordinate y_{t}")
            cleaned.append(gen)
        self.generators = _minimalize(cleaned)

    def is_unit(self) -> bool:
        return any(not g for g in self.generators)


def _minimalize(gens: List[Exponents]) -> Tuple[Exponents, ...]:
    # by degree, a divisor comes first, so keep g unless a kept one divides
    # it; a repeat is divided by its first copy
    kept: List[Exponents] = []
    for g in sorted(gens, key=lambda g: sum(g.values())):
        if not any(_divides(h, g) for h in kept):
            kept.append(g)
    return tuple(kept)


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(b.get(t, 0) >= e for t, e in a.items())


def subspace_multiplicity(ideal: MonomialIdeal, subset: Iterable[int]) -> int:
    """Standard-monomial count of the ideal restricted to the subset
    coordinates.  Zero when the restriction is the unit ideal; raises
    InfiniteStaircaseError when the count is not finite (the subset's
    codimension hypothesis fails).

    Each generator is restricted once, to an exponent tuple over the sorted
    subset, repeated tuples are dropped, and the rest are counted by slices,
    one axis at a time."""
    axes = sorted(set(subset))
    # tuple() of a list: from a generator it over-allocates, then resizes,
    # and the resized tuples pile up unused in CPython's tuple free lists
    gens = {tuple([g.get(t, 0) for t in axes]) for g in ideal.generators}
    if not all(any(exps) for exps in gens):
        return 0
    return _staircase_count(gens, axes) if axes else 1


def _staircase_count(gens: Set[Tuple[int, ...]], axes: Sequence[int]) -> int:
    """Standard monomials of distinct nonzero exponent tuples over the axes,
    or InfiniteStaircaseError naming the first axis with no pure power (a
    tuple whose entry is its whole sum).  x^a m is standard exactly when m
    is for the generators with first exponent at most a; that set changes
    only at those exponents, below the first pure power.  A slice drops the
    first entry, so tuples that differed only there are counted once.  The
    slice at 0 keeps exactly the tuples with first entry 0, every pure
    power on a later axis among them, and it is counted first, so the
    axes are checked in order."""
    side = min((e[0] for e in gens if e[0] == sum(e)), default=None)
    if side is None:
        raise InfiniteStaircaseError(
            f"no pure power of y_{axes[0]} in the restricted ideal, staircase is infinite"
        )
    if len(axes) == 1:
        return side
    cuts = sorted({0, side}.union(e[0] for e in gens if e[0] < side))
    return sum(
        (hi - lo) * _staircase_count({e[1:] for e in gens if e[0] <= lo}, axes[1:])
        for lo, hi in zip(cuts, cuts[1:])
    )


def multidegree_monomial(ideal: MonomialIdeal, ring: WeightedRing) -> Polynomial:
    """Multidegree of a monomial ideal: staircase multiplicities times
    weight products over the minimal-codimension coordinate subspaces.

    Those subspaces are the smallest coordinate sets meeting the support of
    every generator, found by branching: take a generator the set does not
    meet yet and try each coordinate of its support in turn.  The weights
    are packed once, bounded by the subspace size as each is linear.  The
    subspaces, as sorted tuples, form a prefix trie, and the sum is taken
    by Horner's rule over it: each node multiplies the sum of its subtrees
    by its coordinate's weight once, so the products of many factors are
    formed only near the root."""
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

    def trie_sum(rows: List[Tuple[int, ...]], depth: int) -> PackedTerms:
        if depth == size:
            # at least 1: the subset meets every generator, so 1 is standard
            return {packing.bias: subspace_multiplicity(ideal, rows[0])}
        total: PackedTerms = {}
        for t, group in itertools.groupby(rows, key=lambda row: row[depth]):
            add_into(total, packed_mul(trie_sum(list(group), depth + 1), packed[t]))
        return total

    return packing.polynomial(trie_sum(sorted(tuple(sorted(s)) for s in found), 0))


def _hitting_sets(
    open_supports: List[FrozenSet[int]], chosen: FrozenSet[int], room: int, found: set
) -> None:
    """Add to found every set of at most len(chosen) + room coordinates that
    extends chosen and meets each of open_supports, the supports that chosen
    does not meet yet; every minimum such set is reached.  A branch that
    takes t passes on only the supports without t."""
    if not open_supports:
        found.add(chosen)
    elif room:
        for t in min(open_supports, key=len):
            rest = [s for s in open_supports if t not in s]
            _hitting_sets(rest, chosen | {t}, room - 1, found)


@dataclass(frozen=True)
class PolynomialIdeal:
    """Generators plus a lex variable order (first entry largest).

    The order names the coordinates and is the order of initial_ideal and
    buchberger_lex; multidegree picks its own and gives the same result
    for any order."""

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
            for v, e in g.exponent_pairs():
                if v not in known:
                    raise ValueError(f"generator uses {v.text}, not in the order list")
                if e < 0:
                    raise ValueError(f"generator {g.to_text()} has a negative exponent")

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
    outgrows it.  Every generator and every nonzero remainder enters the
    basis by update, the Gebauer-Moeller pair update."""
    guard, width, mask = packing.bias, packing.width, packing.mask

    def lcm(x: int, y: int) -> int:
        # the guard bit stays set in each field where x's exponent is at
        # least y's; spread to a full field, it picks x's there
        pick_x = ((((x | guard) - y) & guard) >> (width - 1)) * mask
        return (x & pick_x) | (y & ~pick_x)

    basis: List[Divisor] = []
    live: List[int] = []  # the elements that still form pairs
    pairs: deque = deque()  # (a, b, lcm of their leads), first in first out
    counts = {"taken": 0, "reduced": 0, "coprime": 0, "chain": 0}

    def update(h: Divisor) -> None:
        lead, new = h.lead, len(basis)
        basis.append(h)
        with_h = [lcm(e.lead, lead) for e in basis]
        formed = []
        for g in live:
            if counts["taken"] == pair_budget:
                raise SPairBudgetError(pair_budget, dict(counts, basis=len(basis)))
            counts["taken"] += 1
            # sorted by lcm, a coprime pair before the others of its lcm
            formed.append((with_h[g], with_h[g] != basis[g].lead + lead, g))
        for _ in range(len(pairs)):
            a, b, ab = pairs.popleft()
            if (ab - lead) & guard or ab == with_h[a] or ab == with_h[b]:
                pairs.append((a, b, ab))
            else:
                counts["chain"] += 1
        minimal: List[int] = []
        queued = []
        for gh, reducible, g in sorted(formed):
            if reducible and any(not (gh - m) & guard for m in minimal):
                counts["chain"] += 1
                continue
            # a coprime pair is never queued, but it still covers the pairs
            # whose lcm is a multiple of its own
            minimal.append(gh)
            if reducible:
                queued.append((g, new, gh))
            else:
                counts["coprime"] += 1
        pairs.extend(sorted(queued))
        live[:] = [g for g in live if (basis[g].lead - lead) & guard] + [new]

    for g in generators:
        update(Divisor(packing.terms(g)))
    while pairs:
        a, b, ab = pairs.popleft()
        counts["reduced"] += 1
        remainder = _reduce(_s_polynomial(basis[a], basis[b], ab, guard), basis)
        if remainder:
            update(Divisor(remainder))
    polys = [packing.polynomial({k + packing.bias: c for k, c in e.terms.items()}) for e in basis]
    return polys, dict(counts, basis=len(basis))


def buchberger_lex(ideal: PolynomialIdeal, pair_budget: int = 10_000) -> List[Polynomial]:
    """A lex Groebner basis by Buchberger's algorithm (first order entry
    largest).

    Terms are kept on packed exponent ints with the ideal's order from the
    top field down, so key order is the lex order and a reduction step is a
    dict update; each S-polynomial is fully reduced, dividing in Fractions
    only by a lead coefficient other than 1 or -1.  Pairs are taken first
    in, first out.  Each new element h forms a pair with every live element
    and keeps it only if the leads are not coprime and its lcm is no
    multiple of another new pair's lcm (of equal lcms one stays, none when
    one of them is coprime); a queued pair is deleted when lead(h) divides
    its lcm and that lcm differs from both of its elements' lcms with h; a
    live element whose lead lead(h) divides forms no more pairs.  These are
    the criteria of Gebauer and Moeller.  ``pair_budget`` bounds the pairs
    formed, dropped ones included; past it SPairBudgetError reports the
    pairs formed, reduced and dropped by each criterion, and the basis size.
    """
    return _lex_basis(ideal, pair_budget)[0]


def initial_ideal(ideal: PolynomialIdeal) -> MonomialIdeal:
    position = {v: i for i, v in enumerate(ideal.order)}

    def exponents(mono):
        # listed in the ideal's order, exponents compare as lists in lex order
        exps = [0] * len(position)
        for v, e in mono:
            exps[position[v]] = e
        return exps

    leads = [max(map(exponents, g.term_map())) for g in buchberger_lex(ideal)]
    indices = [v.index for v in ideal.order]
    gens = [{i: e for i, e in zip(indices, exps) if e} for exps in leads]
    return MonomialIdeal(gens, indices)


def check_weight_homogeneous(ideal: PolynomialIdeal, ring: WeightedRing) -> None:
    for gi, g in enumerate(ideal.generators):
        weights = {monomial_weight(m, lambda v: ring.weight_of(v.index)) for m in g.term_map()}
        if len(weights) > 1:
            raise WeightInhomogeneityError(
                f"generator {gi + 1} ({g.to_text()}) is not weight-homogeneous"
            )


def multidegree(ideal: PolynomialIdeal, ring: WeightedRing) -> Polynomial:
    """Multidegree by Groebner degeneration to a lex initial ideal.

    The lex order is this function's own, not the ideal's: the coordinates
    used by the fewest generators come first, so they are largest, and ties
    keep the ideal's order.  The result cannot depend on it, since a
    Groebner degeneration in any term order keeps the multidegree
    (Miller and Sturmfels, Combinatorial Commutative Algebra, 2005, ch. 8);
    the cost does, and at level 6 of the basic relations this order reduces
    73 S-pairs where the given one reduces 322."""
    check_weight_homogeneous(ideal, ring)
    if not ideal.generators:
        return Polynomial.one()
    users = Counter(v for g in ideal.generators for v in g.variables())
    order = sorted(ideal.order, key=lambda v: users[v])
    init = initial_ideal(PolynomialIdeal(ideal.generators, tuple(order)))
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
    which is the ideal's lex order (first entry largest) for initial_ideal
    and buchberger_lex, and each carries its weight z_m + z_r - z_l.
    multidegree degenerates it in its own order, which changes the cost
    and not the result."""
    if d < 1:
        raise ValueError("the singularity order must be at least 1")
    triples = uhat_index_triples(d)
    order = [yvar(i) for i in range(1, len(triples) + 1)]
    rename = {uhatvar(*t): Polynomial.variable(y) for t, y in zip(triples, order)}
    generators = [rel.polynomial.substitute(rename) for rel in basic_relations(d)]
    ring = WeightedRing(tuple(triple_weight(*t) for t in triples))
    return PolynomialIdeal.of(generators, order), ring
