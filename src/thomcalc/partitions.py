"""Partition sequences, torus weights and the relation calculus.

A singularity stratum is indexed by a sequence of partitions, one per level,
whose l-th entry has weight at most l and whose entries are pairwise
distinct.  The functions here enumerate those sequences, test the
completeness condition that cuts out fixed points, and build the quadratic
relations among the pair-indexed weights uhat^l_{m,r} together with the
nilpotent right action used to certify them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import WeightInhomogeneityError
from .poly import (
    Coefficient,
    LinearForm,
    Monomial,
    Polynomial,
    Variable,
    _mono_from_pairs,
    _mono_text,
    linear_form,
    monomial_weight,
    uhatvar,
    uvar,
    zvar,
)


@dataclass(frozen=True)
class Partition:
    """A nondecreasing tuple of positive parts."""

    parts: Tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("partitions here are nonempty")
        if any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        if list(self.parts) != sorted(self.parts):
            raise ValueError(f"parts must be nondecreasing, got {self.parts}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def union(self, other: "Partition") -> "Partition":
        return Partition(tuple(sorted(self.parts + other.parts)))

    def to_text(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


def _partition_order_key(p: Partition) -> tuple:
    return (p.weight, p.length, p.parts)


def partitions_up_to(bound: int) -> List[Partition]:
    """Nonempty partitions of weight at most bound, ordered by weight,
    then length, then lexicographically."""
    out: List[Partition] = []
    for total in range(1, bound + 1):
        out.extend(_partitions_of(total))
    out.sort(key=_partition_order_key)
    return out


def _partitions_of(total: int) -> List[Partition]:
    results: List[Partition] = []

    def rec(remaining: int, minimum: int, acc: List[int]):
        if remaining == 0:
            results.append(Partition(tuple(acc)))
            return
        for part in range(minimum, remaining + 1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(total, 1, [])
    return results


@dataclass(frozen=True)
class AdmissibleSequence:
    """Entries pi_1..pi_d with weight(pi_l) <= l, pairwise distinct."""

    entries: Tuple[Partition, ...]

    def __post_init__(self):
        for l, entry in enumerate(self.entries, start=1):
            if entry.weight > l:
                raise ValueError(f"entry {entry.to_text()} too heavy for level {l}")
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("entries must be pairwise distinct")

    @property
    def depth(self) -> int:
        return len(self.entries)

    def is_complete(self) -> bool:
        """Every nonempty sub-multiset of every entry is itself an entry.

        Tested one part at a time: removing one part from any entry leaves
        an entry or nothing.  Every sub-multiset is reached from its entry
        by such removals, so this is the same condition."""
        entry_set = set(self.entries)
        return all(
            not rest or Partition(rest) in entry_set
            for entry in self.entries
            for rest in {entry.parts[:i] + entry.parts[i + 1:] for i in range(entry.length)}
        )

    def to_text(self) -> str:
        return "(" + ",".join(e.to_text() for e in self.entries) + ")"

    def __repr__(self) -> str:
        return f"AdmissibleSequence{tuple(e.parts for e in self.entries)}"


def enumerate_admissible(d: int, complete_only: bool = False) -> List[AdmissibleSequence]:
    """All admissible sequences of depth d, in per-level candidate order
    with the last level varying fastest."""
    level_candidates = [partitions_up_to(l) for l in range(1, d + 1)]
    out: List[AdmissibleSequence] = []

    def rec(level: int, acc: List[Partition]):
        if level == d:
            seq = AdmissibleSequence(tuple(acc))
            if not complete_only or seq.is_complete():
                out.append(seq)
            return
        for candidate in level_candidates[level]:
            if candidate in acc:
                continue
            acc.append(candidate)
            rec(level + 1, acc)
            acc.pop()

    rec(0, [])
    return out


# -- dimension bookkeeping --------------------------------------------


def uhat_index_triples(d: int) -> List[Tuple[int, int, int]]:
    """(m, r, l) with 1 <= m <= r and m + r <= l <= d, ordered by level."""
    return [
        (m, r, l)
        for l in range(1, d + 1)
        for m in range(1, l)
        for r in range(m, l - m + 1)
    ]


def dim_normal_model(d: int) -> int:
    """len(uhat_index_triples(d)), counted: level l holds floor(l^2 / 4) triples."""
    d = max(d, 0)
    return d * (d + 2) * (2 * d - 1) // 24


def dim_orbit(d: int) -> int:
    return d * (d - 1) // 2


def deg_qhat(d: int) -> int:
    return dim_normal_model(d) - dim_orbit(d)


def triple_weight(m: int, r: int, l: int) -> LinearForm:
    """z_m + z_r - z_l: the weight of uhat^l_{m,r}, a denominator factor of F_d."""
    return linear_form((1, zvar(m)), (1, zvar(r)), (-1, zvar(l)))


def uhat_weight(v: Variable) -> LinearForm:
    if v.family != "uhat":
        raise ValueError(f"expected uhat variables only, found {v.text}")
    return triple_weight(*v.index)


def relation_weight(p: Polynomial) -> LinearForm:
    """The common torus weight of a weight-homogeneous uhat-polynomial.

    Raises WeightInhomogeneityError naming two offending monomials when
    the terms disagree.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no well-defined weight")
    weight: Optional[LinearForm] = None
    first_mono = None
    for mono, _ in p.terms():
        this = monomial_weight(mono, uhat_weight)
        if weight is None:
            weight = this
            first_mono = mono
        elif this != weight:
            raise WeightInhomogeneityError(
                f"monomials {_mono_text(first_mono)} and {_mono_text(mono)} "
                f"carry different weights"
            )
    return weight


# -- basic relations among the uhat weights ---------------------------


@dataclass(frozen=True)
class BasicRelation:
    i: int
    j: int
    m: int
    level: int
    toric: bool
    polynomial: Polynomial

    def weight(self) -> LinearForm:
        return relation_weight(self.polynomial)

    def label(self) -> str:
        return f"R({self.i},{self.j},{self.m};{self.level})"


def _paired_sum(a: int, b: int, single: int, level: int) -> Polynomial:
    # sum over s of uhat^s_{a,b} uhat^level_{single,s}
    return Polynomial({
        _mono_from_pairs([(uhatvar(a, b, s), 1), (uhatvar(*sorted((single, s)), level), 1)]): 1
        for s in range(a + b, level - single + 1)
    })


def _normalize_sign(p: Polynomial) -> Polynomial:
    if p.is_zero():
        raise ValueError("cannot orient the zero polynomial")
    *_, (_, smallest_sign) = p.terms()  # terms() is sorted descending
    return -p if smallest_sign < 0 else p


def basic_relations(d: int) -> List[BasicRelation]:
    """The pairwise differences of the three double sums attached to each
    index triple, deduplicated, for every level up to d."""
    out: List[BasicRelation] = []
    for level in range(3, d + 1):
        for i in range(1, level + 1):
            for j in range(i, level + 1):
                for m in range(j, level - i - j + 1):
                    sums = [
                        _paired_sum(j, m, i, level),
                        _paired_sum(min(i, m), max(i, m), j, level),
                        _paired_sum(i, j, m, level),
                    ]
                    unique: List[Polynomial] = []
                    for s in sums:
                        if not any(s == u for u in unique):
                            unique.append(s)
                    for other in unique[1:]:
                        poly = _normalize_sign(unique[0] - other)
                        out.append(
                            BasicRelation(
                                i=i,
                                j=j,
                                m=m,
                                level=level,
                                toric=(i + j + m == level),
                                polynomial=poly,
                            )
                        )
    return out


def _reference_value(p: Polynomial, is_one: Callable[[tuple], bool]) -> Fraction:
    return p.evaluate({v: 1 if is_one(v.index) else 0 for v in p.variables()})


def uhat_reference_value(p: Polynomial) -> Fraction:
    """Evaluate a uhat-polynomial at the reference point where
    uhat^l_{m,r} is 1 exactly when m + r = l."""
    return _reference_value(p, lambda mrl: mrl[0] + mrl[1] == mrl[2])


# -- the u-space calculus ---------------------------------------------


def u_reference_value(p: Polynomial) -> Fraction:
    """Evaluate at the reference point where u^l_tau is 1 exactly when
    weight(tau) = l."""
    return _reference_value(p, lambda l_tau: sum(l_tau[1]) == l_tau[0])


def _permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


@cache
def _feasible_permutations(weights: Tuple[int, ...]) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """The permutations of entries of these weights that put weight at most
    l in each slot l, with their signs."""
    return tuple(
        (perm, _permutation_sign(perm))
        for perm in itertools.permutations(range(len(weights)))
        if all(weights[p] <= l for l, p in enumerate(perm, start=1))
    )


def expansion_relation(rho: AdmissibleSequence, tau: Partition) -> Polynomial:
    """The signed sum over permutations and insertion slots of rho's
    entries with tau merged into one slot, keeping admissible outcomes."""
    # slot l holds weight at most l, and merging tau only adds weight, so
    # the bound is tested on integers before any union is built
    weights = tuple(e.weight for e in rho.entries)
    signed: Dict[Monomial, int] = {}
    for perm, sign in _feasible_permutations(weights):
        for slot, p in enumerate(perm):
            if weights[p] + tau.weight > slot + 1:
                continue
            entries = [rho.entries[q] for q in perm]
            entries[slot] = entries[slot].union(tau)
            if len(set(entries)) != len(entries):
                continue
            # slot l holds u^l, and u keys sort by level first: canonical order
            mono = tuple((uvar(l, e.parts), 1) for l, e in enumerate(entries, start=1))
            signed[mono] = signed.get(mono, 0) + sign
    return Polynomial(signed)


def apply_right_action(p: Polynomial, m: int) -> Polynomial:
    """Leibniz action of the right-side lowering operator E_{m,m+1}:
    u^l_tau maps to u^{l-1}_tau when l = m + 1 and weight(tau) < l,
    and to zero otherwise."""
    out: Dict[Monomial, Coefficient] = {}
    for mono, coeff in p.term_map().items():
        for pos, (v, e) in enumerate(mono):
            if v.family != "u":
                raise ValueError(f"expected u-variables only, found {v.text}")
            l, tau = v.index
            if sum(tau) == l or l != m + 1:
                continue
            rest = list(mono)
            if e == 1:
                del rest[pos]
            else:
                rest[pos] = (v, e - 1)
            lowered = _mono_from_pairs(rest + [(uvar(l - 1, tau), 1)])
            out[lowered] = out.get(lowered, 0) + coeff * e
    return Polynomial(out)


def pair_relation(rho: Partition, tau: Partition, m: int) -> Polynomial:
    """u^m_{rho+tau} minus the splittings sum_{t+r=m} u^t_rho u^r_tau with
    t and r large enough to carry their partitions."""
    merged = rho.union(tau)
    if merged.weight > m:
        raise ValueError("the union does not fit under the given level")
    out = {_mono_from_pairs([(uvar(m, merged.parts), 1)]): 1}
    for t in range(rho.weight, m - tau.weight + 1):
        split = _mono_from_pairs([(uvar(t, rho.parts), 1), (uvar(m - t, tau.parts), 1)])
        out[split] = out.get(split, 0) - 1  # rho = tau meets each split twice
    return Polynomial(out)


def stored_quartic_relation() -> Polynomial:
    """The extra degree-4 relation that first appears at level 6, beyond the
    quadratic basic relations.  Stored as a constant for weight checking; its
    derivation needs Groebner computations outside our scope."""
    terms = [
        (1, [(1, 2, 4), (1, 2, 4), (2, 3, 5), (3, 3, 6)]),
        (1, [(2, 2, 4), (1, 3, 4), (1, 2, 5), (3, 3, 6)]),
        (1, [(1, 3, 4), (1, 3, 4), (2, 2, 5), (2, 3, 6)]),
        (1, [(2, 2, 4), (1, 3, 4), (2, 3, 5), (1, 3, 6)]),
        (-1, [(2, 2, 4), (1, 1, 4), (2, 3, 5), (3, 3, 6)]),
        (-1, [(1, 3, 4), (1, 2, 4), (2, 2, 5), (3, 3, 6)]),
        (-1, [(2, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 6)]),
        (-1, [(1, 3, 4), (1, 3, 4), (2, 3, 5), (2, 2, 6)]),
    ]
    return Polynomial(
        {_mono_from_pairs((uhatvar(*mrl), 1) for mrl in factors): sign for sign, factors in terms}
    )
