"""Polynomials on packed exponent ints: every product, substitution and division.

A monomial becomes one Python int with a field per variable (Kronecker
substitution, as in Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors"), so a monomial product is one
int addition.  A packed polynomial is a dict from these keys to
coefficients, which stay Python ints wherever the inputs are integral and
are Fractions only where an input has one.

There is one product loop, cut_mul: packed terms times (rank, key,
coefficient) pieces listed by increasing rank, where a term meets only the
pieces its room allows.  packed_mul is the uncut case; the residue kernel
cuts each 1/form series at the depth a term can still carry to the residue
slice, and the positivity expansion at the degree still left under its
order.  Polynomial products, powers and substitution, the kernel's
linear numerator forms (each Vandermonde factor z_m - z_l, multiplied in
at its own variable's step) and the 1/form series all multiply here and
convert to a Polynomial once, at the end.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import NonDivisibleError
from .poly import LinearForm, Monomial, PolyLike, Polynomial, Variable, _as_poly

Coefficient = Union[int, Fraction]
PackedTerms = Dict[int, Coefficient]
Piece = Tuple[int, int, Coefficient]  # (rank, unbiased key, coefficient)


def _exact(q: Fraction) -> Coefficient:
    return q.numerator if q.denominator == 1 else q


def exact_quotient(c: Coefficient, lead: Coefficient) -> Coefficient:
    """c / lead, never a float: a product for a lead of 1 or -1, else a Fraction."""
    return c * lead if lead == 1 or lead == -1 else Fraction(c) / lead


class ExponentPacking:
    """One field of `width` bits per variable, in canonical order from the
    low bits up, or with `lex` in the order the variables are given from
    the top field down; when some variables carry `weights`, one more field
    on top holds the weighted degree, the sum of exponent * weight over
    them.

    A key is the signed sum of exponent << shift, so multiplying monomials
    adds their keys.  Adding `bias` (half the field range, in every field)
    makes each field nonnegative: on a biased key a field is read by a
    shift and a mask, and a biased key plus unbiased ones stays biased.
    Keys are exact as long as no exponent or weighted degree that is formed
    exceeds `bound` in absolute value, so the caller derives `bound` from
    its own inputs.  On keys with nonnegative exponents, `bias` holds the
    guard bits: an exponent that reaches `half` sets one.
    """

    __slots__ = (
        "width", "mask", "half", "bias", "shift", "degree_shift", "_weights", "_fields", "_lex"
    )

    def __init__(
        self,
        variables: Iterable[Variable],
        bound: int,
        weights: Optional[Mapping[Variable, int]] = None,
        lex: bool = False,
    ):
        self._lex = lex
        self._fields = list(variables)[::-1] if lex else sorted(set(variables), key=lambda v: v.key)
        self._weights = dict(weights or {})
        width = max(bound, 1).bit_length() + 1
        fields = len(self._fields) + (1 if self._weights else 0)
        self.width = width
        self.mask = (1 << width) - 1
        self.half = 1 << (width - 1)
        self.bias = sum(self.half << (width * i) for i in range(fields))
        self.shift = {v: width * i for i, v in enumerate(self._fields)}
        self.degree_shift = width * len(self._fields)

    def key(self, v: Variable, e: int) -> int:
        """The unbiased key of v^e."""
        return (e << self.shift[v]) + (e * self._weights.get(v, 0) << self.degree_shift)

    def terms(self, p: Polynomial, biased: bool = False) -> PackedTerms:
        pair_key = {pair: self.key(*pair) for pair in p.exponent_pairs()}.__getitem__
        offset = self.bias if biased else 0
        return {
            sum(map(pair_key, mono), offset): _exact(c) for mono, c in p.term_map().items()
        }

    def polynomial(self, terms: Mapping[int, Coefficient]) -> Polynomial:
        """Back from biased keys with nonzero coefficients; the degree field
        is implied and dropped, and monomials come out in canonical order."""
        width, bias, half = self.width, self.bias, self.half
        fields = self._fields
        masks = [self.mask << (width * i) for i in range(len(fields))]
        pairs: Dict[int, Tuple[Variable, int]] = {}  # one tuple per (variable, exponent)
        out: Dict[Monomial, Fraction] = {}
        for key, coeff in terms.items():
            mono = []
            # the fields holding exponent 0 read as 0 after the xor
            rest = key ^ bias
            while rest:
                field = ((rest & -rest).bit_length() - 1) // width
                if field == len(fields):
                    break
                bits = key & masks[field]
                pair = pairs.get(bits)
                if pair is None:
                    pair = pairs[bits] = (fields[field], (bits >> (width * field)) - half)
                mono.append(pair)
                rest &= ~masks[field]
            if self._lex:
                mono.sort(key=lambda pair: pair[0].key)
            out[tuple(mono)] = Fraction(coeff)
        result = Polynomial.__new__(Polynomial)
        result._terms = out
        return result


def cut_mul(
    terms: Mapping[int, Coefficient], pieces: Sequence[Piece], room: Callable[[int], int]
) -> PackedTerms:
    """The sum of c1 * c2 at key k1 + k2 over the terms (k1, c1) and the
    pieces (rank, k2, c2) with rank <= room(k1).  The pieces come in
    increasing rank, so a term stops at the first piece past its room."""
    out: PackedTerms = {}
    for k1, c1 in terms.items():
        limit = room(k1)
        for rank, k2, c2 in pieces:
            if rank > limit:
                break
            key = k1 + k2
            q = out.get(key)
            q = c1 * c2 if q is None else q + c1 * c2
            if q:
                out[key] = q
            else:
                del out[key]
    return out


def _no_room(key: int) -> int:
    return 0


def packed_mul(a: Mapping[int, Coefficient], b: Mapping[int, Coefficient]) -> PackedTerms:
    """The product of two packed polynomials; at most one may be biased."""
    return cut_mul(a, [(0, key, c) for key, c in b.items()], _no_room)


def add_into(out: PackedTerms, terms: Mapping[int, Coefficient]) -> None:
    """Add the terms into out, dropping the keys that cancel."""
    for key, c in terms.items():
        q = out.get(key)
        q = c if q is None else q + c
        if q:
            out[key] = q
        else:
            del out[key]


def packed_product(*factors: Polynomial) -> Polynomial:
    """The product of the factors, multiplied on packed exponent ints."""
    pairs = [f.exponent_pairs() for f in factors]
    packing = ExponentPacking(
        {v for ps in pairs for v, _ in ps},
        sum(max((abs(e) for _, e in ps), default=0) for ps in pairs),
    )
    out = {packing.bias: 1}
    for f in factors:
        out = packed_mul(out, packing.terms(f))
    return packing.polynomial(out)


def packed_substitute(p: Polynomial, assignment: Mapping[Variable, PolyLike]) -> Polynomial:
    """p with each assigned variable replaced by a polynomial or a scalar, a
    scalar being a constant polynomial.  A negative power needs a value of
    one term: ValueError for more, ZeroDivisionError for the value 0."""
    present = p.variables()
    values = {v: _as_poly(q) for v, q in assignment.items() if v in present}
    reach = {v: max((abs(e) for _, e in q.exponent_pairs()), default=0) for v, q in values.items()}
    packing = ExponentPacking(
        (present - values.keys()).union(*(q.variables() for q in values.values())),
        max((sum(abs(e) * reach.get(v, 1) for v, e in mono) for mono in p.term_map()), default=0),
    )
    # v -> {e: value^e}, filled on demand from the nearest known power
    powers = {v: {1: packing.terms(q)} for v, q in values.items()}

    def power(v: Variable, e: int) -> PackedTerms:
        table = powers[v]
        if e < 0 and -1 not in table:
            if not table[1]:
                raise ZeroDivisionError(f"substituting 0 for {v.text}^{e}")
            if len(table[1]) > 1:
                raise ValueError("cannot invert a polynomial with more than one term")
            [(key, c)] = table[1].items()
            table[-1] = {-key: _exact(1 / Fraction(c))}
        step = 1 if e > 0 else -1
        known = e
        while known not in table:
            known -= step
        while known != e:
            table[known + step] = packed_mul(table[known], table[step])
            known += step
        return table[e]

    out: PackedTerms = {}
    for mono, coeff in p.term_map().items():
        kept = sum(packing.key(v, e) for v, e in mono if v not in values)
        term = {packing.bias + kept: _exact(coeff)}
        for v, e in mono:
            if v in values:
                term = packed_mul(term, power(v, e))
        add_into(out, term)
    return packing.polynomial(out)


def inverse_series(
    packing: ExponentPacking, form: LinearForm, order: int
) -> List[Piece]:
    """The terms of 1/form through power `order` of its series in its top
    z-variable (see poly.expand_inverse_factor), as (s, unbiased key,
    coefficient) pieces in increasing s, where the power-s terms carry
    top^-(s+1)."""
    top, a = form.top_z_variable()
    inv = Fraction(1) / a
    # one more power of -L0 / a, and of 1/top
    down = packing.key(top, -1)
    step = {packing.key(v, 1) + down: _exact(-q * inv) for v, q in form.items if v is not top}
    if form.constant:
        step[down] = _exact(-form.constant * inv)
    power: PackedTerms = {down: _exact(inv)}
    out = []
    for s in range(order + 1):
        if s:
            if not step:
                break
            power = packed_mul(power, step)
        out.extend((s, key, c) for key, c in power.items())
    return out


class Divisor:
    """Packed terms with nonnegative exponents, split into the largest key,
    its coefficient and the other terms.  With the lex-first variable in the
    top field, key order is lex order, and the lead divides a key when
    their difference sets no guard bit (the top bit of each field)."""

    __slots__ = ("terms", "lead", "coeff", "tail")

    def __init__(self, terms: PackedTerms):
        self.terms = terms
        self.lead = max(terms)
        self.coeff = terms[self.lead]
        self.tail = [(k, c) for k, c in terms.items() if k != self.lead]


class TermHeap:
    """Packed terms with nonnegative exponents and the largest key on top.

    A heap of negated keys finds the top; a heap entry whose term cancelled
    or was already popped is skipped when it surfaces.  A new key that sets
    one of the `guard` bits has outgrown its packing: OverflowError."""

    __slots__ = ("terms", "guard", "_heap")

    def __init__(self, terms: PackedTerms, guard: int):
        self.terms = terms
        self.guard = guard
        self._heap = [-key for key in terms]
        heapq.heapify(self._heap)

    def drain(self) -> Iterable[Tuple[int, Coefficient]]:
        """Remove and yield the largest (key, coefficient) until none is
        left; the caller may subtract smaller terms in between."""
        while self._heap:
            key = -heapq.heappop(self._heap)
            coeff = self.terms.pop(key, None)
            if coeff is not None:
                yield key, coeff

    def subtract(self, tail: Iterable[Tuple[int, Coefficient]], shift: int, q: Coefficient) -> None:
        """Subtract q * x^shift * tail, term by term."""
        terms = self.terms
        for tkey, tcoeff in tail:
            key = tkey + shift
            old = terms.get(key)
            if old is None:
                if key & self.guard:
                    raise OverflowError("a packed exponent outgrew its field")
                terms[key] = -q * tcoeff
                heapq.heappush(self._heap, -key)
            else:
                new = old - q * tcoeff
                if new:
                    terms[key] = new
                else:
                    del terms[key]


def poly_divide_exact(p: Polynomial, q: Polynomial) -> Polynomial:
    """Divide p by q, requiring a zero remainder.

    Runs single-divisor division under the lex order of the variables
    present, sorted by canonical key descending, on packed keys from a
    TermHeap.  An exact quotient never needs an exponent above the largest
    one of p and q, so the fields hold that much; a remainder term that
    outgrows them proves a remainder.  Laurent inputs are rejected.
    Raises NonDivisibleError when the division leaves a remainder.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.has_negative_exponent() or q.has_negative_exponent():
        raise ValueError("exact division expects plain polynomials, not Laurent terms")
    if p.is_zero():
        return Polynomial.zero()
    pairs = p.exponent_pairs() | q.exponent_pairs()
    packing = ExponentPacking({v for v, _ in pairs}, max((e for _, e in pairs), default=0))
    guard = packing.bias
    divisor = Divisor(packing.terms(q))
    quotient: PackedTerms = {}
    remainder = TermHeap(packing.terms(p), guard)
    try:
        for key, coeff in remainder.drain():
            shift = key - divisor.lead
            if shift & guard:
                raise NonDivisibleError(
                    f"leading term {packing.polynomial({key + guard: 1}).to_text()} is not "
                    f"divisible by {packing.polynomial({divisor.lead + guard: 1}).to_text()}"
                )
            quotient[shift + guard] = c = exact_quotient(coeff, divisor.coeff)
            remainder.subtract(divisor.tail, shift, c)
    except OverflowError:
        raise NonDivisibleError("a remainder term outgrows the exponents of the dividend") from None
    return packing.polynomial(quotient)
