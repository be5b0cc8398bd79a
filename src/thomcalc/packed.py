"""Polynomials on packed exponent ints: every product, substitution and division.

A monomial becomes one Python int with a field per variable (Kronecker
substitution, as in Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors"), so a monomial product is one
int addition.  A packed polynomial is a dict from these keys to
coefficients, which stay Python ints wherever the inputs are integral and
are Fractions only where an input has one.

packed_mul is the one product loop.  Polynomial products, powers and
substitution and the kernel's linear numerator forms (each Vandermonde
factor z_m - z_l, multiplied in at its own variable's step) multiply here
and convert to a Polynomial once, at the end.  A denominator form is not
expanded as a series: divide_by_form divides the terms by it, one layer
of its top variable at a time, and keeps only the layers or keys the
caller can still use (the residue kernel's slice, the positivity
expansion's degree bound).  divide_exact is the one exact division of
polynomials, and exact_quotient the one division of coefficients.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from .errors import NonDivisibleError
from .poly import LinearForm, Monomial, PolyLike, Polynomial, Variable, _as_poly

Coefficient = Union[int, Fraction]
PackedTerms = Dict[int, Coefficient]


def _exact(q: Fraction) -> Coefficient:
    return q.numerator if q.denominator == 1 else q


def exact_quotient(c: Coefficient, lead: Coefficient) -> Coefficient:
    """c / lead exactly, never a float: an int where the quotient is one, else a Fraction."""
    return _exact(c * lead if lead in (1, -1) else Fraction(c) / lead)


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


def packed_mul(a: Mapping[int, Coefficient], b: Mapping[int, Coefficient]) -> PackedTerms:
    """The product of two packed polynomials; at most one may be biased."""
    out: PackedTerms = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = k1 + k2
            q = out.get(key)
            q = c1 * c2 if q is None else q + c1 * c2
            if q:
                out[key] = q
            else:
                del out[key]
    return out


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
            table[-1] = {-key: exact_quotient(1, c)}
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


def divide_by_form(
    terms: Mapping[int, Coefficient],
    packing: ExponentPacking,
    form: LinearForm,
    floor: int,
    keep: Optional[Callable[[int], bool]] = None,
) -> PackedTerms:
    """The biased terms divided by form as a series in its top z-variable
    v, down to v's biased field `floor`, and only at the keys where keep
    holds when it is given.

    With form = a*v + L0, the quotient R = (terms - L0*R)/(a*v) is formed
    one layer of v-exponent at a time from the top down (power-series
    division, Knuth, TAOCP vol. 2, 4.7): a layer is R's layer above it
    times -L0/(a*v) plus the terms' layer above it times 1/(a*v).  keep
    must drop no key whose multiples by -L0/(a*v) it keeps, so that a
    dropped key is never needed.
    """
    v, a = form.top_z_variable()
    shift, mask = packing.shift[v], packing.mask
    inv = exact_quotient(1, a)
    down = packing.key(v, -1)
    step = {packing.key(w, 1) + down: exact_quotient(-q, a) for w, q in form.items if w is not v}
    if form.constant:
        step[down] = exact_quotient(-form.constant, a)
    # the terms' layers by v's biased field, each already times 1/(a*v)
    layers: Dict[int, PackedTerms] = {}
    for key, c in terms.items():
        layers.setdefault(key >> shift & mask, {})[key + down] = c * inv
    out: PackedTerms = {}
    layer: PackedTerms = {}
    field = max(layers, default=floor)  # the terms' layer that the next one reads
    while field > floor and (layer or layers):
        layer = packed_mul(layer, step)
        add_into(layer, layers.pop(field, {}))
        if keep is not None:
            layer = {key: c for key, c in layer.items() if keep(key)}
        out.update(layer)
        field = field - 1 if layer or not layers else max(layers)
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


def divide_exact(packing: ExponentPacking, p: PackedTerms, q: PackedTerms) -> PackedTerms:
    """p / q, requiring a zero remainder: p biased, q unbiased and nonzero,
    both with nonnegative exponents, and the quotient biased.

    Runs single-divisor division under the packing's key order, which is
    lex in its fields from the top down, on packed keys from a TermHeap.
    An exact quotient never needs an exponent above the largest one of p
    and q, so fields that hold that much suffice; a remainder term that
    outgrows them proves a remainder.  Raises NonDivisibleError when the
    division leaves a remainder, and OverflowError when an exponent of p
    or q already reaches a guard bit: the packing is too narrow for them,
    which no remainder can say.
    """
    guard = packing.bias
    if any((key - guard) & guard for key in p) or any(key & guard for key in q):
        raise OverflowError("an exponent of the operands outgrows the packing")
    divisor = Divisor(q)
    quotient: PackedTerms = {}
    remainder = TermHeap({key - guard: c for key, c in p.items()}, guard)
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
    return quotient


def poly_divide_exact(p: Polynomial, q: Polynomial) -> Polynomial:
    """p / q by divide_exact, under the lex order of the variables present
    by canonical key descending.  Laurent inputs are rejected, and
    NonDivisibleError says the division leaves a remainder."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.has_negative_exponent() or q.has_negative_exponent():
        raise ValueError("exact division expects plain polynomials, not Laurent terms")
    pairs = p.exponent_pairs() | q.exponent_pairs()
    packing = ExponentPacking({v for v, _ in pairs}, max((e for _, e in pairs), default=0))
    quotient = divide_exact(packing, packing.terms(p, biased=True), packing.terms(q))
    return packing.polynomial(quotient)
