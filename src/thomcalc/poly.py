"""Sparse Laurent polynomials over exact rationals.

Everything downstream (residue expansion, multidegrees, the Thom calculator)
runs on the four types here: Variable, Polynomial, LinearForm and
RationalFunction.  Coefficients are stdlib Fractions, so all arithmetic is
exact and reduction to lowest terms is automatic.

A monomial is a tuple of (Variable, exponent) pairs sorted by the variable's
canonical key, with no zero exponents.  A polynomial is a dict from monomials
to nonzero coefficients.  Canonical printing order is graded reverse
lexicographic, largest term first, which reproduces the usual ordering of
Chern-class expressions (c1^4 before 6*c1^2*c2 before 2*c2^2 before 9*c1*c3).
"""

from __future__ import annotations

import heapq
import json
import re
from fractions import Fraction
from functools import cmp_to_key
from operator import add, neg, sub
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    ConstantFormError,
    NonDivisibleError,
    UnassignedVariableError,
)

Rational = Fraction

_FAMILIES = ("z", "lambda", "theta", "eta", "y", "c", "a", "u", "uhat")
_FAMILY_RANK = {name: rank for rank, name in enumerate(_FAMILIES)}

# short text prefixes for the scalar-indexed families
_SUBSCRIPT_PREFIX = {"z": "z", "lambda": "l", "theta": "t", "eta": "e", "y": "y"}
_PLAIN_PREFIX = {"c": "c", "a": "a"}


class Variable:
    """An interned symbolic variable, identified by family and index.

    Scalar families use a positive integer index (c allows 0, a allows any
    integer).  Family "uhat" is indexed by a triple (m, r, l) with
    1 <= m <= r and m + r <= l.  Family "u" is indexed by (l, tau) where tau
    is a nondecreasing tuple of positive parts with sum(tau) <= l.
    """

    __slots__ = ("family", "index", "key", "text", "_hash")

    _interned: Dict[tuple, "Variable"] = {}

    def __new__(cls, family: str, index):
        index = _normalize_index(family, index)
        cached = cls._interned.get((family, index))
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.family = family
        self.index = index
        self.key = _sort_key(family, index)
        self.text = _render_variable(family, index)
        self._hash = hash((family, index))
        cls._interned[(family, index)] = self
        return self

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Variable)
            and self.family == other.family
            and self.index == other.index
        )

    def __lt__(self, other: "Variable") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return f"Variable({self.text})"

    def to_json(self) -> dict:
        if self.family == "uhat":
            idx = list(self.index)
        elif self.family == "u":
            idx = [self.index[0], list(self.index[1])]
        else:
            idx = self.index
        return {"family": self.family, "index": idx}

    @staticmethod
    def from_json(obj: dict) -> "Variable":
        family = obj["family"]
        idx = obj["index"]
        if family == "uhat":
            idx = tuple(idx)
        elif family == "u":
            idx = (idx[0], tuple(idx[1]))
        return Variable(family, idx)


def _normalize_index(family: str, index):
    if family not in _FAMILY_RANK:
        raise ValueError(f"unknown variable family {family!r}")
    if family == "uhat":
        m, r, l = index
        if not (1 <= m <= r and m + r <= l):
            raise ValueError(f"bad uhat index {(m, r, l)}: need 1 <= m <= r, m + r <= l")
        return (int(m), int(r), int(l))
    if family == "u":
        l, tau = index
        tau = tuple(int(t) for t in tau)
        if not tau or any(t < 1 for t in tau) or list(tau) != sorted(tau):
            raise ValueError(f"bad partition index {tau}: need nondecreasing positive parts")
        if sum(tau) > l:
            raise ValueError(f"partition {tau} does not fit under level {l}")
        return (int(l), tau)
    index = int(index)
    if family == "c":
        if index < 0:
            raise ValueError("c-variables are indexed from 0")
    elif family != "a" and index < 1:
        raise ValueError(f"{family}-variables are indexed from 1")
    return index


def _sort_key(family: str, index) -> tuple:
    rank = _FAMILY_RANK[family]
    if family == "uhat":
        return (rank,) + index
    if family == "u":
        l, tau = index
        return (rank, l) + tau
    return (rank, index)


def _render_variable(family: str, index) -> str:
    if family in _SUBSCRIPT_PREFIX:
        return f"{_SUBSCRIPT_PREFIX[family]}_{index}"
    if family in _PLAIN_PREFIX:
        if index < 0:
            return f"{_PLAIN_PREFIX[family]}({index})"
        return f"{_PLAIN_PREFIX[family]}{index}"
    if family == "uhat":
        m, r, l = index
        return f"u_{{{m},{r}}}^{{{l}}}"
    l, tau = index
    return "u[" + ",".join(str(t) for t in tau) + f"]^{l}"


_VAR_TEXT_RE = re.compile(
    r"^(?:([zltey])_(\d+)|([ca])\(?(-?\d+)\)?|u_\{(\d+),(\d+)\}\^\{(\d+)\})$"
)
_SUBSCRIPT_FAMILY = {"z": "z", "l": "lambda", "t": "theta", "e": "eta", "y": "y"}


def variable_from_text(text: str) -> Variable:
    """Parse the short text spelling (z_1, l_2, t_3, e_4, y_5, c0, a2, u_{1,2}^{3})."""
    m = _VAR_TEXT_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse variable {text!r}")
    if m.group(1):
        return Variable(_SUBSCRIPT_FAMILY[m.group(1)], int(m.group(2)))
    if m.group(3):
        return Variable("c" if m.group(3) == "c" else "a", int(m.group(4)))
    return Variable("uhat", (int(m.group(5)), int(m.group(6)), int(m.group(7))))


def zvar(i: int) -> Variable:
    return Variable("z", i)


def lamvar(i: int) -> Variable:
    return Variable("lambda", i)


def thvar(i: int) -> Variable:
    return Variable("theta", i)


def etavar(i: int) -> Variable:
    return Variable("eta", i)


def yvar(i: int) -> Variable:
    return Variable("y", i)


def cvar(i: int) -> Variable:
    return Variable("c", i)


def avar(i: int) -> Variable:
    return Variable("a", i)


def uhatvar(m: int, r: int, l: int) -> Variable:
    return Variable("uhat", (m, r, l))


def uvar(l: int, tau: Sequence[int]) -> Variable:
    return Variable("u", (l, tuple(tau)))


Monomial = Tuple[Tuple[Variable, int], ...]

_ONE: Monomial = ()


def _mono_from_pairs(pairs: Iterable[Tuple[Variable, int]]) -> Monomial:
    merged: Dict[Variable, int] = {}
    for v, e in pairs:
        e = int(e)
        if e == 0:
            continue
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in merged.items() if e != 0), key=lambda p: p[0].key))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    # merge of two sorted pair tuples; exponents that cancel are dropped
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va is vb or va.key == vb.key:
            e = ea + eb
            if e != 0:
                out.append((va, e))
            i += 1
            j += 1
        elif va.key < vb.key:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_cmp(a: Monomial, b: Monomial) -> int:
    """Graded reverse lex: positive when a is the larger monomial."""
    da, db = _mono_degree(a), _mono_degree(b)
    if da != db:
        return 1 if da > db else -1
    # scan from the largest variable down; first differing exponent decides,
    # with the smaller exponent winning (reverse lex)
    i, j = len(a) - 1, len(b) - 1
    while i >= 0 or j >= 0:
        if i >= 0 and (j < 0 or a[i][0].key > b[j][0].key):
            diff = a[i][1]
            i -= 1
        elif j >= 0 and (i < 0 or b[j][0].key > a[i][0].key):
            diff = -b[j][1]
            j -= 1
        else:
            diff = a[i][1] - b[j][1]
            i -= 1
            j -= 1
        if diff:
            return 1 if diff < 0 else -1
    return 0


_MONO_SORT_KEY = cmp_to_key(_mono_cmp)


def _mono_text(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        parts.append(v.text if e == 1 else f"{v.text}^{e}")
    return "*".join(parts)


ScalarLike = Union[Rational, int]
PolyLike = Union["Polynomial", Rational, int]


class Polynomial:
    """A sparse Laurent polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, ScalarLike]] = None):
        clean: Dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                q = Fraction(coeff)
                if q:
                    clean[mono] = q
        self._terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial({_ONE: Fraction(1)})

    @staticmethod
    def constant(value: ScalarLike) -> "Polynomial":
        return Polynomial({_ONE: Fraction(value)})

    @staticmethod
    def variable(v: Variable, exponent: int = 1) -> "Polynomial":
        if exponent == 0:
            return Polynomial.one()
        return Polynomial({((v, exponent),): Fraction(1)})

    @staticmethod
    def term(coeff: ScalarLike, pairs: Iterable[Tuple[Variable, int]]) -> "Polynomial":
        return Polynomial({_mono_from_pairs(pairs): Fraction(coeff)})

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[Tuple[Monomial, Fraction]]:
        """Iterate (monomial, coefficient), canonically largest term first."""
        for mono in sorted(self._terms, key=_MONO_SORT_KEY, reverse=True):
            yield mono, self._terms[mono]

    def term_map(self) -> Mapping[Monomial, Fraction]:
        return self._terms

    def variables(self) -> set:
        out = set()
        for mono in self._terms:
            for v, _ in mono:
                out.add(v)
        return out

    def constant_term(self) -> Fraction:
        return self._terms.get(_ONE, Fraction(0))

    def coefficient(self, mono_pairs: Iterable[Tuple[Variable, int]]) -> Fraction:
        return self._terms.get(_mono_from_pairs(mono_pairs), Fraction(0))

    def exponent_range(self, v: Variable) -> Tuple[int, int]:
        """(min, max) exponent of v over the terms; (0, 0) on zero."""
        lo = hi = None
        for mono in self._terms:
            e = 0
            for w, we in mono:
                if w is v:
                    e = we
                    break
            lo = e if lo is None else min(lo, e)
            hi = e if hi is None else max(hi, e)
        if lo is None:
            return (0, 0)
        return (lo, hi)

    def has_negative_exponent(self) -> bool:
        return any(e < 0 for mono in self._terms for _, e in mono)

    # -- ring operations ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __add__(self, other: PolyLike) -> "Polynomial":
        other = _as_poly(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            q = out.get(mono, 0) + coeff
            if q:
                out[mono] = q
            else:
                out.pop(mono, None)
        result = Polynomial.__new__(Polynomial)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        result = Polynomial.__new__(Polynomial)
        result._terms = {m: -c for m, c in self._terms.items()}
        return result

    def __sub__(self, other: PolyLike) -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other: PolyLike) -> "Polynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other: PolyLike) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return Polynomial.zero()
            result = Polynomial.__new__(Polynomial)
            result._terms = {m: c * q for m, c in self._terms.items()}
            return result
        out: Dict[Monomial, Fraction] = {}
        small, large = self._terms, other._terms
        if len(small) > len(large):
            small, large = large, small
        for m1, c1 in small.items():
            for m2, c2 in large.items():
                mono = _mono_mul(m1, m2)
                q = out.get(mono, 0) + c1 * c2
                if q:
                    out[mono] = q
                else:
                    out.pop(mono, None)
        result = Polynomial.__new__(Polynomial)
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def multiply_monomial(self, mono: Monomial, coeff: ScalarLike = 1) -> "Polynomial":
        q = Fraction(coeff)
        if not q:
            return Polynomial.zero()
        result = Polynomial.__new__(Polynomial)
        result._terms = {_mono_mul(m, mono): c * q for m, c in self._terms.items()}
        return result

    # -- substitution and evaluation ----------------------------------

    def substitute(self, assignment: Mapping[Variable, PolyLike]) -> "Polynomial":
        """Replace each assigned variable by a polynomial or scalar.

        Negative exponents are only substitutable by nonzero scalars or by
        single-term monomials, anything else raises ValueError.
        """
        out = Polynomial.zero()
        for mono, coeff in self._terms.items():
            kept = []
            factor = Polynomial.constant(coeff)
            for v, e in mono:
                if v not in assignment:
                    kept.append((v, e))
                    continue
                value = assignment[v]
                if isinstance(value, (int, Fraction)):
                    q = Fraction(value)
                    if e < 0 and q == 0:
                        raise ZeroDivisionError(f"substituting 0 for {v.text}^{e}")
                    factor = factor * q ** e
                elif e >= 0:
                    factor = factor * value ** e
                else:
                    inv = _invert_monomial_poly(value)
                    factor = factor * inv ** (-e)
            if kept:
                factor = factor.multiply_monomial(tuple(kept))
            out = out + factor
        return out

    def evaluate(self, assignment: Mapping[Variable, ScalarLike]) -> Fraction:
        """Evaluate with every variable assigned, exactly."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = coeff
            for v, e in mono:
                if v not in assignment:
                    raise UnassignedVariableError(v.text)
                value *= Fraction(assignment[v]) ** e
            total += value
        return total

    def coefficient_slice(self, v: Variable, exponent: int) -> "Polynomial":
        """The coefficient of v**exponent, as a polynomial without v."""
        out: Dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            e = 0
            rest = []
            for w, we in mono:
                if w is v:
                    e = we
                else:
                    rest.append((w, we))
            if e == exponent:
                out[tuple(rest)] = out.get(tuple(rest), Fraction(0)) + coeff
        result = Polynomial.__new__(Polynomial)
        result._terms = {m: c for m, c in out.items() if c}
        return result

    # -- serialization ------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for mono, coeff in self.terms():
            mag = abs(coeff)
            if not mono:
                body = _coeff_text(mag)
            elif mag == 1:
                body = _mono_text(mono)
            else:
                body = f"{_coeff_text(mag)}*{_mono_text(mono)}"
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def to_json_dict(self) -> dict:
        vars_sorted = sorted(self.variables(), key=lambda v: v.key)
        var_pos = {v: i for i, v in enumerate(vars_sorted)}
        terms = []
        for mono, coeff in self.terms():
            exps = [0] * len(vars_sorted)
            for v, e in mono:
                exps[var_pos[v]] = e
            terms.append({"coeff": _coeff_json(coeff), "exps": exps})
        return {"vars": [v.to_json() for v in vars_sorted], "terms": terms}

    @staticmethod
    def from_json_dict(obj: dict) -> "Polynomial":
        vars_list = [Variable.from_json(v) for v in obj["vars"]]
        out: Dict[Monomial, Fraction] = {}
        for term in obj["terms"]:
            mono = _mono_from_pairs(zip(vars_list, term["exps"]))
            coeff = Fraction(term["coeff"])
            if coeff:
                out[mono] = out.get(mono, Fraction(0)) + coeff
        return Polynomial(out)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json(text: str) -> "Polynomial":
        return Polynomial.from_json_dict(json.loads(text))

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()})"


def _coeff_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _coeff_json(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _as_poly(value: PolyLike) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)


def _invert_monomial_poly(p: Polynomial) -> Polynomial:
    items = list(p.term_map().items())
    if len(items) != 1:
        raise ValueError("cannot invert a polynomial with more than one term")
    mono, coeff = items[0]
    inv_mono = tuple((v, -e) for v, e in mono)
    return Polynomial({inv_mono: Fraction(1) / coeff})


class LinearForm:
    """constant + sum of coeff * variable, with Fraction coefficients."""

    __slots__ = ("constant", "items", "_hash")

    def __init__(
        self,
        constant: ScalarLike = 0,
        coeffs: Optional[Mapping[Variable, ScalarLike]] = None,
    ):
        self.constant = Fraction(constant)
        pairs = []
        if coeffs:
            for v, q in coeffs.items():
                q = Fraction(q)
                if q:
                    pairs.append((v, q))
        pairs.sort(key=lambda p: p[0].key)
        self.items = tuple(pairs)
        self._hash = hash((self.constant, self.items))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearForm)
            and self.constant == other.constant
            and self.items == other.items
        )

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not self.items and self.constant == 0

    def coefficient(self, v: Variable) -> Fraction:
        for w, q in self.items:
            if w is v:
                return q
        return Fraction(0)

    def variables(self) -> Tuple[Variable, ...]:
        return tuple(v for v, _ in self.items)

    def top_z_variable(self) -> Tuple[Variable, Fraction]:
        """The z-variable of largest index, with its coefficient.

        Raises ConstantFormError when no z-variable carries a nonzero
        coefficient, since such a form cannot drive a series expansion.
        """
        best = None
        for v, q in self.items:
            if v.family == "z" and (best is None or v.index > best[0].index):
                best = (v, q)
        if best is None:
            raise ConstantFormError(f"no z-variable in {self.to_text()}")
        return best

    def as_polynomial(self) -> Polynomial:
        p = Polynomial.constant(self.constant)
        for v, q in self.items:
            p = p + Polynomial.term(q, [(v, 1)])
        return p

    def evaluate(self, assignment: Mapping[Variable, ScalarLike]) -> Fraction:
        total = self.constant
        for v, q in self.items:
            if v not in assignment:
                raise UnassignedVariableError(v.text)
            total += q * Fraction(assignment[v])
        return total

    def substitute_linear(self, assignment: Mapping[Variable, "LinearForm"]) -> "LinearForm":
        """Replace variables by linear forms; the result stays linear."""
        constant = self.constant
        coeffs: Dict[Variable, Fraction] = {}
        for v, q in self.items:
            if v in assignment:
                sub = assignment[v]
                constant += q * sub.constant
                for w, p in sub.items:
                    coeffs[w] = coeffs.get(w, Fraction(0)) + q * p
            else:
                coeffs[v] = coeffs.get(v, Fraction(0)) + q
        return LinearForm(constant, coeffs)

    def scaled(self, factor: ScalarLike) -> "LinearForm":
        q = Fraction(factor)
        return LinearForm(self.constant * q, {v: c * q for v, c in self.items})

    def minus(self, other: "LinearForm") -> "LinearForm":
        coeffs = {v: c for v, c in self.items}
        for v, c in other.items:
            coeffs[v] = coeffs.get(v, Fraction(0)) - c
        return LinearForm(self.constant - other.constant, coeffs)

    def drop(self, v: Variable) -> "LinearForm":
        return LinearForm(self.constant, {w: c for w, c in self.items if w is not v})

    def to_text(self) -> str:
        return self.as_polynomial().to_text()

    def to_json_dict(self) -> dict:
        return {
            "constant": _coeff_json(self.constant),
            "coeffs": {v.text: _coeff_json(q) for v, q in self.items},
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "LinearForm":
        coeffs = {
            variable_from_text(name): Fraction(value)
            for name, value in obj.get("coeffs", {}).items()
        }
        return LinearForm(Fraction(obj.get("constant", 0)), coeffs)

    @staticmethod
    def from_polynomial(p: Polynomial) -> "LinearForm":
        constant = Fraction(0)
        coeffs: Dict[Variable, Fraction] = {}
        for mono, coeff in p.term_map().items():
            if not mono:
                constant = coeff
            elif len(mono) == 1 and mono[0][1] == 1:
                coeffs[mono[0][0]] = coeff
            else:
                raise ValueError(f"{p!r} is not linear")
        return LinearForm(constant, coeffs)

    def __repr__(self) -> str:
        return f"LinearForm({self.to_text()})"


def linear_form(*terms: Tuple[ScalarLike, Variable], constant: ScalarLike = 0) -> LinearForm:
    """Convenience builder: linear_form((2, z1), (-1, z2))."""
    coeffs: Dict[Variable, Fraction] = {}
    for coeff, v in terms:
        coeffs[v] = coeffs.get(v, Fraction(0)) + Fraction(coeff)
    return LinearForm(constant, coeffs)


def expand_inverse_factor(form: LinearForm, order: int) -> Polynomial:
    """Expand 1/form as a Laurent series in its top z-variable.

    With form = a*z_q + L0, the expansion is
    sum_{s=0}^{order} (-1)^s L0^s / (a*z_q)^{s+1},
    valid in the regime where z_q dominates every other symbol.  The
    truncation error has z_q-exponent at most -(order + 2).
    """
    if order < 0:
        raise ValueError("expansion order must be nonnegative")
    top, a = form.top_z_variable()
    rest = form.drop(top).as_polynomial()
    out = Polynomial.zero()
    power = Polynomial.one()
    sign = Fraction(1)
    a_power = a
    for s in range(order + 1):
        if s > 0:
            if rest.is_zero():
                break
            power = power * rest
            sign = -sign
            a_power *= a
        out = out + power.multiply_monomial(((top, -(s + 1)),), sign / a_power)
    return out


LexExps = Tuple[int, ...]
LexTerms = Dict[LexExps, Fraction]


def lex_terms(p: Polynomial, pos: Mapping[Variable, int]) -> LexTerms:
    """The terms of p keyed by exponent tuples, slot pos[v] holding the
    exponent of v; under a lex order listed by slot, Python's tuple order is
    the monomial order."""
    out: LexTerms = {}
    for mono, coeff in p._terms.items():
        exps = [0] * len(pos)
        for v, e in mono:
            exps[pos[v]] = e
        out[tuple(exps)] = coeff
    return out


def lex_polynomial(terms: LexTerms, order: Sequence[Variable]) -> Polynomial:
    """Back from exponent tuples, slot i holding the exponent of order[i]."""
    by_key = sorted(range(len(order)), key=lambda i: order[i].key)
    return Polynomial(
        {tuple((order[i], e[i]) for i in by_key if e[i]): c for e, c in terms.items()}
    )


class LexHeap:
    """Exponent-tuple terms with their lex-largest term on top.

    A heap of negated keys finds the top; a heap entry whose term cancelled
    or was already popped is skipped when it surfaces."""

    __slots__ = ("terms", "_heap")

    def __init__(self, terms: LexTerms):
        self.terms = terms
        self._heap = [(tuple(map(neg, e)), e) for e in terms]
        heapq.heapify(self._heap)

    def pop(self) -> Optional[Tuple[LexExps, Fraction]]:
        """Remove and return the largest (exponents, coefficient), or None."""
        while self._heap:
            exps = heapq.heappop(self._heap)[1]
            coeff = self.terms.pop(exps, None)
            if coeff is not None:
                return exps, coeff
        return None

    def subtract(
        self, tail: Iterable[Tuple[LexExps, Fraction]], shift: LexExps, q: Fraction
    ) -> None:
        """Subtract q * x^shift * tail, term by term."""
        terms = self.terms
        for texps, tcoeff in tail:
            key = tuple(map(add, texps, shift))
            old = terms.get(key)
            if old is None:
                terms[key] = -q * tcoeff
                heapq.heappush(self._heap, (tuple(map(neg, key)), key))
            else:
                new = old - q * tcoeff
                if new:
                    terms[key] = new
                else:
                    del terms[key]


def poly_divide_exact(
    p: Polynomial,
    q: Polynomial,
    order: Optional[Sequence[Variable]] = None,
) -> Polynomial:
    """Divide p by q, requiring a zero remainder.

    Runs single-divisor division under the lex order given by ``order``
    (first entry largest); by default all variables present, sorted by
    canonical key descending.  Terms are keyed by exponent tuples once, so
    each step finds the leading term of the remainder from a heap.  Laurent
    inputs are rejected.  Raises NonDivisibleError when the division leaves
    a remainder.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.has_negative_exponent() or q.has_negative_exponent():
        raise ValueError("exact division expects plain polynomials, not Laurent terms")
    if p.is_zero():
        return Polynomial.zero()
    if order is None:
        ordered = sorted(p.variables() | q.variables(), key=lambda v: v.key, reverse=True)
    else:
        ordered = list(order)
        missing = (p.variables() | q.variables()) - set(ordered)
        if missing:
            names = ", ".join(sorted(v.text for v in missing))
            raise ValueError(f"division order does not cover: {names}")
    pos = {v: i for i, v in enumerate(ordered)}
    divisor = lex_terms(q, pos)
    lead = max(divisor)
    lead_coeff = divisor.pop(lead)
    tail = list(divisor.items())
    quotient: LexTerms = {}
    remainder = LexHeap(lex_terms(p, pos))
    while (top := remainder.pop()) is not None:
        exps, coeff = top
        shift = tuple(map(sub, exps, lead))
        if any(e < 0 for e in shift):
            raise NonDivisibleError(
                f"leading term {lex_polynomial({exps: 1}, ordered).to_text()} is not divisible "
                f"by {lex_polynomial({lead: 1}, ordered).to_text()}"
            )
        quotient[shift] = coeff / lead_coeff
        remainder.subtract(tail, shift, quotient[shift])
    return lex_polynomial(quotient, ordered)


class RationalFunction:
    """An unreduced quotient of polynomials, for small exact eliminations."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Optional[Polynomial] = None):
        if den is None:
            den = Polynomial.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @staticmethod
    def of(value: PolyLike) -> "RationalFunction":
        return RationalFunction(_as_poly(value))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if other.num.is_zero():
            return self
        if self.num.is_zero():
            return other
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def to_polynomial(self) -> Polynomial:
        """Collapse to a polynomial by exact division; raises if not one."""
        return poly_divide_exact(self.num, self.den)

    def evaluate(self, assignment: Mapping[Variable, ScalarLike]) -> Fraction:
        den = self.den.evaluate(assignment)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return self.num.evaluate(assignment) / den

    def __repr__(self) -> str:
        return f"RationalFunction(({self.num.to_text()}) / ({self.den.to_text()}))"
