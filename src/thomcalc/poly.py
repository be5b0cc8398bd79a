"""Sparse Laurent polynomials over exact rationals.

Everything downstream (residue expansion, multidegrees, the Thom calculator)
runs on the three types here: Variable, Polynomial and LinearForm.
Coefficients are stdlib Fractions, so all arithmetic is exact and reduction
to lowest terms is automatic.  Sums of fractions over linear forms live in
residue.fraction_sum.

A Variable is interned: there is one object per (family, index), so two
variables are equal exactly when they are the same object, and they hash by
identity.  A monomial is a tuple of (Variable, exponent) pairs sorted by the
variable's canonical key, with no zero exponents.  A polynomial is a dict
from monomials to nonzero coefficients.  Canonical printing order is graded
reverse lexicographic, largest term first, which reproduces the usual
ordering of Chern-class expressions (c1^4 before 6*c1^2*c2 before 2*c2^2
before 9*c1*c3).

Sums, scalar multiples, evaluation and printing read these tuples.  All
other arithmetic runs on packed exponent ints (packed.py), one Python int
per monomial, and on int coefficients wherever the inputs are integral:
products, powers, substitution, exact division, the Groebner loop of
multidegree.py, the residue kernel and the 1/form series.  Each converts to
a Polynomial once, at the end.  The tuples are the storage, printing and
JSON format.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import ConstantFormError, UnassignedVariableError

Rational = Fraction

_FAMILIES = ("z", "lambda", "theta", "eta", "y", "c", "a", "u", "uhat")
_FAMILY_RANK = {name: rank for rank, name in enumerate(_FAMILIES)}

# short text prefixes for the scalar-indexed families
_SUBSCRIPT_PREFIX = {"z": "z", "lambda": "l", "theta": "t", "eta": "e", "y": "y"}
_PLAIN_PREFIX = {"c": "c", "a": "a"}


class Variable:
    """An interned symbolic variable, identified by family and index.

    Variable(family, index) returns the one object for that pair, so
    equality is identity and hashing is by identity; no other route may
    build a Variable.  Scalar families use a positive integer index (c
    allows 0, a allows any integer).  Family "uhat" is indexed by a triple
    (m, r, l) with 1 <= m <= r and m + r <= l.  Family "u" is indexed by
    (l, tau) where tau is a nondecreasing tuple of positive parts with
    sum(tau) <= l.
    """

    __slots__ = ("family", "index", "key", "text")

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
        cls._interned[(family, index)] = self
        return self

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
        return Variable(obj["family"], obj["index"])


def _normalize_index(family: str, index):
    if family not in _FAMILY_RANK:
        raise ValueError(f"unknown variable family {family!r}")
    if family == "uhat":
        m, r, l = map(strict_int, index)
        if not (1 <= m <= r and m + r <= l):
            raise ValueError(f"bad uhat index {(m, r, l)}: need 1 <= m <= r, m + r <= l")
        return (m, r, l)
    if family == "u":
        l, tau = index
        l, tau = strict_int(l), tuple(map(strict_int, tau))
        if not tau or any(t < 1 for t in tau) or list(tau) != sorted(tau):
            raise ValueError(f"bad partition index {tau}: need nondecreasing positive parts")
        if sum(tau) > l:
            raise ValueError(f"partition {tau} does not fit under level {l}")
        return (l, tau)
    index = strict_int(index)
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
        return {v for v, _ in self.exponent_pairs()}

    def exponent_pairs(self) -> set:
        """Every (variable, exponent) pair that occurs in some term."""
        return set().union(*self._terms)

    def has_negative_exponent(self) -> bool:
        return any(e < 0 for _, e in self.exponent_pairs())

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
        from .packed import packed_product  # packed imports this module

        return packed_product(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        from .packed import packed_product

        return packed_product(*[self] * n)

    def multiply_monomial(self, mono: Monomial, coeff: ScalarLike = 1) -> "Polynomial":
        return self * Polynomial({mono: coeff})

    # -- substitution and evaluation ----------------------------------

    def substitute(self, assignment: Mapping[Variable, PolyLike]) -> "Polynomial":
        """Replace each assigned variable by a polynomial or scalar.

        A negative exponent is only substitutable by a single-term value:
        more terms raise ValueError, the value 0 ZeroDivisionError.
        """
        from .packed import packed_substitute

        return packed_substitute(self, assignment)

    def evaluate(self, assignment: Mapping[Variable, ScalarLike]) -> Fraction:
        """Evaluate with every variable assigned, exactly; each power of a
        value is computed once."""
        powers: Dict[Tuple[Variable, int], Fraction] = {}
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = coeff
            for pair in mono:
                q = powers.get(pair)
                if q is None:
                    v, e = pair
                    if v not in assignment:
                        raise UnassignedVariableError(v.text)
                    q = powers[pair] = Fraction(assignment[v]) ** e
                value *= q
            total += value
        return total

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
        # each row must match vars: nothing is cut, merged or rounded
        vars_list = [Variable.from_json(v) for v in obj["vars"]]
        if len(set(vars_list)) != len(vars_list):
            raise ValueError("repeated variable in vars")
        out: Dict[Monomial, Fraction] = {}
        for term in obj["terms"]:
            exps = [strict_int(e) for e in term["exps"]]
            if len(exps) != len(vars_list):
                raise ValueError(f"exps {exps} do not match the {len(vars_list)} vars")
            mono = _mono_from_pairs(zip(vars_list, exps))
            coeff = json_fraction(term["coeff"])
            if coeff:
                out[mono] = out.get(mono, Fraction(0)) + coeff
        return Polynomial(out)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()})"


def strict_int(value) -> int:
    """An int as given, from JSON or from a caller: 1.9, 4.0 and True are
    refused, not rounded."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def json_fraction(value) -> Fraction:
    """An integer or a string such as "-3/4"; a float is refused, as 0.1
    would read as a binary fraction, not 1/10."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"expected an integer or a fraction string, got {value!r}")
    return Fraction(value)


def json_object(value) -> dict:
    """A JSON object as given; a list or a scalar in its place is refused."""
    if not isinstance(value, dict):
        raise ValueError(f"expected an object, got {value!r}")
    return value


def _refuse_repeated_keys(pairs: List[Tuple[str, object]]) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def read_json(text: str):
    """Parse JSON text, refusing an object that repeats a key instead of
    keeping its last value."""
    return json.loads(text, object_pairs_hook=_refuse_repeated_keys)


def _coeff_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _coeff_json(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _as_poly(value: PolyLike) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)


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
        return Polynomial({_ONE: self.constant, **{((v, 1),): q for v, q in self.items}})

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
        obj = json_object(obj)
        coeffs = {
            variable_from_text(name): json_fraction(value)
            for name, value in json_object(obj.get("coeffs", {})).items()
        }
        return LinearForm(json_fraction(obj.get("constant", 0)), coeffs)

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
    from .packed import ExponentPacking, inverse_series  # packed imports this module

    packing = ExponentPacking(form.variables(), order + 1)
    pieces = inverse_series(packing, form, order)
    return packing.polynomial({packing.bias + key: coeff for _, key, coeff in pieces})

