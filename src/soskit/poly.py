"""Sparse multivariate polynomials with exact rational or float coefficients.

A monomial is an exponent vector (a tuple of nonnegative ints, one per
variable).  Polynomials are dicts mapping monomials to coefficients; zero
coefficients are never stored.  Each polynomial carries a coefficient mode,
"exact" (Fraction) or "float", fixed at construction.  Cross-mode arithmetic
is an error; conversion is explicit via ``to_float``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

Monomial = Tuple[int, ...]
Coefficient = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_sort_key(m: Monomial):
    """Sort key for the graded monomial order used throughout.

    Monomials are graded by total degree.  Within a degree they are grouped
    by the multiset of nonzero exponents; groups with smaller maximum
    exponent come first, with more nonzero entries breaking ties.  Within a
    group the order is descending lexicographic on the exponent vector, so
    that for two variables degree <=2 sorts as 1, x1, x2, x1*x2, x1^2, x2^2.
    """
    deg = sum(m)
    nonzero = sorted((e for e in m if e), reverse=True)
    max_exp = nonzero[0] if nonzero else 0
    return (deg, max_exp, -len(nonzero), tuple(nonzero), tuple(-e for e in m))


def monomial_cmp(a: Monomial, b: Monomial) -> int:
    """Three-way comparison in the graded order; -1, 0 or 1."""
    if len(a) != len(b):
        raise ValueError(f"monomials over different variable counts: {len(a)} vs {len(b)}")
    ka, kb = monomial_sort_key(a), monomial_sort_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def _degree_levels(n: int, r: int) -> list[list[Monomial]]:
    """The exponent vectors over n variables of each degree 0..r, each
    degree in descending lexicographic order: combinations_with_replacement
    yields the sorted index tuples in ascending lexicographic order, and at
    the first index where two tuples differ the smaller one puts one more
    unit on that variable, with equal exponents on every variable before
    it."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    levels = []
    for k in range(r + 1):
        level = []
        for combo in combinations_with_replacement(range(n), k):
            e = [0] * n
            for i in combo:
                e[i] += 1
            level.append(tuple(e))
        levels.append(level)
    return levels


def monomials_up_to_degree(n: int, r: int) -> list[Monomial]:
    """All exponent vectors over n variables with total degree <= r, sorted."""
    out: list[Monomial] = []
    for level in _degree_levels(n, r):  # the order is graded, so each degree sorts alone
        out += sorted(level, key=monomial_sort_key)
    return out


def monomials_graded_lex(n: int, r: int) -> list[Monomial]:
    """All exponent vectors over n variables with total degree <= r, by
    degree and then in descending lexicographic order, with no sort."""
    return [m for level in _degree_levels(n, r) for m in level]


# Fractions are immutable, so polynomials may share them: a small int
# coefficient becomes one of these, with no Fraction() call, and two equal
# ones compare by identity when term dicts are compared
_SMALL = {k: Fraction(k) for k in range(-16, 17)}


def _as_exact(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if type(value) is int and value in _SMALL:
        return _SMALL[value]
    if isinstance(value, float):
        raise ValueError("float coefficient in exact-mode polynomial; use mode='float'")
    return Fraction(value)


class Polynomial:
    """Immutable sparse polynomial in n variables."""

    __slots__ = ("n", "mode", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, Coefficient], mode: str = EXACT):
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown coefficient mode {mode!r}")
        if n < 1:
            raise ValueError("polynomial needs at least one variable")
        clean: Dict[Monomial, Coefficient] = {}
        coerce = _as_exact if mode == EXACT else float
        for m, c in terms.items():
            m = tuple(m)
            if len(m) != n:
                raise ValueError(f"monomial {m} has wrong length for n={n}")
            if min(m) < 0:
                raise ValueError(f"negative exponent in {m}")
            c = coerce(c)
            if c:
                clean[m] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int, mode: str = EXACT) -> "Polynomial":
        return Polynomial(n, {}, mode)

    @staticmethod
    def constant(n: int, value, mode: str = EXACT) -> "Polynomial":
        return Polynomial(n, {(0,) * n: value}, mode)

    @staticmethod
    def variable(n: int, i: int, mode: str = EXACT) -> "Polynomial":
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        m = tuple(1 if j == i else 0 for j in range(n))
        return Polynomial(n, {m: 1}, mode)

    @staticmethod
    def monomial(n: int, exps: Sequence[int], coef=1, mode: str = EXACT) -> "Polynomial":
        return Polynomial(n, {tuple(exps): coef}, mode)

    # -- inspection --------------------------------------------------------

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(mono_degree(m) for m in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_of(self, m: Monomial) -> Coefficient:
        m = tuple(m)
        if len(m) != self.n:
            raise ValueError(f"monomial {m} has wrong length for n={self.n}")
        zero = Fraction(0) if self.mode == EXACT else 0.0
        return self.terms.get(m, zero)

    def sorted_terms(self) -> list[tuple[Monomial, Coefficient]]:
        return sorted(self.terms.items(), key=lambda t: monomial_sort_key(t[0]))

    def max_abs_coefficient(self) -> Coefficient:
        if not self.terms:
            return Fraction(0) if self.mode == EXACT else 0.0
        return max(abs(c) for c in self.terms.values())

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise TypeError("expected a Polynomial")
        if self.n != other.n:
            raise ValueError(f"variable counts differ: {self.n} vs {other.n}")
        if self.mode != other.mode:
            raise ValueError(f"coefficient modes differ: {self.mode} vs {other.mode}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.n, terms, self.mode)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        terms: Dict[Monomial, Coefficient] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                terms[m] = terms.get(m, 0) + ca * cb
        return Polynomial(self.n, terms, self.mode)

    def scale(self, factor) -> "Polynomial":
        factor = _as_exact(factor) if self.mode == EXACT else float(factor)
        return Polynomial(self.n, {m: c * factor for m, c in self.terms.items()}, self.mode)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.n, 1, self.mode)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def evaluate(self, point: Sequence) -> Coefficient:
        if len(point) != self.n:
            raise ValueError(f"point length {len(point)} != n={self.n}")
        if self.mode == EXACT:
            pt = [_as_exact(v) for v in point]
            total = Fraction(0)
        else:
            pt = [float(v) for v in point]
            total = 0.0
        for m, c in self.terms.items():
            term = c
            for x, e in zip(pt, m):
                if e:
                    term *= x ** e
            total += term
        return total

    def to_float(self) -> "Polynomial":
        """Lossy conversion to float mode (identity if already float)."""
        if self.mode == FLOAT:
            return self
        return Polynomial(self.n, {m: float(c) for m, c in self.terms.items()}, FLOAT)

    # -- equality / display ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self.mode == other.mode
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.mode, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Polynomial(n={self.n}, {self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                f"x{i+1}^{e}" if e > 1 else f"x{i+1}"
                for i, e in enumerate(m) if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    # -- JSON text format ----------------------------------------------------

    def to_json_terms(self) -> list[dict]:
        """Term list for the CLI/JSON format; exact coefficients as "p/q" strings."""
        out = []
        for m, c in self.sorted_terms():
            coef = str(c) if self.mode == EXACT else float(c)
            out.append({"exps": list(m), "coef": coef})
        return out

    @staticmethod
    def from_json_terms(n: int, terms: Iterable[Mapping], mode: str = EXACT) -> "Polynomial":
        acc: Dict[Monomial, Coefficient] = {}
        for t in terms:
            m = tuple(int(e) for e in t["exps"])
            raw = t["coef"]
            if mode == EXACT:
                c = Fraction(str(raw))
            else:
                c = float(Fraction(str(raw))) if isinstance(raw, str) else float(raw)
            acc[m] = acc.get(m, 0) + c
        return Polynomial(n, acc, mode)


def motzkin() -> Polynomial:
    """1 - 3*x^2*y^2 + x^2*y^4 + x^4*y^2, nonnegative on the plane but not SOS."""
    return Polynomial(2, {(0, 0): 1, (2, 2): -3, (2, 4): 1, (4, 2): 1})
