"""Riesz functional, moment matrices and localizing matrices.

Matrices come in two flavors: numeric (entries read from a truncated moment
sequence) and symbolic (entries are linear forms in the moments y_a, printable
as aligned text grids).  Symbolic localizing matrices accept named scalar
parameters in the twisting polynomial so that parametrized examples render
verbatim, e.g. ``a*y00 - y20 + b*y02``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence, Tuple, Union

from soskit.poly import (
    EXACT,
    Monomial,
    Polynomial,
    mono_mul,
    monomial_sort_key,
    monomials_up_to_degree,
)


def monomial_vector(n: int, r: int) -> list[Monomial]:
    """All monomials of degree <= r over n variables in the canonical order."""
    v = monomials_up_to_degree(n, r)
    assert len(v) == comb(n + r, r)
    return v


class MomentSequence:
    """Truncated moment sequence: y_a for every |a| <= max_degree.

    Missing entries are an error, never implicit zeros; a silently zeroed
    moment would corrupt downstream PSD tests.
    """

    __slots__ = ("n", "max_degree", "values")

    def __init__(self, n: int, max_degree: int, values: Mapping[Monomial, Union[Fraction, float]]):
        self.n = n
        self.max_degree = max_degree
        self.values = {tuple(m): Fraction(v) if not isinstance(v, float) else v
                       for m, v in values.items()}
        for m in monomials_up_to_degree(n, max_degree):
            if m not in self.values:
                raise ValueError(f"moment sequence missing y_{m}")

    def __getitem__(self, m: Monomial):
        m = tuple(m)
        if m not in self.values:
            raise ValueError(f"moment y_{m} not available (max degree {self.max_degree})")
        return self.values[m]

    @staticmethod
    def from_point(point: Sequence, max_degree: int) -> "MomentSequence":
        """Moments of the Dirac measure at a point: y_a = point**a."""
        n = len(point)
        vals = {}
        for m in monomials_up_to_degree(n, max_degree):
            acc = Fraction(1) if not any(isinstance(x, float) for x in point) else 1.0
            for x, e in zip(point, m):
                acc = acc * (Fraction(x) if not isinstance(x, float) else x) ** e
            vals[m] = acc
        return MomentSequence(n, max_degree, vals)

    @staticmethod
    def from_atoms(points: Sequence[Sequence], weights: Sequence, max_degree: int) -> "MomentSequence":
        """Moments of a finitely supported measure sum_i w_i * delta(p_i)."""
        if not points:
            raise ValueError("need at least one atom")
        n = len(points[0])
        vals = {m: Fraction(0) for m in monomials_up_to_degree(n, max_degree)}
        for p, w in zip(points, weights):
            atom = MomentSequence.from_point(p, max_degree)
            for m in vals:
                vals[m] = vals[m] + Fraction(w) * atom[m]
        return MomentSequence(n, max_degree, vals)


def riesz(y: MomentSequence, f: Polynomial):
    """L_y(f) = sum_a f_a * y_a."""
    if f.degree() > y.max_degree:
        raise ValueError(f"deg f = {f.degree()} exceeds available moments ({y.max_degree})")
    total = Fraction(0)
    for m, c in f.terms.items():
        total = total + c * y[m]
    return total


# -- symbolic entries --------------------------------------------------------

Param = Union[str, None]


@dataclass(frozen=True)
class LinearForm:
    """A linear expression sum c_g * y_g, each c_g a rational times an
    optional named parameter.  Terms keep the order they were built in so the
    printed form follows the twisting polynomial's term order."""

    terms: Tuple[Tuple[Param, Fraction, Monomial], ...]

    def collected(self) -> dict[tuple[Param, Monomial], Fraction]:
        acc: dict[tuple[Param, Monomial], Fraction] = {}
        for p, c, m in self.terms:
            key = (p, m)
            acc[key] = acc.get(key, Fraction(0)) + c
        return {k: v for k, v in acc.items() if v != 0}

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearForm) and self.collected() == other.collected()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for p, c, m in self.terms:
            if c == 0:
                continue
            y = "y" + ("".join(str(e) for e in m) if all(e <= 9 for e in m)
                       else "(" + ",".join(str(e) for e in m) + ")")
            mag = abs(c)
            body = (p or "") + y if mag == 1 else str(mag) + "*" + (p or "") + y
            parts.append(("-" if c < 0 else "+") + body)
        if not parts:
            return "0"
        out = parts[0].lstrip("+")
        return out + "".join(parts[1:])

    def __repr__(self) -> str:
        return f"LinearForm({self})"


def _u_terms(u) -> list[tuple[Param, Fraction, Monomial]]:
    """Normalize a twisting polynomial into (param, coefficient, exponent) terms.

    Accepts a Polynomial (exact mode) or a sequence of (coef, exps) pairs
    where coef may be a rational or a parameter name string.
    """
    if isinstance(u, Polynomial):
        if u.mode != EXACT:
            raise ValueError("symbolic matrices need exact-mode polynomials")
        return [(None, Fraction(c), m) for m, c in u.sorted_terms()]
    terms: list[tuple[Param, Fraction, Monomial]] = []
    for coef, exps in u:
        m = tuple(exps)
        if isinstance(coef, str):
            terms.append((coef, Fraction(1), m))
        else:
            terms.append((None, Fraction(coef), m))
    terms.sort(key=lambda t: monomial_sort_key(t[2]))
    return terms


def symbolic_localizing_matrix(n: int, r: int, u) -> list[list[LinearForm]]:
    """Localizing matrix M_r(u*y) with entries as linear forms in y:
    entry (a, b) = sum_g u_g * y_{g+a+b}."""
    basis = monomial_vector(n, r)
    uterms = _u_terms(u)
    rows = []
    for a in basis:
        row = []
        for b in basis:
            ab = mono_mul(a, b)
            row.append(LinearForm(tuple((p, c, mono_mul(g, ab)) for p, c, g in uterms)))
        rows.append(row)
    return rows


def symbolic_moment_matrix(n: int, r: int) -> list[list[LinearForm]]:
    """Moment matrix M_r(y) with entries y_{a+b} as linear forms."""
    one = Polynomial.constant(n, 1)
    return symbolic_localizing_matrix(n, r, one)


def moment_matrix(y: MomentSequence, r: int) -> list[list]:
    """Numeric moment matrix: entry (a, b) = y_{a+b}."""
    return localizing_matrix(y, Polynomial.constant(y.n, 1), r)


def localizing_matrix(y: MomentSequence, u: Polynomial, r: int) -> list[list]:
    """Numeric localizing matrix: entry (a, b) = sum_g u_g * y_{g+a+b}."""
    if 2 * r + u.degree() > y.max_degree:
        raise ValueError(
            f"need moments up to degree {2*r + u.degree()}, have {y.max_degree}")
    if u.n != y.n:
        raise ValueError("variable counts differ")
    basis = monomial_vector(y.n, r)
    out = []
    for a in basis:
        row = []
        for b in basis:
            ab = mono_mul(a, b)
            acc = Fraction(0)
            for g, c in u.terms.items():
                acc = acc + c * y[mono_mul(g, ab)]
            row.append(acc)
        out.append(row)
    return out


def format_matrix(rows: Sequence[Sequence]) -> str:
    """Aligned text grid, one matrix row per line."""
    cells = [[str(e) for e in row] for row in rows]
    widths = [max(len(cells[i][j]) for i in range(len(cells))) for j in range(len(cells[0]))]
    lines = []
    for row in cells:
        lines.append("[" + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + "]")
    return "\n".join(lines)
