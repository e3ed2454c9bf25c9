"""Homogeneous bivariate polynomials with exact integer or rational
coefficients."""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import mul
from typing import TYPE_CHECKING

from .gf2core import Record

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["HomPoly", "X", "Y"]


@lru_cache(maxsize=None)
def _sum_diff_matrix(d: int) -> tuple[tuple[int, ...], ...]:
    """Row j is the coefficient vector of (x+y)^(d-j) (x-y)^j, the image of
    x^(d-j) y^j under the substitution: its entries are Krawtchouk values."""
    return tuple(
        tuple(sum(comb(d - j, r) * comb(j, m - r) * (-1) ** (m - r)
                  for r in range(max(0, m - j), min(d - j, m) + 1))
              for m in range(d + 1))
        for j in range(d + 1))


class HomPoly(Record):
    """A homogeneous polynomial in x, y with exact coefficients.

    ``coeffs[j]`` is the coefficient of x^(degree-j) y^j; the vector is dense.
    Coefficients are kept as given, so integer work stays in ``int`` and a
    ``Fraction`` appears only where a division produces one.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: tuple[int | Fraction, ...]) -> None:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if len(coeffs) != degree + 1:
            raise ValueError("coefficient vector has the wrong length")
        self._set(degree, tuple(coeffs))

    @classmethod
    def monomial(cls, xdeg: int, ydeg: int, coeff: int | Fraction = 1) -> "HomPoly":
        if xdeg < 0 or ydeg < 0:
            raise ValueError("exponents must be nonnegative")
        coeffs = [0] * (xdeg + ydeg + 1)
        coeffs[ydeg] = coeff
        return cls(xdeg + ydeg, tuple(coeffs))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def coefficient(self, ydeg: int) -> int | Fraction:
        """Coefficient of x^(degree-ydeg) y^ydeg."""
        if ydeg < 0 or ydeg > self.degree:
            raise ValueError("exponent out of range")
        return self.coeffs[ydeg]

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if not isinstance(other, HomPoly):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return HomPoly(
            self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        if not isinstance(other, HomPoly):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return HomPoly(
            self.degree, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "HomPoly | int | Fraction") -> "HomPoly":
        if not isinstance(other, HomPoly):
            # An exact scalar: an int, or else any numbers.Rational (Fraction).
            if not isinstance(other, int):
                import numbers

                if not isinstance(other, numbers.Rational):
                    return NotImplemented
            return HomPoly(self.degree, tuple(a * other for a in self.coeffs))
        deg = self.degree + other.degree
        out = [0] * (deg + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return HomPoly(deg, tuple(out))

    def __rmul__(self, other: int | Fraction) -> "HomPoly":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "HomPoly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = HomPoly(0, (1,))
        for _ in range(exponent):
            result = result * self
        return result

    def substitute_sum_diff(self) -> "HomPoly":
        """Return p(x+y, x-y), expanded exactly: the coefficient vector times
        the degree's cached sum-difference matrix."""
        columns = zip(*_sum_diff_matrix(self.degree))
        return HomPoly(
            self.degree, tuple(sum(map(mul, self.coeffs, col)) for col in columns)
        )

    def divide_xy(self, k: int) -> "HomPoly":
        """Exact quotient by (xy)^k; raises if any stray coefficient blocks it."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if 2 * k > self.degree:
            raise ValueError("degree too small for the requested quotient")
        for j, c in enumerate(self.coeffs):
            if c and (j < k or j > self.degree - k):
                raise ValueError(f"not divisible by (xy)^{k}: term at y^{j}")
        return HomPoly(self.degree - 2 * k, self.coeffs[k : self.degree - k + 1])

    def __str__(self) -> str:
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            xd, yd = self.degree - j, j
            parts = []
            if abs(c) != 1 or (xd == 0 and yd == 0):
                parts.append(str(abs(c)))
            if xd:
                parts.append("x" if xd == 1 else f"x^{xd}")
            if yd:
                parts.append("y" if yd == 1 else f"y^{yd}")
            terms.append((c < 0, "*".join(parts)))
        if not terms:
            return "0"
        neg, first = terms[0]
        text = ("-" if neg else "") + first
        for neg, term in terms[1:]:
            text += (" - " if neg else " + ") + term
        return text


X = HomPoly.monomial(1, 0)
Y = HomPoly.monomial(0, 1)
