"""Homogeneous bivariate polynomials with exact integer or rational
coefficients, and the invariant ring machinery used to decompose weight
enumerators."""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import mul
from typing import TYPE_CHECKING

from .gf2core import EnumerationGuardError, Record, WeightDistribution

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "HomPoly",
    "X",
    "Y",
    "SpanError",
    "q8",
    "gleason_basis",
    "gleason_decompose",
    "ALPHA_MAX_GUARD",
    "vanishing_coefficient_search",
    "weight_enumerator_poly",
    "macwilliams_transform_classical",
]


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

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if not isinstance(other, HomPoly):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return HomPoly(
            self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + other * -1 if isinstance(other, HomPoly) else NotImplemented

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

    __rmul__ = __mul__

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


X = HomPoly(1, (1, 0))
Y = HomPoly(1, (0, 1))


class SpanError(ValueError):
    """A polynomial fell outside the requested basis span."""

    def __init__(self, message: str, partial: list[int | Fraction], residual: HomPoly):
        super().__init__(message)
        self.partial = partial
        self.residual = residual


def q8() -> HomPoly:
    """xy(x^6 - 7x^4y^2 + 7x^2y^4 - y^6), the odd-character octic invariant."""
    sextic = X**6 - 7 * X**4 * Y**2 + 7 * X**2 * Y**4 - Y**6
    return X * Y * sextic


def gleason_basis(t: int, n: int) -> list[HomPoly]:
    """Basis of the degree n-2t polynomials fixed (up to the sign character
    (-1)^t) by the transforms p -> 2^(-deg/2) p(x+y, x-y) and p -> p(x, -y).

    Even t: (x^2+y^2)^(n/2-t-4i) (x^2 y^2 (x^2-y^2)^2)^i.
    Odd t: the same with t+4 in place of t, each term multiplied by q8.
    Element i has its lowest power of y at y^(2i + t%2), with coefficient 1.
    """
    if n < 2 or n % 2:
        raise ValueError("length must be a positive even integer")
    if t < 0:
        raise ValueError("t must be nonnegative")
    shift = 4 if t % 2 else 0
    top = n // 2 - t - shift
    if top < 0:
        raise ValueError(f"no basis elements exist for t={t}, n={n}")
    s = X**2 + Y**2
    u = X**2 * Y**2 * (X**2 - Y**2) ** 2
    head = q8() if t % 2 else HomPoly(0, (1,))
    return [head * (s ** (top - 4 * i) * u**i) for i in range(top // 4 + 1)]


def gleason_decompose(p: HomPoly, t: int, n: int) -> list[int | Fraction]:
    """Exact coordinates of p in gleason_basis(t, n); raises SpanError outside.

    The basis is unitriangular in its lowest terms, so the coordinates follow
    by forward substitution from y^(t%2) up, with no division: integer input
    gives integer coordinates. Outside the span, SpanError carries these
    coordinates and what is left of p after subtracting their combination.
    """
    if p.degree != n - 2 * t:
        raise ValueError(f"expected degree {n - 2 * t}, got {p.degree}")
    rest, x = p, []
    for i, b in enumerate(gleason_basis(t, n)):
        x.append(rest.coeffs[2 * i + t % 2])
        rest = rest - x[-1] * b
    if not rest.is_zero:
        raise SpanError("polynomial is outside the basis span", x, rest)
    return x


# vanishing_coefficient_search refuses a larger alpha_max: its cost grows as
# alpha_max^3 (about half a second at the guard).
ALPHA_MAX_GUARD = 1024


def vanishing_coefficient_search(alpha_max: int) -> list[tuple[int, int]]:
    """Scan R = (x^4 + 2x^2y^2 + y^4)(x^2 - y^2)^alpha for alpha < alpha_max.

    Reports every (alpha, i) with 0 <= i <= (alpha+2)/2 whose coefficient of
    x^(2*alpha+4-2i) y^(2i) in R is exactly zero. An alpha_max above
    ALPHA_MAX_GUARD raises EnumerationGuardError.
    """
    if alpha_max < 1:
        raise ValueError("alpha_max must be positive")
    if alpha_max > ALPHA_MAX_GUARD:
        raise EnumerationGuardError(
            f"alpha_max {alpha_max} exceeds the guard {ALPHA_MAX_GUARD}")
    diff = X**2 - Y**2
    r = (X**2 + Y**2) ** 2
    pairs = []
    for alpha in range(alpha_max):
        for i in range((alpha + 2) // 2 + 1):
            if not r.coeffs[2 * i]:
                pairs.append((alpha, i))
        r = r * diff
    return pairs


def weight_enumerator_poly(wd: WeightDistribution, n: int) -> HomPoly:
    """The enumerator sum A_w x^(n-w) y^w as a degree-n polynomial."""
    coeffs = [0] * (n + 1)
    for w, a in wd.counts.items():
        if w > n:
            raise ValueError("weight exceeds the stated length")
        coeffs[w] = a
    return HomPoly(n, tuple(coeffs))


def macwilliams_transform_classical(
    wd: WeightDistribution, n: int, k: int
) -> WeightDistribution:
    """Dual weight distribution 2^-k W(x+y, x-y), checked to be integral."""
    if sum(wd.counts.values()) != 1 << k:
        raise ValueError("weight distribution does not sum to 2^k")
    if wd.count(0) != 1:
        raise ValueError("weight distribution must count the zero word once")
    transformed = weight_enumerator_poly(wd, n).substitute_sum_diff()
    size = 1 << k
    counts: dict[int, int] = {}
    for w, c in enumerate(transformed.coeffs):
        q, r = divmod(c, size)
        if q < 0 or r:
            raise ValueError(f"transform is not a weight distribution at w={w}")
        if q:
            counts[w] = q
    return WeightDistribution(counts)
