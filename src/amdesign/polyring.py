"""Homogeneous bivariate polynomials with exact integer or rational
coefficients, and the invariant ring machinery used to decompose weight
enumerators."""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING

from .gf2core import EnumerationGuardError, Record, _krawtchouk
# bench/shim.py traces this name; ROADMAP item 1a deletes the alias.
from .gf2core import macwilliams as macwilliams_transform_classical  # noqa: F401

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "HomPoly",
    "SpanError",
    "gleason_basis",
    "gleason_decompose",
    "ALPHA_MAX_GUARD",
    "vanishing_coefficient_search",
    "weight_enumerator_poly",
]


# A command transforms one degree; unbounded, 21 degrees up to 300 held 30 MiB.
@lru_cache(maxsize=1)
def _sum_diff_columns(d: int) -> tuple[tuple[int, ...], ...]:
    """Column m holds K_m(j) for j = 0..d: the coefficient of x^(d-m) y^m in
    (x+y)^(d-j) (x-y)^j, the image of x^(d-j) y^j under the substitution."""
    return tuple(zip(*(_krawtchouk(d, j) for j in range(d + 1))))


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

    def substitute_sum_diff(self) -> "HomPoly":
        """Return p(x+y, x-y), expanded exactly: the coefficient vector times
        each of the degree's cached Krawtchouk columns."""
        return HomPoly(self.degree, tuple(sum(map(mul, self.coeffs, col))
                                          for col in _sum_diff_columns(self.degree)))

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


class SpanError(ValueError):
    """A polynomial fell outside the requested basis span."""

    def __init__(self, message: str, partial: list[int | Fraction], residual: HomPoly):
        super().__init__(message)
        self.partial = partial
        self.residual = residual


# gleason_basis refuses a longer length. Its n/8 + 1 Krawtchouk rows cost
# about n^2: poly gleason on the [n,1] repetition code, at t = 0 or 1 with the
# guard lifted, takes 7-9 ms in-process at n = 300, 22-65 ms at n = 800 and
# 0.18-0.35 s at n = 2000 on a 2-core Xeon. ROADMAP item 12 weighs raising it.
_GLEASON_LENGTH_GUARD = 300


def gleason_basis(t: int, n: int) -> list[HomPoly]:
    """Basis of the degree n-2t polynomials fixed (up to the sign character
    (-1)^t) by the transforms p -> 2^(-deg/2) p(x+y, x-y) and p -> p(x, -y).

    Even t: (x^2+y^2)^(n/2-t-4i) (x^2 y^2 (x^2-y^2)^2)^i, whose coefficients
    at y^(2i), y^(2i+2), ... are the Krawtchouk row _krawtchouk(n/2-t-2i, 2i).
    Odd t: the same with t+4 in place of t, times q8 = xy(x^6 - 7x^4y^2 +
    7x^2y^4 - y^6): the row convolved with (1, -7, 7, -1), from y^(2i+1).
    Element i has its lowest power of y at y^(2i + t%2), with coefficient 1.
    An n above _GLEASON_LENGTH_GUARD raises EnumerationGuardError.
    """
    if n < 2 or n % 2:
        raise ValueError("length must be a positive even integer")
    if t < 0:
        raise ValueError("t must be nonnegative")
    odd = t % 2
    top = n // 2 - t - 4 * odd
    if top < 0:
        raise ValueError(f"no basis elements exist for t={t}, n={n}")
    if n > _GLEASON_LENGTH_GUARD:
        raise EnumerationGuardError(
            f"length {n} exceeds the Gleason basis guard {_GLEASON_LENGTH_GUARD}")
    degree, basis = n - 2 * t, []
    for i in range(top // 4 + 1):
        row = _krawtchouk(top - 2 * i, 2 * i)
        if odd:
            pad = (0, 0, 0, *row, 0, 0, 0)
            row = [a - 7 * b + 7 * c - d for a, b, c, d in zip(pad[3:], pad[2:], pad[1:], pad)]
        coeffs = [0] * (degree + 1)
        coeffs[2 * i + odd:degree + 1 - 2 * i - odd:2] = row
        basis.append(HomPoly(degree, tuple(coeffs)))
    return basis


def gleason_decompose(p: HomPoly, basis: list[HomPoly]) -> list[int | Fraction]:
    """Exact coordinates of p in basis = gleason_basis(t, n); raises SpanError outside.

    The basis is unitriangular in its lowest terms, so the coordinates follow
    by forward substitution from the lowest term of basis[0], y^(t%2) with
    coefficient 1, up, with no division: integer input gives integer
    coordinates. Outside the span, SpanError carries these coordinates and
    what is left of p after subtracting their combination.
    """
    if p.degree != basis[0].degree:
        raise ValueError(f"expected degree {basis[0].degree}, got {p.degree}")
    odd = basis[0].coeffs.index(1)
    rest, x = p.coeffs, []
    for i, b in enumerate(basis):
        a = rest[2 * i + odd]
        x.append(a)
        rest = [r - a * c for r, c in zip(rest, b.coeffs)]
    if any(rest):
        raise SpanError("polynomial is outside the basis span", x, HomPoly(p.degree, rest))
    return x


# vanishing_coefficient_search refuses a larger alpha_max: its cost grows as
# alpha_max^3 (about 0.16 s at the guard, on a 2-core Xeon).
ALPHA_MAX_GUARD = 1024


def vanishing_coefficient_search(alpha_max: int) -> list[tuple[int, int]]:
    """Scan R = (x^4 + 2x^2y^2 + y^4)(x^2 - y^2)^alpha for alpha < alpha_max.

    Reports every (alpha, i) with 0 <= i <= (alpha+2)/2 whose coefficient of
    x^(2*alpha+4-2i) y^(2i) in R is exactly zero. In z = y^2/x^2, R is
    x^(2*alpha+4) (1+z)^2 (1-z)^alpha, so that coefficient is the Krawtchouk
    value K_i(alpha) at length alpha+2. An alpha_max above ALPHA_MAX_GUARD
    raises EnumerationGuardError.
    """
    if alpha_max < 1:
        raise ValueError("alpha_max must be positive")
    if alpha_max > ALPHA_MAX_GUARD:
        raise EnumerationGuardError(
            f"alpha_max {alpha_max} exceeds the guard {ALPHA_MAX_GUARD}")
    pairs = []
    for alpha in range(alpha_max):
        row = _krawtchouk(alpha + 2, alpha, (alpha + 2) // 2 + 1)
        pairs += ((alpha, i) for i, x in enumerate(row) if not x)
    return pairs


def weight_enumerator_poly(wd: dict[int, int], n: int) -> HomPoly:
    """The enumerator sum A_w x^(n-w) y^w of {w: A_w} as a degree-n polynomial."""
    coeffs = [0] * (n + 1)
    for w, a in wd.items():
        if w < 0:
            raise ValueError("weights must be nonnegative")
        if w > n:
            raise ValueError("weight exceeds the stated length")
        coeffs[w] = a
    return HomPoly(n, tuple(coeffs))
