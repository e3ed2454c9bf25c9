"""The invariant ring machinery used to decompose weight enumerators: Gleason
bases and exact coordinates, the vanishing-coefficient scan, the enumerator
polynomial of a weight distribution and the classical dual transform. The
polynomials themselves, ``HomPoly``, live in ``amdesign.hompoly`` and are
re-exported here."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .gf2core import EnumerationGuardError, WeightDistribution
from .hompoly import HomPoly, X, Y

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
    head = q8() if t % 2 else None
    basis = []
    for i in range(top // 4 + 1):
        b = s ** (top - 4 * i) * u**i
        basis.append(head * b if head is not None else b)
    return basis


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
        x.append(rest.coefficient(2 * i + t % 2))
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
            if not r.coefficient(2 * i):
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
