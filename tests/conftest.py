import pytest

from amdesign.catalog import load_code
from amdesign.designs import Design, support_design
from amdesign.gf2core import code_from_rows


@pytest.fixture(scope="session")
def type1():
    return load_code("type1_16")


@pytest.fixture(scope="session")
def fsd16():
    return load_code("fsd_16")


@pytest.fixture(scope="session")
def golay():
    # Extended Golay [24,12,8]: the 12 shifts of g(x) = 1+x^2+x^4+x^5+x^6+x^10+x^11
    # in length 23, each extended by an overall parity bit.
    g = sum(1 << e for e in (0, 2, 4, 5, 6, 10, 11))
    rows = [(g << s) | (((g << s).bit_count() & 1) << 23) for s in range(12)]
    return code_from_rows(rows, 24)


@pytest.fixture(scope="session")
def c6(type1):
    return support_design(type1, 6)


@pytest.fixture(scope="session")
def biplane():
    """The blocks of the 2-(16,6,2) biplane of translates of the difference
    set {0,1,2,4,8,15} in Z_2^4 (point p is the group element p - 1)."""
    return [tuple((x ^ s) + 1 for s in (0, 1, 2, 4, 8, 15)) for x in range(16)]


@pytest.fixture(scope="session")
def bent_design(biplane):
    """A 2-(16,6,8) design that is not self-orthogonal: the biplane taken
    twice as is and twice with points 1 and 2 swapped. A swap preserves
    the 2-design property, and the union of the two copies has blocks
    meeting in an odd number of points."""
    swapped = [tuple({1: 2, 2: 1}.get(p, p) for p in block) for block in biplane]
    return Design(16, tuple(2 * biplane + 2 * swapped))
