import pytest

import oracles

from amdesign.catalog import load_code
from amdesign.designs import support_design
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
    return oracles.biplane()


@pytest.fixture(scope="session")
def bent_design():
    return oracles.bent_design()
