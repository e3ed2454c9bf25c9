import pytest

from amdesign.catalog import pinned_even_fsd_16, pinned_type_i_16
from amdesign.designs import support_design


@pytest.fixture(scope="session")
def type1():
    return pinned_type_i_16()


@pytest.fixture(scope="session")
def fsd16():
    return pinned_even_fsd_16()


@pytest.fixture(scope="session")
def c6(type1):
    return support_design(type1, 6)
