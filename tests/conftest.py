import pytest

from cohcfg import schemes


@pytest.fixture(scope="session")
def hollmann8():
    return schemes.hollmann_large(8)


@pytest.fixture(scope="session")
def hollmann16():
    return schemes.hollmann_large(16)


@pytest.fixture(scope="session")
def hollmann32():
    return schemes.hollmann_large(32)


@pytest.fixture(scope="session")
def small8():
    return schemes.hollmann_small(8)


@pytest.fixture(scope="session")
def small32():
    return schemes.hollmann_small(32)


@pytest.fixture(scope="session")
def passman_schemes():
    return {q: schemes.passman_scheme(q) for q in (3, 5, 7, 9, 11, 13)}
