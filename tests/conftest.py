import pytest

from cohcfg import claims


@pytest.fixture(scope="session")
def hollmann8():
    return claims.hollmann_large(8)


@pytest.fixture(scope="session")
def hollmann16():
    return claims.hollmann_large(16)


@pytest.fixture(scope="session")
def hollmann32():
    return claims.hollmann_large(32)


@pytest.fixture(scope="session")
def small8():
    return claims.small_scheme(8)


@pytest.fixture(scope="session")
def small32():
    return claims.small_scheme(32)


@pytest.fixture(scope="session")
def passman_schemes():
    return {q: claims.passman(q) for q in (3, 5, 7, 9, 11, 13)}
