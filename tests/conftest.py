import pytest

from spaceforms import groups


@pytest.fixture(scope="session")
def g2t():
    return groups.build_binary_polyhedral(3)


@pytest.fixture(scope="session")
def g2o():
    return groups.build_binary_polyhedral(4)


@pytest.fixture(scope="session")
def g2i():
    return groups.build_binary_polyhedral(5)


@pytest.fixture(scope="session")
def all_groups(g2t, g2o, g2i):
    return [g2t, g2o, g2i]
