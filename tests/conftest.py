import random

import pytest

from ghcrypt.cyclic import CyclicPublicKey, CyclicSecretKey
from ghcrypt.freeprod import FactorFamily
from ghcrypt.general import keygen_general
from ghcrypt.groupcore import cyclic_group, sym


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def key35():
    """Unrandomized fixture key: m=3, n=35, R=(1, 17, 9), the powers of 17."""
    return (CyclicPublicKey(m=3, n=35, transversal=(1, 17, 9)),
            CyclicSecretKey.from_primes(7, 5, 3))


@pytest.fixture(scope="session")
def key77():
    """Unrandomized fixture key: m=2, n=77, R=(1, 6)."""
    return (CyclicPublicKey(m=2, n=77, transversal=(1, 6)),
            CyclicSecretKey.from_primes(7, 11, 2))


@pytest.fixture(scope="session")
def small_family(key35, key77):
    """Two-factor family (orders 3 and 2); ``small_secrets`` holds its
    trapdoors."""
    return FactorFamily((key35[0], key77[0]))


@pytest.fixture(scope="session")
def small_secrets(key35, key77):
    """The factor secret keys of ``small_family``."""
    return (key35[1], key77[1])


@pytest.fixture(scope="session")
def sym3_keys():
    return keygen_general(sym(3), 16, random.Random(33))


@pytest.fixture(scope="session")
def z6_keys():
    return keygen_general(cyclic_group(6), 16, random.Random(66))
