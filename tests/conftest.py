import builtins
import importlib
import pkgutil
import random

import pytest

import ghcrypt
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


@pytest.fixture
def inverse_count(monkeypatch):
    """A one-item list that counts every modular inverse the package takes
    from here on: each pow with a modulus and a negative exponent, which is
    also how ``numtheory.mod_inverse`` inverts."""
    calls = [0]

    def counting_pow(base, exp, mod=None):
        if mod is not None and exp < 0:
            calls[0] += 1
        return builtins.pow(base, exp, mod)

    for info in pkgutil.iter_modules(ghcrypt.__path__):
        module = importlib.import_module(f"ghcrypt.{info.name}")
        monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    return calls
