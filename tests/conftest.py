import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rootdist import SpfSieve, parse_polynomial

GOLDEN_DIR = Path(__file__).parent / "goldens"


@pytest.fixture(scope="session")
def x2p1():
    return parse_polynomial("1,0,1")


@pytest.fixture(scope="session")
def x3m2():
    return parse_polynomial("-2,0,0,1")


@pytest.fixture(scope="session")
def x2px1():
    return parse_polynomial("1,1,1")


@pytest.fixture(scope="session")
def reference_polys(x2p1, x3m2, x2px1):
    return [x2p1, x3m2, x2px1]


@pytest.fixture(scope="session")
def small_sieve():
    return SpfSieve(10**5)
