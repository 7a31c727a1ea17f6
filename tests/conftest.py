import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from primeth import TowerCache, engine
from primeth.iterated import towers

from oracle import sieve_primes


@pytest.fixture
def fresh_table(monkeypatch):
    """Reset the prime table to hold only the prime 2, and the tally of the
    lookups counted past it to 0, now and on each call of the returned
    function; the table and tally from before the test return after it."""

    def reset():
        monkeypatch.setattr(engine, "_TABLE", (2, np.array([2], dtype=np.int64)))
        monkeypatch.setattr(engine, "_RENTED", 0)

    reset()
    return reset


@pytest.fixture(scope="session")
def cache():
    """Shared in-memory tower cache; purely an accelerator, never an oracle."""
    return TowerCache()


@pytest.fixture(scope="session")
def primes_3e6():
    """Sieved primes to 3.1e6: covers every diagonal element through k = 7."""
    return sieve_primes(3_100_000)


@pytest.fixture(scope="session")
def primes_1e7():
    return sieve_primes(10_000_000)


@pytest.fixture(scope="session")
def towers_to_1e9(cache):
    """All towers for n <= 100 truncated at value 10^9, computed once."""
    return towers(range(1, 101), 12, 10**9, cache)
