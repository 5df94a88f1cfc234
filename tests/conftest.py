import numpy as np
import pytest

from composite_forge.modroots import build_root_table
from composite_forge.poly import IntPolynomial
from composite_forge.sievecore import SurvivorSet


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("root-cache"))


@pytest.fixture(scope="session")
def f_x():
    return IntPolynomial.from_monomial([0, 1])


@pytest.fixture(scope="session")
def f_x2p1():
    return IntPolynomial.from_monomial([1, 0, 1])


@pytest.fixture(scope="session")
def table_x_100(f_x):
    return build_root_table(f_x, 100)


@pytest.fixture(scope="session")
def table_x2p1_100(f_x2p1):
    return build_root_table(f_x2p1, 100)


@pytest.fixture(scope="session")
def table_x2p1_2000(f_x2p1, cache_dir):
    return build_root_table(f_x2p1, 2000, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def table_x2p1_1e6(f_x2p1, cache_dir):
    return build_root_table(f_x2p1, 10**6, cache_dir=cache_dir)


def roots_of(table, q):
    """I_q as a tuple, () where q has none (any q beyond the limit), read
    through the table's rows."""
    return tuple(table.rows(q - 1, q)[2].tolist()) if q <= table.limit else ()


def usable_between(table, lo, hi):
    """The usable primes q with lo < q <= hi, ascending, as ints."""
    return table.rows(lo, hi)[0].tolist()


def all_rows(table):
    """Every row of the table as lists: the usable primes, their root
    counts and their roots."""
    return [v.tolist() for v in table.rows(0, table.limit)]


def rows_of(table, primes):
    """The rows of the given usable primes, ascending, in the form
    RootTable.rows gives: primes, root counts and roots."""
    qs = sorted(primes)
    return (np.array(qs, dtype=np.int64), *table.lookup(qs))


def bitmap(survivors):
    """A SurvivorSet as a boolean array over [lo, hi], True at each
    survivor: the form the test oracles kill offsets in."""
    bits = np.zeros(survivors.hi - survivors.lo + 1, dtype=bool)
    bits[survivors.offsets - survivors.lo] = True
    return bits


def from_bitmap(lo, bits):
    """The SurvivorSet over [lo, lo + len(bits) - 1] whose survivors are
    the True entries of bits."""
    return SurvivorSet(lo, lo + len(bits) - 1, np.flatnonzero(bits).astype(np.int64) + lo)
