"""Shared scenario builders for the test suite."""

import os

import numpy as np
import pytest

from jsdmsim import GroupSpec, Scenario, reduce
from jsdmsim.channel import ChannelRealization


def table1_scenario(m=32, mobile_db=30.0, interferer_db=20.0, chains=4, phi=0.0):
    """Desk-scaled version of the bundled four-group angle-delay profile."""
    def e(db):
        return 10.0 ** (db / 10.0)

    groups = (
        GroupSpec(2, chains, e(mobile_db), (0, 5, 11),
                  np.array([[-15.5, -2.5, 16.5], [-14.5, -1.5, 17.5]]),
                  2.0, 1.0, mobile=True),
        GroupSpec(2, chains, e(interferer_db), (3, 9),
                  np.array([[40.5, 20.5], [41.5, 21.5]]), 2.0, 1.0),
        GroupSpec(2, chains, e(interferer_db), (8, 17),
                  np.array([[-10.5, -20.5], [-9.5, -19.5]]), 2.0, 1.0),
        GroupSpec(2, chains, e(interferer_db), (29,),
                  np.array([[-40.5], [-39.5]]), 2.0, 1.0),
    )
    return Scenario(m, 32, 1.0, groups, phi=phi)


def merged_group_scenario(m=32, chains=8, phi=15.0, mobile_db=30.0, interferer_db=20.0):
    """Five-cluster merged mobile group against two fixed interferer groups."""
    def e(db):
        return 10.0 ** (db / 10.0)

    groups = (
        GroupSpec(4, chains, e(mobile_db), (0, 3, 5, 9, 11),
                  np.array([[-15.5, 25.5, -2.5, 5.5, 16.5],
                            [-14.5, 26.5, -1.5, 6.5, 17.5],
                            [-15.0, 26.0, -2.0, 6.0, 17.0],
                            [-14.0, 25.0, -1.0, 5.0, 16.0]]),
                  2.0, 1.0, mobile=True),
        GroupSpec(2, 4, e(interferer_db), (8, 17),
                  np.array([[-10.5, -20.5], [-9.5, -19.5]]), 2.0, 1.0),
        GroupSpec(2, 4, e(interferer_db), (29,),
                  np.array([[-40.5], [-39.5]]), 2.0, 1.0),
    )
    return Scenario(m, 32, 1.0, groups, phi=phi)


def two_group_toy(m=16, chains=4, e1_db=30.0, e2_db=20.0, phi=0.0, taps=4):
    """Small two-group scenario for fast unit tests."""
    def e(db):
        return 10.0 ** (db / 10.0)

    groups = (
        GroupSpec(2, chains, e(e1_db), (0, 2),
                  np.array([[-10.0, 20.0], [-9.0, 21.0]]), 2.0, 1.0, mobile=True),
        GroupSpec(2, chains, e(e2_db), (1, 3),
                  np.array([[40.0, -35.0], [41.0, -34.0]]), 2.0, 1.0),
    )
    return Scenario(m, taps, 1.0, groups, phi=phi)


@pytest.fixture
def one_process(monkeypatch):
    """Sweeps run in the test's process alone (one CPU): a recorder monkeypatched into
    jsdmsim cannot see the calls of a forked sweep worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture(scope="session")
def desk_scenario():
    return table1_scenario()


@pytest.fixture(scope="session")
def toy_scenario():
    return two_group_toy()


def with_reduced(stats, designs):
    """The link pass's input: each design with its S^H R_eta S."""
    return {name: (s, reduce(stats, s)) for name, s in designs.items()}


def ccm(cov, g, k, delay):
    """User k's CCM in group g at an active ``delay``: a slice of ``cov.stacks[g]``."""
    return cov.stacks[g][cov.scenario.groups[g].delays.index(delay), k]


def ccm_factor(cov, g, k, delay):
    """The pivoted-Cholesky factor L of ``ccm(cov, g, k, delay)``, R = L L^H: a slice of
    ``cov.factors(g)``."""
    return cov.factors(g)[cov.scenario.groups[g].delays.index(delay), k]


def one_trial(real, t):
    """Trial t of a block of realizations (``sample_channels`` with ``trials``), on its own."""
    return ChannelRealization(real.scenario,
                              [{delay: h[t] for delay, h in taps.items()} for taps in real.taps])


def random_orthonormal(rng, m, d):
    z = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    q, _ = np.linalg.qr(z)
    return q


def random_unitary(rng, d):
    return random_orthonormal(rng, d, d)


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (z + z.conj().T)


def toeplitz_from_column(col):
    """The Hermitian Toeplitz matrix whose first column is ``col`` (col[0] made real)."""
    col = np.array(col, dtype=complex)
    col[0] = col[0].real
    lag = np.subtract.outer(np.arange(col.size), np.arange(col.size))
    return np.where(lag >= 0, col[np.abs(lag)], col[np.abs(lag)].conj())


def random_toeplitz(rng, n):
    """Random Hermitian Toeplitz matrix, in general indefinite."""
    return toeplitz_from_column(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def random_toeplitz_psd(rng, n, rank=None):
    """Hermitian Toeplitz PSD matrix: ``rank`` weighted unit-modulus steering outer products.

    Rank min(rank, n) at distinct random angles; ``rank`` defaults to n.
    """
    rank = n if rank is None else rank
    u = np.exp(1j * np.pi * np.outer(np.arange(n), np.sin(rng.uniform(-np.pi / 2, np.pi / 2,
                                                                      rank))))
    return (u * rng.uniform(0.5, 1.5, rank)) @ u.conj().T * (2.0 / rank)


def random_toeplitz_pd(rng, n):
    return random_toeplitz_psd(rng, n) + 0.1 * np.eye(n)
