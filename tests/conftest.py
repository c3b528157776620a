import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rfhquad import ActionWindow, QuadraticHamiltonian, build_block, census, symplectic_direct_sum

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def family():
    """family(H, eta, side="H"): the census family at the critical value eta."""

    def pick(H, eta, side="H"):
        fams = census(H, ActionWindow(eta - 1e-6, eta + 1e-6))
        (fam,) = [f for f in fams if f.side == side]
        return fam

    return pick


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def h21():
    """n=2, k=1, single frequency 1, one hyperbolic pair."""
    return QuadraticHamiltonian.from_frequencies(
        2, 1, [1.0], build_block("a", 1, 1.0).matrix)


@pytest.fixture
def h31():
    a1 = symplectic_direct_sum(
        build_block("a", 1, 1.0).matrix, build_block("a", 1, 0.7).matrix)
    return QuadraticHamiltonian.from_frequencies(3, 1, [1.0], a1)


@pytest.fixture
def h32():
    """n=3, k=2, frequencies [1, 2]: resonances interleave."""
    return QuadraticHamiltonian.from_frequencies(
        3, 2, [1.0, 2.0], build_block("a", 1, 1.0).matrix)


@pytest.fixture
def h42():
    """n=4, k=2, frequencies [1, 1.3]: every tenth crossing of 1 meets one of 1.3."""
    a1 = symplectic_direct_sum(
        build_block("a", 1, 0.9).matrix, build_block("a", 1, 0.6).matrix)
    return QuadraticHamiltonian.from_frequencies(4, 2, [1.0, 1.3], a1)
