import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rfhquad import ActionWindow, QuadraticHamiltonian, build_block, census, symplectic_direct_sum
from rfhquad.czindex import CzPathData, _imaginary_frequencies
from rfhquad.errors import CrossingDegenerate
from rfhquad.symlin import (
    TWO_PI,
    imaginary_eigenspace_basis,
    restricted_signature,
    signature,
    standard_J,
    sym_matrix,
)

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def per_horizon_data(S, T, tol):
    """The crossing data of exp(t J S) on [0, T] from a pass that stops at
    T, merging the crossings it meets on its own and signing each one
    afresh, with no cache: the reference the one-pass enumeration and the
    census must reproduce exactly.  Two merged crossings within
    tol.crossing of T cannot both be the endpoint, and it raises."""
    S = sym_matrix(S)
    sgn_s = signature(S, tol)
    JS = standard_J(S.shape[0] // 2) @ S
    events = []
    for mu, _ in _imaginary_frequencies(JS, tol):
        j = 1
        while TWO_PI * j / mu <= T + tol.crossing:
            events.append((TWO_PI * j / mu, mu))
            j += 1
    events.sort()
    merged = []
    for t, mu in events:
        if merged and abs(t - merged[-1][0]) <= tol.crossing:
            merged[-1][1].append(mu)
        else:
            merged.append([t, [mu]])
    interior, endpoint = [], None
    for t, group in merged:
        if t <= tol.crossing:
            continue
        B = np.hstack([imaginary_eigenspace_basis(JS, mu, tol) for mu in group])
        sig = restricted_signature(S, B, tol)
        if abs(t - T) <= tol.crossing:
            if endpoint is not None:
                raise CrossingDegenerate(f"crossings at t = {endpoint[0]} and t = {t} "
                                         f"are both within {tol.crossing} of T = {T}")
            endpoint = (t, sig)
        elif t < T:
            interior.append((t, sig))
    return CzPathData(sgn_s, tuple(interior), endpoint)


def critical_values(H, window):
    """The critical values of the census of H in the window: the actions
    of its H0-side families, zero included when in the window."""
    return tuple(f.eta for f in census(H, window) if f.side == "H0")


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
