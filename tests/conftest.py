import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, settings

from rfhquad import (ActionWindow, HalfInt, QuadraticHamiltonian, build_block, census,
                     symplectic_direct_sum)
from rfhquad.czindex import CzPathData, _imaginary_frequencies
from rfhquad.errors import CrossingDegenerate, DegenerateRestriction
from rfhquad.symlin import TWO_PI, signature, standard_J, sym_matrix

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def _crossing_signature(S, JS, mus, tol):
    """Signature of S on the sum of the real invariant planes of JS at the
    frequencies mus, each found afresh: the null space of JS - i mu Id at
    the relative cut 100 * rank_cut, realified, orthonormalized and signed
    by the eigenvalues of B^T S B.  A form with an eigenvalue within
    rank_cut * max(max |eigenvalue|, |S|_2) of zero raises."""
    shifted = [JS - 1j * mu * np.eye(len(JS)) for mu in mus]
    N = np.hstack([scipy.linalg.null_space(M, rcond=1e2 * tol.rank_cut) for M in shifted])
    B = scipy.linalg.orth(np.hstack([N.real, N.imag]))
    w = np.linalg.eigvalsh(B.T @ S @ B)
    if np.any(np.abs(w) <= tol.rank_cut * max(np.abs(w).max(), np.linalg.norm(S, 2))):
        raise DegenerateRestriction("restricted form has a numerical kernel")
    return int(np.count_nonzero(w > 0) - np.count_nonzero(w < 0))


def per_horizon_data(S, T, tol):
    """The crossing data of exp(t J S) on [0, T] from a pass that stops at
    T, merging the crossings it meets on its own and signing each one
    afresh on its own eigenspaces, with no cache: the reference the
    one-pass enumeration and the census must reproduce exactly.  Its index
    is its own sum, sgn(S)/2 + the interior signatures + the endpoint's/2.
    Two merged crossings within tol.crossing of T cannot both be the
    endpoint, and it raises."""
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
        sig = _crossing_signature(S, JS, group, tol)
        if abs(t - T) <= tol.crossing:
            if endpoint is not None:
                raise CrossingDegenerate(f"crossings at t = {endpoint[0]} and t = {t} "
                                         f"are both within {tol.crossing} of T = {T}")
            endpoint = (t, sig)
        elif t < T:
            interior.append((t, sig))
    doubled = sgn_s + 2 * sum(sig for _, sig in interior) + (endpoint[1] if endpoint else 0)
    return CzPathData(sgn_s, tuple(interior), endpoint, HalfInt(doubled))


def block_keys(blocks, ndigits: int = 6) -> list:
    """The sorted (kind, m, Re lam, Im lam, gamma) of Hormander blocks,
    lam rounded to ndigits: a classification compared up to round-off."""
    return sorted((b.kind, b.m, round(b.lam.real, ndigits), round(b.lam.imag, ndigits), b.gamma)
                  for b in blocks)


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
