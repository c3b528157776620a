import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from rfhquad import (
    DEFAULT_TOL,
    ActionWindow,
    ExpEvaluator,
    QuadraticHamiltonian,
    build_block,
    census,
    crit_values,
    kernel_dim,
    orbits,
    standard_J,
    williamson_frequencies,
)
from rfhquad.errors import CensusOverflow, InputError, NotPositiveDefinite, ResonanceMismatch
from rfhquad.samples import random_hyperbolic_blocks, random_orthosymplectic

TWO_PI = 2 * np.pi


def test_williamson_identity():
    assert williamson_frequencies(np.diag([1.0, 1.0])) == (1.0,)


def test_williamson_two_frequencies():
    got = williamson_frequencies(np.diag([1.0, 2.0, 1.0, 2.0]))
    assert np.allclose(got, (1.0, 2.0))


def test_williamson_scaled():
    assert np.allclose(williamson_frequencies(np.diag([3.0, 3.0])), (3.0,))


def test_williamson_conjugation_invariant(rng):
    from rfhquad.samples import random_orthosymplectic
    a0 = np.diag([0.7, 1.9, 0.7, 1.9])
    U = random_orthosymplectic(rng, 2)
    assert np.allclose(williamson_frequencies(U @ a0 @ U.T), (0.7, 1.9))


def test_williamson_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        williamson_frequencies(np.diag([1.0, -1.0]))


def test_crit_values_single_frequency():
    got = crit_values([1.0], ActionWindow(-7.0, 7.0))
    assert np.allclose(got, (-TWO_PI, 0.0, TWO_PI))


def test_crit_values_two_frequencies():
    # periods pi (mu=2) and 2 pi (mu=1); only 0, pi, 2 pi lie below 7
    got = crit_values([1.0, 2.0], ActionWindow(0.0, 7.0))
    assert np.allclose(got, (0.0, np.pi, TWO_PI))


def test_crit_values_two_frequencies_wider():
    got = crit_values([1.0, 2.0], ActionWindow(0.0, 10.0))
    assert np.allclose(got, (0.0, np.pi, TWO_PI, 3 * np.pi))


def test_crit_values_empty_window():
    assert crit_values([1.0], ActionWindow(1.0, 2.0)) == ()


def test_crit_values_merges_near_duplicates():
    got = crit_values([1.0, 1.0 + 1e-13], ActionWindow(0.1, 7.0))
    assert len(got) == 1


def test_window_validation():
    with pytest.raises(InputError):
        ActionWindow(2.0, 1.0)
    with pytest.raises(InputError):
        ActionWindow(0.0, np.inf)


def test_orbit_family_resonance_counts(h32, family):
    assert family(h32, np.pi).m == 1
    assert family(h32, TWO_PI).m == 2
    assert family(h32, -TWO_PI).m == 2


def test_orbit_family_sides_agree(h32, family):
    a = family(h32, np.pi, side="H0")
    b = family(h32, np.pi, side="H")
    assert (a.eta, a.m, a.family_dim, a.topology) == (b.eta, b.m, b.family_dim, b.topology)
    assert a.side == "H0" and b.side == "H"


def test_orbit_family_dimension(h32, family):
    fam = family(h32, TWO_PI)
    assert fam.family_dim == 2 * fam.m - 1
    assert fam.topology_name == "S^3"


def test_census_matched_pairs(h21):
    fams = census(h21, ActionWindow(-0.5, 7.0))
    assert [f.eta for f in fams] == pytest.approx([0.0, 0.0, TWO_PI, TWO_PI])
    assert [f.side for f in fams] == ["H0", "H", "H0", "H"]
    assert [f.topology for f in fams] == ["sigma0", "sigma", "sphere", "sphere"]
    assert fams[1].topology_name == "S^2 x R^1"
    assert fams[0].topology_name == "S^1"


def test_census_resonance_pattern(h32):
    fams = census(h32, ActionWindow(0.1, 10.0))
    by_eta = [(round(f.eta, 9), f.m) for f in fams if f.side == "H0"]
    assert by_eta == [(round(np.pi, 9), 1), (round(TWO_PI, 9), 2), (round(3 * np.pi, 9), 1)]


def test_census_empty_window(h21):
    assert census(h21, ActionWindow(1.0, 2.0)) == ()


def test_census_rejects_invalid_hamiltonian():
    bad = QuadraticHamiltonian(2, 1, np.diag([1.0, 1.0]), np.diag([1.0, 1.0]))
    with pytest.raises(InputError):
        census(bad, ActionWindow(-1.0, 1.0))


def test_census_cap(h21):
    """5001 critical values, 10002 families: one pair past the cap."""
    assert orbits.DEFAULT_CENSUS_CAP == 10_000
    with pytest.raises(CensusOverflow):
        census(h21, ActionWindow(0.1, 5001 * TWO_PI + 1.0))


def test_kernel_dim_matches_family(h32, family):
    """Kernel of the full-period return map counts resonances twice."""
    ev = ExpEvaluator(standard_J(h32.n) @ h32.full_matrix)
    etas = (np.pi, TWO_PI, 3 * np.pi)
    dims = kernel_dim(ev.at(etas) - np.eye(2 * h32.n))
    assert dims.tolist() == [2 * family(h32, eta).m for eta in etas]


def test_census_raises_on_resonance_mismatch(h32, monkeypatch):
    """A resonance count that disagrees with the kernel of
    exp(eta J A0) - Id is an internal error."""
    count = orbits._resonant_count
    monkeypatch.setattr(orbits, "_resonant_count", lambda *args: count(*args) + 1)
    with pytest.raises(ResonanceMismatch):
        census(h32, ActionWindow(0.1, 10.0))
    census(h32, ActionWindow(-0.5, 0.5))  # stationary families only: nothing to check


def _reference_kernels(A, etas):
    """Kernel dimensions of exp(eta J A) - Id, one eta at a time, by
    scipy's Pade expm and a full SVD at kernel_dim's cutoff."""
    JA = standard_J(A.shape[0] // 2) @ A
    out = []
    for eta in etas:
        sv = np.linalg.svd(expm(eta * JA) - np.eye(len(JA)), compute_uv=False)
        out.append(int(np.count_nonzero(sv < DEFAULT_TOL.rank_cut * max(sv[0], 1.0))))
    return out


def _assert_census_kernels_match_reference(H, window):
    fams = [f for f in census(H, window) if f.side == "H0" and f.topology == "sphere"]
    etas = [f.eta for f in fams]
    assert etas
    got = kernel_dim(ExpEvaluator(standard_J(H.k) @ H.a0).at(etas) - np.eye(2 * H.k))
    assert got.tolist() == _reference_kernels(H.a0, etas) == [2 * f.m for f in fams]


def _conjugated(H, rng):
    U = random_orthosymplectic(rng, H.k)
    a0 = U @ H.a0 @ U.T
    return QuadraticHamiltonian(H.n, H.k, (a0 + a0.T) / 2, H.a1)


@pytest.mark.parametrize("seed", [0, 1])
def test_census_kernels_match_reference_on_wide_windows(seed):
    """Hamiltonians shaped as the census_wide benchmark's (frequencies in
    [1, 1.1] kept apart, windows of 1, 10 and 30 periods), as given and
    with A0 conjugated by an orthosymplectic map."""
    rng = np.random.default_rng(seed)
    for n, k, mult in ((3, 2, 1), (4, 3, 1), (5, 4, 1), (6, 5, 1),
                       (3, 2, 10), (4, 2, 10), (5, 2, 10), (6, 2, 10),
                       (3, 1, 30), (4, 1, 30), (5, 1, 30), (6, 1, 30)):
        cell = 0.1 / k
        freqs = [1.0 + cell * (j + 0.1 + 0.8 * rng.random()) for j in range(k)]
        H = QuadraticHamiltonian.from_frequencies(
            n, k, freqs, random_hyperbolic_blocks(rng, n - k).matrix)
        w = mult * TWO_PI / min(freqs) + 1e-6
        for ham in (H, _conjugated(H, rng)):
            _assert_census_kernels_match_reference(ham, ActionWindow(-w, w))


@pytest.mark.parametrize("freqs", [[1.0, 1.0], [1.0, 2.0], [1.0, 1.5, 3.0], [2.0, 2.0, 1.0]])
def test_census_kernels_match_reference_when_resonant(freqs):
    """Coinciding and commensurate frequencies, as given and with A0
    conjugated by an orthosymplectic map."""
    rng = np.random.default_rng(len(freqs))
    k = len(freqs)
    H = QuadraticHamiltonian.from_frequencies(
        k + 1, k, freqs, random_hyperbolic_blocks(rng, 1).matrix)
    for ham in (H, _conjugated(H, rng)):
        _assert_census_kernels_match_reference(ham, ActionWindow(-4 * TWO_PI, 4 * TWO_PI))


@given(st.integers(0, 10_000))
def test_crit_values_symmetric_under_negation(seed):
    rng = np.random.default_rng(seed)
    mus = sorted(rng.uniform(0.5, 5.0, size=rng.integers(1, 4)))
    vals = crit_values(mus, ActionWindow(-9.0, 9.0))
    assert np.allclose(vals, sorted(-v for v in vals))


@given(st.integers(0, 10_000))
def test_crit_values_window_monotone(seed):
    rng = np.random.default_rng(seed)
    mus = sorted(rng.uniform(0.5, 5.0, size=2))
    small = crit_values(mus, ActionWindow(0.1, 5.0))
    large = crit_values(mus, ActionWindow(0.1, 9.0))
    assert set(np.round(small, 9)) <= set(np.round(large, 9))
