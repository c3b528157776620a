import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfhquad import (
    ActionWindow,
    QuadraticHamiltonian,
    build_block,
    census,
    crit_values,
    kernel_dim,
    matrix_exp,
    orbit_family,
    standard_J,
    williamson_frequencies,
)
from rfhquad.errors import CensusOverflow, InputError, NotCritical, NotPositiveDefinite

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


def test_orbit_family_resonance_counts(h32):
    assert orbit_family(h32, np.pi).m == 1
    assert orbit_family(h32, TWO_PI).m == 2
    assert orbit_family(h32, -TWO_PI).m == 2


def test_orbit_family_rejects_noncritical(h32):
    with pytest.raises(NotCritical):
        orbit_family(h32, 1.0)


def test_orbit_family_sides_agree(h32):
    a = orbit_family(h32, np.pi, side="H0")
    b = orbit_family(h32, np.pi, side="H")
    assert (a.m, a.family_dim) == (b.m, b.family_dim)
    assert a.side == "H0" and b.side == "H"


def test_orbit_family_dimension(h32):
    fam = orbit_family(h32, TWO_PI)
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
    with pytest.raises(CensusOverflow):
        census(h21, ActionWindow(0.1, 100.0), max_families=10)


def test_kernel_dim_matches_family(h32):
    """Kernel of the full-period return map counts resonances twice."""
    A = h32.full_matrix
    J = standard_J(h32.n)
    for eta in (np.pi, TWO_PI, 3 * np.pi):
        fam = orbit_family(h32, eta)
        M = matrix_exp(J @ A, eta) - np.eye(2 * h32.n)
        assert kernel_dim(M) == 2 * fam.m


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
