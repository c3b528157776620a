from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from conftest import per_horizon_data
from rfhquad import (
    ActionWindow,
    HalfInt,
    QuadraticHamiltonian,
    build_block,
    crossing_times,
    cz_index_data,
    cz_index_path,
    generator_census,
    grading,
    sigma_index,
    symplectic_direct_sum,
)
from rfhquad import czindex
from rfhquad.czindex import (
    _Crossings,
    _form_crossings,
    _imaginary_frequencies,
    _merged_frequencies,
)
from rfhquad.errors import (
    ClusterAmbiguous,
    CrossingDegenerate,
    DegenerateInput,
    InputError,
    NonIntegerResult,
)
from rfhquad.samples import random_elliptic_form, random_orthosymplectic, random_symplectic
from rfhquad.symlin import DEFAULT_TOL, Tolerances, restricted_signature, standard_J

TWO_PI = 2 * np.pi


class TestHalfInt:
    def test_construction_and_str(self):
        assert str(HalfInt(4)) == "2"
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(-1)) == "-1/2"
        assert HalfInt.from_int(2) == HalfInt(4)

    def test_rejects_non_integers(self):
        with pytest.raises(InputError):
            HalfInt(1.5)
        with pytest.raises(InputError):
            HalfInt(True)

    def test_from_int_checks_like_the_constructor(self):
        """from_int refuses what HalfInt refuses, instead of truncating
        2.5 to 2 and reading True as 1; numpy integers stay accepted."""
        for bad in (2.5, 2.0, True, False, "2"):
            with pytest.raises(InputError):
                HalfInt.from_int(bad)
        for good in (np.int64(3), np.int32(3), np.uint8(3)):
            half = HalfInt.from_int(good)
            assert half == HalfInt(6) and type(half.doubled) is int
        assert HalfInt.from_int(-2) == HalfInt(-4)

    def test_integrality(self):
        assert HalfInt(4).is_integer
        assert not HalfInt(3).is_integer
        assert HalfInt(4).as_int() == 2
        with pytest.raises(NonIntegerResult):
            HalfInt(3).as_int()

    def test_arithmetic(self):
        one_half = HalfInt(1)
        assert one_half + one_half == HalfInt.from_int(1)
        assert one_half - HalfInt(3) == HalfInt(-2)
        assert -one_half == HalfInt(-1)
        assert 3 * one_half == HalfInt(3)
        assert one_half + 1 == HalfInt(3)
        assert float(one_half) == 0.5

    def test_ordering(self):
        assert HalfInt(1) < HalfInt(2) <= HalfInt.from_int(1)
        assert HalfInt(5) > 2
        assert HalfInt(4) >= 2 and HalfInt(4) <= 2

    def test_hash_consistency(self):
        assert hash(HalfInt(4)) == hash(2)
        assert len({HalfInt(4), HalfInt.from_int(2)}) == 1


class TestCzPath:
    def test_full_rotation(self):
        assert cz_index_path(np.eye(2), TWO_PI) == HalfInt.from_int(2)

    def test_full_rotation_data(self):
        data = cz_index_data(np.eye(2), TWO_PI)
        assert data.sgn_start == 2
        assert data.interior == ()
        assert data.endpoint is not None and data.endpoint[1] == 2

    def test_one_and_a_half_rotations(self):
        data = cz_index_data(np.eye(2), 3 * np.pi)
        assert data.endpoint is None
        assert [round(t, 9) for t, _ in data.interior] == [round(TWO_PI, 9)]
        assert cz_index_path(np.eye(2), 3 * np.pi) == HalfInt.from_int(3)

    @pytest.mark.parametrize("k,N,mu", [(1, 1, 1.0), (2, 3, 0.7), (3, 2, 1.3), (4, 5, 1.0)])
    def test_scaled_identity_closed_form(self, k, N, mu):
        S = mu * np.eye(2 * k)
        assert cz_index_path(S, TWO_PI * N / mu) == HalfInt.from_int(2 * k * N)

    @pytest.mark.parametrize("T", [1.0, np.pi, TWO_PI, 10.0])
    def test_hyperbolic_vanishing(self, T):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert cz_index_path(S, T) == HalfInt.from_int(0)

    def test_empty_form(self):
        assert cz_index_path(np.zeros((0, 0)), 1.0) == HalfInt.from_int(0)

    def test_crossing_times(self):
        got = crossing_times(np.eye(2), 2 * TWO_PI + 0.1)
        assert np.allclose(got, (TWO_PI, 2 * TWO_PI))

    def test_additivity_on_direct_sum(self):
        S1 = 1.0 * np.eye(2)
        S2 = build_block("a", 1, 0.8).matrix
        S = symplectic_direct_sum(S1, S2)
        T = 3 * np.pi
        assert cz_index_path(S, T) == cz_index_path(S1, T) + cz_index_path(S2, T)

    def test_negation(self):
        S = np.diag([1.0, 2.0, 1.0, 2.0])
        T = 5.0
        assert cz_index_path(-S, T) == -cz_index_path(S, T)

    def test_input_errors(self):
        with pytest.raises(InputError):
            cz_index_path(np.eye(3), 1.0)
        with pytest.raises(InputError):
            cz_index_path(np.eye(2), 0.0)
        with pytest.raises(DegenerateInput):
            cz_index_path(np.diag([1.0, 0.0]), 1.0)

    def test_degenerate_crossing_form_reported(self):
        """A defective imaginary pair has a vanishing crossing form."""
        S = build_block("c", 2, 1.0j, gamma=1).matrix
        with pytest.raises(CrossingDegenerate):
            cz_index_path(S, 3 * np.pi)

    def test_conjugated_degenerate_crossing_form_reported(self):
        """A symplectic change of coordinates splits the defective pair's
        eigenvalues into rings; they still cluster into one size-2 block,
        and its vanishing crossing form is still reported."""
        rng = np.random.default_rng(7)
        S = build_block("c", 2, 1.0j, gamma=1).matrix
        for _ in range(10):
            P = random_symplectic(rng, 2, magnitude=0.3)
            with pytest.raises(CrossingDegenerate):
                cz_index_path(P.T @ S @ P, 3 * np.pi)

    def test_degenerate_crossing_form_never_cached(self, monkeypatch):
        """The crossings at 2 pi and 4 pi share one frequency; a degenerate
        form raises at 2 pi, and is signed afresh, and raises again, when
        the data is asked for again."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return restricted_signature(*args, **kwargs)

        monkeypatch.setattr(czindex, "restricted_signature", counting)
        S = build_block("c", 2, 1.0j, gamma=1).matrix
        path = _form_crossings(S, 5 * np.pi, DEFAULT_TOL)
        assert path.crossing_times() == (pytest.approx(TWO_PI), pytest.approx(2 * TWO_PI))
        assert not calls  # construction and crossing_times sign nothing
        for _ in range(2):
            with pytest.raises(CrossingDegenerate, match=f"t = {path.times[0]}"):
                path.data()
        assert len(calls) == 2


def census_transverse(H, eta):
    """The transverse index the generator census gives every generator at
    the critical value eta (its only producer)."""
    gens = generator_census(H, ActionWindow(eta - 0.5, eta + 0.5))
    assert len(gens) == 4  # two poles on each of the H0 and H sides
    (cz,) = {g.family.cz_transverse for g in gens}
    return cz


class TestTransverseAndGrading:
    def test_transverse_single_frequency(self, h21):
        assert census_transverse(h21, TWO_PI) == HalfInt.from_int(2)

    def test_transverse_interleaved(self, h32):
        assert census_transverse(h32, np.pi) == HalfInt.from_int(3)

    def test_transverse_negative_action(self, h21):
        assert census_transverse(h21, -TWO_PI) == HalfInt.from_int(-2)

    def test_sigma_index_sphere(self, h32, family):
        fam = family(h32, TWO_PI, side="H")  # m = 2
        assert sigma_index(fam, "max") == HalfInt(3)
        assert sigma_index(fam, "min") == HalfInt(-3)

    def test_sigma_index_stationary(self):
        from rfhquad import census, ActionWindow
        H = QuadraticHamiltonian.from_frequencies(
            3, 2, [1.0, 1.0], build_block("a", 1, 1.0).matrix)
        stat = census(H, ActionWindow(-0.5, 0.5))
        sigma0, sigma = stat[0], stat[1]
        assert sigma_index(sigma0, "max") == HalfInt(3)  # k - 1/2 at k=2
        assert sigma_index(sigma, "min") == HalfInt(-5)  # -(n - 1/2) at n=3
        assert sigma_index(sigma, "max") == HalfInt(3)

    def test_grading_positive_resonant(self, family):
        H = QuadraticHamiltonian.from_frequencies(
            3, 2, [1.0, 1.0], build_block("a", 1, 1.0).matrix)
        fam = replace(family(H, TWO_PI, side="H0"), cz_transverse=HalfInt.from_int(4))
        assert fam.m == 2
        assert grading(fam, "min") == HalfInt.from_int(3)
        assert grading(fam, "max") == HalfInt.from_int(6)

    def test_grading_negative_action(self, h21, family):
        fam = replace(family(h21, -TWO_PI, side="H0"), cz_transverse=HalfInt.from_int(-2))
        assert grading(fam, "max") == HalfInt.from_int(-1)
        assert grading(fam, "min") == HalfInt.from_int(-2)

    def test_grading_needs_census_index(self, h21, family):
        """Only the generator census attaches the transverse index."""
        with pytest.raises(InputError):
            grading(family(h21, TWO_PI), "min")


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_halfint_total_order_consistent(a, b):
    x, y = HalfInt(a), HalfInt(b)
    assert (x < y) == (a < b)
    assert (x == y) == (a == b)
    assert float(x - y) == pytest.approx((a - b) / 2)


@given(st.integers(1, 4), st.integers(1, 4), st.floats(0.4, 2.5))
def test_rotation_index_monotone_in_period(k, N, mu):
    S = mu * np.eye(2 * k)
    small = cz_index_path(S, TWO_PI * N / mu)
    large = cz_index_path(S, TWO_PI * (N + 1) / mu)
    assert large - small == HalfInt.from_int(2 * k)


# ---------------------------------------------------------------------------
# one-pass crossing enumeration against the per-T pass
# ---------------------------------------------------------------------------


# a crossing tolerance wide enough for 1 and 2.0001 to share a crossing
# at 2 pi, so horizons can cut a merged crossing in two; a power of two,
# so t +- tol is exact for t in [2, 32) and horizons land on the edges
WIDE = Tolerances(crossing=2.0**-10)
RESONANT = (1.0, 1.5, 2.0, 2.0001, 3.0)


@st.composite
def forms_and_horizons(draw):
    dof = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        S = random_elliptic_form(rng, dof, horizon=25.0)
    else:
        mus = np.array(draw(st.lists(st.sampled_from(RESONANT), min_size=dof, max_size=dof)))
        signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                       min_size=dof, max_size=dof)))
        U = random_orthosymplectic(rng, dof)
        S = U @ np.diag(np.concatenate([signs * mus] * 2)) @ U.T
        S = (S + S.T) / 2
    tol = draw(st.sampled_from([DEFAULT_TOL, WIDE]))
    try:
        times = per_horizon_data(S, 25.0, tol).interior
    except CrossingDegenerate:
        reject()
    # crossing times, and horizons just inside and just outside the
    # endpoint and merge radius tol.crossing around them
    picked = draw(st.lists(st.sampled_from([t for t, _ in times]), min_size=1, max_size=2))
    horizons = {t + f * tol.crossing for t in picked for f in (0, -1.5, -1, -0.5, 0.5, 1, 1.5)}
    horizons |= set(draw(st.lists(st.floats(0.05, 25.0), max_size=2)))
    return S, tol, sorted(horizons)


@given(forms_and_horizons())
def test_one_pass_matches_per_horizon_pass(case):
    S, tol, horizons = case
    for T in horizons:
        try:
            want = per_horizon_data(S, T, tol)
        except CrossingDegenerate:  # two crossings claim the endpoint
            for ask in (crossing_times, cz_index_data, cz_index_path):
                with pytest.raises(CrossingDegenerate):
                    ask(S, T, tol)
            continue
        want_times = tuple(t for t, _ in want.interior) + (
            (want.endpoint[0],) if want.endpoint else ())
        assert cz_index_data(S, T, tol) == want
        assert cz_index_path(S, T, tol).doubled == want.index.doubled
        assert crossing_times(S, T, tol) == want_times


def test_cut_merged_crossing_at_endpoint():
    """1 and 2.0001 cross 3e-4 apart near 2 pi, one merged crossing under
    WIDE; a horizon whose cut falls between them keeps the earlier alone."""
    S = np.diag([1.0, -2.0001, 1.0, -2.0001])
    t_a, t_b = 2 * TWO_PI / 2.0001, TWO_PI
    T = t_a - WIDE.crossing + 0.5 * (t_b - t_a)
    want = per_horizon_data(S, T, WIDE)
    assert want.endpoint == (pytest.approx(t_a), -2)
    assert cz_index_data(S, T, WIDE) == want
    assert cz_index_data(S, t_b, WIDE) == per_horizon_data(S, t_b, WIDE)


def test_basis_of_the_wrong_dimension_is_ambiguous():
    """A frequency whose eigenspace is smaller than its multiplicity says
    is refused when the crossing is signed, never signed on the smaller
    space."""
    path = _Crossings(np.eye(2), ((1.0, 2),), 7.0, DEFAULT_TOL)
    assert path.multiplicity(0) == 2
    with pytest.raises(ClusterAmbiguous, match="dimension 2"):
        path.data()


def test_two_crossings_at_the_endpoint_are_refused():
    """Crossings of 8 at 0.785 and 1.571 are both within a crossing
    tolerance of 0.7 of T = 1: neither is dropped nor taken for the other;
    the path is refused, by the reference pass too."""
    S, wide = 8.0 * np.eye(2), Tolerances(crossing=0.7)
    for ask in (crossing_times, cz_index_data, cz_index_path, per_horizon_data):
        with pytest.raises(CrossingDegenerate, match="0.785.* and t = 1.570"):
            ask(S, 1.0, wide)
    assert crossing_times(S, 0.75, wide) == (pytest.approx(TWO_PI / 8),)
    assert cz_index_path(S, 0.75, wide) == HalfInt.from_int(2)


def test_frequency_faster_than_the_crossing_tolerance_is_refused():
    """Crossings 2 pi / 8 apart, within a crossing tolerance of 1, would
    merge with the start of the path and with each other: refused before
    any is located or signed, not signed as one crossing."""
    with pytest.raises(InputError, match="crossing tolerance"):
        crossing_times(8.0 * np.eye(2), 5.0, Tolerances(crossing=1.0))


def test_frequencies_closer_than_the_cluster_radius_merge():
    """One helper merges the census's Williamson frequencies and the
    index's Jordan frequencies: the lowest of a run within
    eig_cluster * scale stays, with the summed multiplicity."""
    pairs = [(1.0, 1), (1.0 + 5e-10, 1), (1.0 + 1.4e-9, 2), (2.0, 1)]
    assert _merged_frequencies(pairs, 1.0, DEFAULT_TOL) == ((1.0, 2), (1.0 + 1.4e-9, 2), (2.0, 1))
    S = np.diag([1.0, 1.0 + 1e-13, 1.0, 1.0 + 1e-13])
    assert _imaginary_frequencies(standard_J(2) @ S, DEFAULT_TOL) == (
        (pytest.approx(1.0), 2),)
