from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from conftest import block_keys, per_horizon_data
from rfhquad import (
    ActionWindow,
    HalfInt,
    QuadraticHamiltonian,
    build_block,
    classify,
    crossing_times,
    cz_index_data,
    cz_index_path,
    generator_census,
    Spectrum,
    normal_form,
    oracle_cz,
    spectrum_with_jordan,
    symplectic_direct_sum,
)
from rfhquad import czindex, hormander
from rfhquad.czindex import _form_crossings, _imaginary_frequencies, _merged_frequencies
from rfhquad.orbits import _sigma_doubled
from rfhquad.errors import (
    CrossingDegenerate,
    DegenerateInput,
    InputError,
    NonIntegerResult,
)
from rfhquad.samples import random_elliptic_form, random_orthosymplectic, random_symplectic
from rfhquad.symlin import DEFAULT_TOL, Tolerances, _krein_signature, standard_J, sym_matrix

TWO_PI = 2 * np.pi


class TestHalfInt:
    def test_construction_and_str(self):
        assert str(HalfInt(4)) == "2"
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(-1)) == "-1/2"
        assert HalfInt(4).doubled == 4 and HalfInt(4) == 2

    def test_rejects_non_integers(self):
        for bad in (1.5, 2.0, True, False, np.bool_(True), "2", None):
            with pytest.raises(InputError):
                HalfInt(bad)

    def test_normalizes_numpy_integers(self):
        """A numpy integer is stored as a Python int, so records hash and
        print alike whichever integer built them."""
        for good in (np.int64(3), np.int32(3), np.uint8(3)):
            half = HalfInt(good)
            assert type(half.doubled) is int and half.doubled == 3
            assert half == HalfInt(3) and repr(half) == "HalfInt(3/2)"
        assert type(replace(HalfInt(4), doubled=np.int64(5)).doubled) is int

    def test_integrality(self):
        assert HalfInt(4).is_integer
        assert not HalfInt(3).is_integer
        assert HalfInt(4).as_int() == 2
        with pytest.raises(NonIntegerResult):
            HalfInt(3).as_int()

    def test_arithmetic(self):
        one_half = HalfInt(1)
        assert (one_half + one_half).doubled == 2
        assert (one_half + -HalfInt(3)).doubled == -2
        assert (-one_half).doubled == -1
        assert (one_half + 1).doubled == (1 + one_half).doubled == 3
        assert sum([one_half] * 3).doubled == 3

    def test_ordering(self):
        assert HalfInt(1) < HalfInt(2) and not HalfInt(2) < HalfInt(2)
        assert HalfInt(3) < 2 and not HalfInt(4) < 2
        assert [h.doubled for h in sorted([HalfInt(5), HalfInt(-1), HalfInt(2)])] == [-1, 2, 5]

    def test_hash_consistency(self):
        assert hash(HalfInt(4)) == hash(2)
        assert hash(HalfInt(3)) == hash(Fraction(3, 2))
        assert len({HalfInt(4), HalfInt(np.int64(4)), 2}) == 1


class TestCzPath:
    def test_full_rotation(self):
        assert cz_index_path(np.eye(2), TWO_PI) == HalfInt(4)

    def test_full_rotation_data(self):
        data = cz_index_data(np.eye(2), TWO_PI)
        assert data.sgn_start == 2
        assert data.interior == ()
        assert data.endpoint is not None and data.endpoint[1] == 2

    def test_one_and_a_half_rotations(self):
        data = cz_index_data(np.eye(2), 3 * np.pi)
        assert data.endpoint is None
        assert [round(t, 9) for t, _ in data.interior] == [round(TWO_PI, 9)]
        assert cz_index_path(np.eye(2), 3 * np.pi) == HalfInt(6)

    @pytest.mark.parametrize("k,N,mu", [(1, 1, 1.0), (2, 3, 0.7), (3, 2, 1.3), (4, 5, 1.0)])
    def test_scaled_identity_closed_form(self, k, N, mu):
        S = mu * np.eye(2 * k)
        assert cz_index_path(S, TWO_PI * N / mu) == HalfInt(4 * k * N)

    @pytest.mark.parametrize("T", [1.0, np.pi, TWO_PI, 10.0])
    def test_hyperbolic_vanishing(self, T):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert cz_index_path(S, T) == HalfInt(0)

    def test_empty_form(self):
        assert cz_index_path(np.zeros((0, 0)), 1.0) == HalfInt(0)

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
        """A defective imaginary pair has a vanishing crossing form: a path
        that crosses it is refused, also where the crossing lies below
        the period cz_index_path lists, and one that ends before its first
        crossing signs nothing and is indexed."""
        S = build_block("c", 2, 1.0j, gamma=1).matrix
        for T in (3 * np.pi, 100.0):
            with pytest.raises(CrossingDegenerate, match=f"t = {TWO_PI}"):
                cz_index_path(S, T)
        assert cz_index_path(S, 6.0) == cz_index_data(S, 6.0).index == HalfInt(0)

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
            return _krein_signature(*args, **kwargs)

        monkeypatch.setattr(czindex, "_krein_signature", counting)
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


def census_gradings(H, eta):
    """side -> pole -> grading of the census generators at the critical
    value eta (their only producer)."""
    out = {}
    for g in generator_census(H, ActionWindow(eta - 0.5, eta + 0.5)):
        out.setdefault(g.family.side, {})[g.pole] = g.grading
    return out


class TestTransverseAndGrading:
    def test_transverse_single_frequency(self, h21):
        assert census_transverse(h21, TWO_PI) == HalfInt(4)

    def test_transverse_interleaved(self, h32):
        assert census_transverse(h32, np.pi) == HalfInt(6)

    def test_transverse_negative_action(self, h21):
        assert census_transverse(h21, -TWO_PI) == HalfInt(-4)

    def test_sigma_index_sphere(self, h32, family):
        fam = family(h32, TWO_PI, side="H")  # m = 2
        assert _sigma_doubled(fam, "max") == 3
        assert _sigma_doubled(fam, "min") == -3

    def test_sigma_index_stationary(self):
        H = QuadraticHamiltonian.from_frequencies(
            3, 2, [1.0, 1.0], build_block("a", 1, 1.0).matrix)
        gens = generator_census(H, ActionWindow(-0.5, 0.5))
        sigma = {(g.family.topology, g.pole): g.sigma_index for g in gens}
        assert sigma[("sigma0", "max")] == HalfInt(3)  # k - 1/2 at k=2
        assert sigma[("sigma", "min")] == HalfInt(-5)  # -(n - 1/2) at n=3
        assert sigma[("sigma", "max")] == HalfInt(3)

    def test_grading_positive_resonant(self):
        H = QuadraticHamiltonian.from_frequencies(
            3, 2, [1.0, 1.0], build_block("a", 1, 1.0).matrix)
        assert census_transverse(H, TWO_PI) == HalfInt(8)
        gradings = census_gradings(H, TWO_PI)  # 4 -+ 3/2 + 1/2 on a sphere S^3 (m = 2)
        assert gradings["H0"] == gradings["H"]
        assert gradings["H0"] == {"min": HalfInt(6), "max": HalfInt(12)}

    def test_grading_negative_action(self, h21):
        gradings = census_gradings(h21, -TWO_PI)  # -2 -+ 1/2 + 1/2 on S^1 (m = 1)
        assert gradings["H0"] == gradings["H"]
        assert gradings["H0"] == {"max": HalfInt(-2), "min": HalfInt(-4)}


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_halfint_total_order_consistent(a, b):
    x, y = HalfInt(a), HalfInt(b)
    assert (x < y) == (a < b)
    assert (x == y) == (a == b)
    assert (x + -y).doubled == a - b


@given(st.integers(1, 4), st.integers(1, 4), st.floats(0.4, 2.5))
def test_rotation_index_monotone_in_period(k, N, mu):
    S = mu * np.eye(2 * k)
    small = cz_index_path(S, TWO_PI * N / mu)
    large = cz_index_path(S, TWO_PI * (N + 1) / mu)
    assert large.doubled - small.doubled == 4 * k


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


def test_two_crossings_at_the_endpoint_are_refused():
    """Crossings of 8 at 0.785 and 1.571 are both within a crossing
    tolerance of 0.7 of T = 1: neither is dropped nor taken for the other;
    the path is refused, by the reference pass too."""
    S, wide = 8.0 * np.eye(2), Tolerances(crossing=0.7)
    for ask in (crossing_times, cz_index_data, cz_index_path, per_horizon_data):
        with pytest.raises(CrossingDegenerate, match="0.785.* and t = 1.570"):
            ask(S, 1.0, wide)
    assert crossing_times(S, 0.75, wide) == (pytest.approx(TWO_PI / 8),)
    assert cz_index_path(S, 0.75, wide) == HalfInt(4)


def test_frequency_faster_than_the_crossing_tolerance_is_refused():
    """Crossings 2 pi / 8 apart, within a crossing tolerance of 1, would
    merge with the start of the path and with each other: refused before
    any is located or signed, not signed as one crossing."""
    with pytest.raises(InputError, match="crossing tolerance"):
        crossing_times(8.0 * np.eye(2), 5.0, Tolerances(crossing=1.0))


def test_frequencies_closer_than_the_cluster_radius_merge():
    """The census's Williamson frequencies merge by one helper: the lowest
    of a run within eig_cluster * scale stays, with the summed
    multiplicity.  The index's Jordan frequencies merge in the clustering
    of the Jordan spectrum: one frequency, with one eigenvector per
    block."""
    pairs = [(1.0, 1), (1.0 + 5e-10, 1), (1.0 + 1.4e-9, 2), (2.0, 1)]
    assert _merged_frequencies(pairs, 1.0, DEFAULT_TOL) == ((1.0, 2), (1.0 + 1.4e-9, 2), (2.0, 1))
    S = np.diag([1.0, 1.0 + 1e-13, 1.0, 1.0 + 1e-13])
    ((mu, vectors),) = _imaginary_frequencies(standard_J(2) @ S, DEFAULT_TOL)
    assert mu == pytest.approx(1.0)
    assert vectors.shape == (4, 2)


def test_signing_reads_the_jordan_spectrum_eigenvectors(monkeypatch):
    """Crossing forms and Krein splits are signed on the eigenvectors the
    Jordan spectrum computed: on three simple frequencies cz_index_data
    calls np.linalg.svd only for |S|_2 and classify only for its
    degeneracy check, and each takes one eigendecomposition, that of its
    one Jordan spectrum.  The signer's |S|_2, the first singular value of
    one np.linalg.svd (bit for bit np.linalg.norm(S, 2)), is taken once for
    cz_index_data's three frequencies, and classify reuses the largest
    singular value of its degeneracy check."""
    A = normal_form([build_block("c", 1, 1.0j, 1), build_block("c", 1, 1.3j, -1),
                     build_block("c", 1, 1.7j, 1)]).matrix
    P = random_symplectic(np.random.default_rng(0), 3, magnitude=0.4)
    S = P.T @ A @ P
    calls = dict.fromkeys(("svd", "eig", "norm"), 0)
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            if _name != "norm" or args[1:2] == (2,):
                calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    for run, want in ((lambda: cz_index_data(S, 9.0), {"svd": 1, "eig": 1, "norm": 0}),
                      (lambda: classify(S), {"svd": 1, "eig": 1, "norm": 0})):
        calls.update(dict.fromkeys(calls, 0))
        run()
        assert calls == want


def test_ill_conditioned_frequencies_keep_their_crossings():
    """Conjugated by a symplectic map of magnitude 10, the imaginary
    eigenvalues of J S come out about 7e-9 off the axis, past
    eig_cluster * scale but within backward error of it: they still cross, so
    the index is the unconjugated form's, -2, and classify reads the
    same two elliptic blocks; the crossings are signed on the mu i
    eigenvectors."""
    built = [build_block("c", 1, 1.0j, 1), build_block("c", 1, 1.7j, -1)]
    S0 = normal_form(built).matrix
    G = random_symplectic(np.random.default_rng(24), 2, 10)
    S = G.T @ S0 @ G
    assert cz_index_path(S, 9.0) == cz_index_path(S0, 9.0) == HalfInt(-4)
    assert block_keys(classify(S).blocks) == block_keys(built)
    JS = standard_J(2) @ sym_matrix(S)
    freqs = _imaginary_frequencies(JS, DEFAULT_TOL)
    assert sorted(mu for mu, _ in freqs) == pytest.approx([1.0, 1.7])
    for mu, V in freqs:  # the mu i eigenvectors, not their conjugates
        assert np.linalg.norm(JS @ V - 1j * mu * V) < 1e-6 * np.linalg.norm(JS)


def _long_index(mus, T) -> HalfInt:
    """Long's closed form for a positive definite S with the simple
    frequencies mus, T off every crossing: sum of 2 floor(T mu / 2 pi) + 1."""
    return HalfInt(2 * sum(2 * int(T * mu / TWO_PI) + 1 for mu in mus))


def test_a_slow_frequency_beside_a_fast_one_is_placed():
    """J S lies 1e-5 in backward error from a matrix with the eigenvalue 0,
    far above the cut eig_cluster * 30, so mu = 1e-5 is on the imaginary
    axis and off 0, and is crossed at 2 pi / 1e-5, with the 3 millionth
    crossing of mu = 30, both signed +2.  At T = 7e5 the index is 6684510
    by the closed form: cz_index_path counts the 3.3 million crossings
    below its last period and lists only that period.  The same geometry
    at eig_cluster = 1e-4, mu = 0.1 beside 30, shows the slow frequency's
    crossing within a short path and in the index.  A frequency
    of 5e-10 lies within the cut of 0 and is refused, as classify refuses
    it.  Alone, mu = 1e-5 is placed and crossed too."""
    fast, slow = 30.0 * np.eye(2), 1e-5 * np.eye(2)
    S = symplectic_direct_sum(fast, slow)
    freqs = _imaginary_frequencies(standard_J(2) @ S, DEFAULT_TOL)
    assert sorted(mu for mu, _ in freqs) == pytest.approx([1e-5, 30.0])
    assert cz_index_path(S, 1.0) == _long_index([30.0, 1e-5], 1.0) == HalfInt(20)
    assert cz_index_path(S, 7e5) == _long_index([30.0, 1e-5], 7e5) == HalfInt(13369020)
    assert crossing_times(S, 1.0) == pytest.approx([TWO_PI * j / 30.0 for j in (1, 2, 3, 4)])
    late = czindex._Crossings(S, [(mu, V.shape[1]) for mu, V in freqs], TWO_PI / 1e-5 + 1.0,
                              DEFAULT_TOL, start=TWO_PI / 1e-5 - 1.0, vectors=dict(freqs))
    near = [(t, w) for t, w in late.data().interior if abs(t - TWO_PI / 1e-5) < 0.1]
    assert near == [(pytest.approx(TWO_PI / 1e-5), 4)]
    wide = Tolerances(eig_cluster=1e-4)
    S = symplectic_direct_sum(fast, 0.1 * np.eye(2))
    assert cz_index_path(S, 70.0, wide) == _long_index([30.0, 0.1], 70.0) == HalfInt(1344)
    assert TWO_PI / 0.1 in crossing_times(S, 70.0, wide)
    S = symplectic_direct_sum(fast, 5e-10 * np.eye(2))
    with pytest.raises(DegenerateInput, match="backward error of 0"):
        cz_index_data(S, 1.0)
    with pytest.raises(DegenerateInput):
        classify(S)
    assert cz_index_path(slow, 7e5) == _long_index([1e-5], 7e5) == HalfInt(6)
    assert crossing_times(slow, 7e5) == (pytest.approx(TWO_PI * 1e5),)


@pytest.mark.parametrize("sign", [1, -1])
def test_index_and_classify_share_the_axis_band(monkeypatch, sign):
    """With every imaginary item of the Jordan spectrum moved 5e-9 * scale
    off the axis, past eig_cluster * scale, the backward-error test of
    symlin.hamiltonian_orbits still places it on the axis: cz_index_data's
    index and crossing times and classify's blocks do not change, as the
    index and the normal form read the axis by one rule."""
    built = [build_block("c", 1, 1.0j, 1), build_block("c", 1, 1.3j, -1),
             build_block("a", 1, 0.6)]
    P = random_symplectic(np.random.default_rng(5), 3, magnitude=0.4)
    S = P.T @ normal_form(built).matrix @ P

    def read():
        return cz_index_data(S, 9.0), crossing_times(S, 9.0), classify(S).blocks

    def shifted(M, tol):
        items = spectrum_with_jordan(M, tol).items
        scale = max(1.0, max(abs(it.eigenvalue) for it in items))
        items = [replace(it, eigenvalue=complex(sign * 5e-9 * scale, it.eigenvalue.imag))
                 if abs(it.eigenvalue.real) <= 1e-9 * scale else it for it in items]
        return Spectrum(tuple(sorted(items, key=lambda it: (it.eigenvalue.real,
                                                            it.eigenvalue.imag))))

    want = read()
    assert len(want[1]) == 2  # at 2 pi / 1.3 and 2 pi
    for mod in (czindex, hormander):
        monkeypatch.setattr(mod, "spectrum_with_jordan", shifted)
    assert read() == want


@pytest.mark.parametrize("gamma", [1, -1])
def test_shared_frequency_signed_on_its_schur_kernel(gamma):
    """Two blocks of opposite Krein sign at one frequency cluster into one
    item, whose two eigenvectors come from the kernel of its Schur block;
    the Krein split recovers the blocks as built, and the crossing forms
    signed on them give the dense-scan oracle's index, on every draw."""
    rng = np.random.default_rng(19)
    built = [build_block("c", 1, 1.0j, 1), build_block("c", 1, 1.0j, -1),
             build_block("c", 1, 1.6j, gamma)]
    A = normal_form(built).matrix
    want = block_keys(built)
    for _ in range(30):
        P = random_symplectic(rng, 3, magnitude=0.4)
        S = P.T @ A @ P
        freqs = _imaginary_frequencies(standard_J(3) @ sym_matrix(S), DEFAULT_TOL)
        assert sorted(V.shape[1] for _, V in freqs) == [1, 2]
        assert block_keys(classify(S).blocks) == want
        assert cz_index_data(S, 9.0).index == oracle_cz(S, 9.0).index


def test_path_index_lists_one_period_whatever_the_horizon(monkeypatch):
    """cz_index_path on 30 I_2 + 1e-5 I_2 builds one pass, which lists the
    few events of about one period below T, at T = 7e2 as at 7e5: the
    crossings below are counted, not listed (a pass from 0 lists 3 342
    and 3.3 million of them)."""
    built = []
    init = czindex._Crossings.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(czindex._Crossings, "__init__", recording)
    S = symplectic_direct_sum(30.0 * np.eye(2), 1e-5 * np.eye(2))
    for T in (7e2, 7e5):
        built.clear()
        assert cz_index_path(S, T) == _long_index([30.0, 1e-5], T)
        assert len(built) == 1 and sum(map(len, built[0].members)) <= 6, T


@pytest.mark.parametrize("mu", [0.5, 1.0, 3.0])
def test_path_index_keeps_an_endpoint_an_ulp_below_the_horizon(mu):
    """On selftest criterion 3's grid, mu Id at T = 2 pi N / mu,
    cz_index_path, whose pass lists from T - tol.crossing on, gives the
    index of cz_index_data's pass from 0, 2 k N.  The Jordan spectrum reads
    0.5 as 0.5000000000000001 and 3 as 2.9999999999999996, so the endpoint
    crossing falls an ulp below or above T and is kept either way."""
    for k in (1, 2, 3, 4):
        S = mu * np.eye(2 * k)
        for N in (1, 2, 3, 4, 5):
            T = TWO_PI * N / mu
            assert cz_index_path(S, T) == cz_index_data(S, T).index == HalfInt(4 * k * N)


def test_late_pass_indexes_as_a_pass_from_zero():
    """Under a crossing tolerance of 0.8 the crossings of ten frequencies
    in [1, 1.63], of alternating Krein sign, chain into merged crossings
    (test_late_start_merges_as_a_pass_from_zero).  At horizons on each
    merged crossing and tol.crossing either side of it, a pass that starts
    late, at T - tol.crossing as cz_index_path's does or further back,
    gives the index of the pass from 0, or is refused where it is."""
    wide = Tolerances(crossing=0.8)
    mus = 1.0 + 0.07 * np.arange(10)
    S = np.diag(np.concatenate([np.resize([1.0, -1.0], 10) * mus] * 2))
    freqs = _imaginary_frequencies(standard_J(10) @ S, wide)
    pairs, vectors = [(mu, V.shape[1]) for mu, V in freqs], dict(freqs)
    full = czindex._Crossings(S, pairs, 60.0, wide)
    horizons = sorted({t + f * wide.crossing for t in full.times for f in (-1, 0, 1)})
    for T in horizons:
        try:
            want = czindex._Crossings(S, pairs, T, wide, vectors=vectors).data().index
        except CrossingDegenerate:
            want = CrossingDegenerate
        for start in (T - wide.crossing, T - 3.0, T / 2):
            late = czindex._Crossings(S, pairs, T, wide, start, vectors=vectors)
            if want is CrossingDegenerate:
                with pytest.raises(CrossingDegenerate):
                    late.data()
            else:
                assert late.data().index == want, (T, start)


_HORIZON_CALLS = {
    "oracle_cz": (lambda T: oracle_cz(7 * np.eye(2), T), ValueError),
    "cz_index_data": (lambda T: cz_index_data(7 * np.eye(2), T), InputError),
    "cz_index_path": (lambda T: cz_index_path(7 * np.eye(2), T), InputError),
    "crossing_times": (lambda T: crossing_times(7 * np.eye(2), T), InputError),
    "window-lo": (lambda T: ActionWindow(T, 9.0), InputError),
    "window-hi": (lambda T: ActionWindow(-1.0, T), InputError),
}


@pytest.mark.parametrize("value", [True, np.True_, "7"], ids=["bool", "numpy-bool", "str"])
@pytest.mark.parametrize("name", list(_HORIZON_CALLS))
def test_a_bool_or_string_horizon_is_refused(name, value):
    """A bool or a string is no horizon and no window end, as a bool is no
    dimension: each is refused, not read as the number float() makes of it
    (True as T = 1, "7" as T = 7)."""
    call, error = _HORIZON_CALLS[name]
    with pytest.raises(error, match="real number"):
        call(value)


@pytest.mark.parametrize("name", list(_HORIZON_CALLS))
def test_a_numpy_scalar_horizon_is_read(name):
    """Numpy integer and float scalars stay accepted, read as the float they hold."""
    call, _ = _HORIZON_CALLS[name]
    assert call(np.float64(7.0)) == call(np.int64(7)) == call(7.0)
