import numpy as np
import pytest

from rfhquad import (
    ActionWindow,
    QuadraticHamiltonian,
    Tolerances,
    build_block,
    classify,
    generator_census,
    normal_form,
    rfh_report,
    spectrum_with_jordan,
    tentacular_check,
    validate,
)
from rfhquad.errors import ClusterAmbiguous, InputError
from rfhquad.samples import random_orthosymplectic, random_symplectic
from rfhquad.symlin import standard_J


def test_validate_passes(h21):
    report = validate(h21)
    assert report.all_ok
    assert report.positive_definite and report.hyperbolic and report.k_in_range
    assert report.frequencies_match is True
    assert report.offending == {}


def test_validate_detects_nonhyperbolic_a1():
    H = QuadraticHamiltonian(2, 1, np.diag([1.0, 1.0]), np.diag([1.0, 1.0]))
    report = validate(H)
    assert not report.all_ok
    assert not report.hyperbolic
    assert "a1_flow_eigenvalues" in report.offending


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("conjugation", ["orthosymplectic", "orthosymplectic_transpose", "symplectic"])
def test_validate_detects_a_conjugated_defective_imaginary_a1(m, conjugation):
    """A conjugated imaginary block of Jordan size m (U B U^T or U^T B U with
    U orthosymplectic, P^T B P with P symplectic) scatters the raw
    eigenvalues of J A1 about eps^(1/m) off the axis, past the cut
    eig_cluster * |A1|_2 (within 10 eps^(1/m) here), but J A1 stays within
    roundoff in backward error of a matrix with each eigenvalue's
    imaginary part as an eigenvalue: all 2m are on the axis, so A1 is not
    hyperbolic and the census refuses H, on every draw.  At m = 4 the
    scatter is mostly wider than the Jordan spectrum joins (it raises
    ClusterAmbiguous on seeds 0-4; U B U^T at seed 5 joins), and validate
    does not read it."""
    B = build_block("c", m, 1j, 1).matrix
    scatter = 10 * np.finfo(float).eps ** (1 / m)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        if conjugation == "symplectic":
            P = random_symplectic(rng, m, magnitude=0.4)
            A1 = P.T @ B @ P
        else:
            U = random_orthosymplectic(rng, m)
            A1 = U @ B @ U.T if conjugation == "orthosymplectic" else U.T @ B @ U
        H = QuadraticHamiltonian(m + 1, 1, np.eye(2), A1)
        if m == 4 and seed < 5:
            with pytest.raises(ClusterAmbiguous):
                spectrum_with_jordan(standard_J(m) @ H.a1)
        report = validate(H)
        assert not report.hyperbolic, seed
        on_axis = report.offending["a1_flow_eigenvalues"]
        assert len(on_axis) == 2 * m, seed
        assert all(abs(abs(z) - 1.0) < scatter and abs(z.real) < scatter for z in on_axis), seed
        with pytest.raises(InputError, match="fails validation"):
            generator_census(H, ActionWindow(-10.0, 10.0))


def test_validate_margin_follows_eig_cluster():
    """A quadruple 5e-4 off the imaginary axis is hyperbolic at the default
    tolerances, where J A1 lies 5e-4 in backward error from a
    matrix with an eigenvalue on the axis, and on it once eig_cluster =
    1e-3 sets the cut, which the eigenvalue's own distance 5e-4 from the
    axis meets without an SVD."""
    H = QuadraticHamiltonian(3, 1, np.eye(2), build_block("b", 1, 5e-4 + 1j).matrix)
    assert validate(H).hyperbolic
    assert not validate(H, Tolerances(eig_cluster=1e-3)).hyperbolic


def test_validate_detects_k_out_of_range():
    H = QuadraticHamiltonian(2, 2, np.diag([1.0, 1.0, 2.0, 2.0]), np.zeros((0, 0)))
    report = validate(H)
    assert not report.k_in_range
    assert not report.all_ok


def test_validate_detects_indefinite_a0():
    a0 = np.diag([1.0, -1.0])
    H = QuadraticHamiltonian(2, 1, a0, np.array([[0.0, 1.0], [1.0, 0.0]]))
    report = validate(H)
    assert not report.positive_definite


def test_validate_checks_declared_frequencies():
    H = QuadraticHamiltonian(2, 1, np.diag([1.0, 1.0]),
                             np.array([[0.0, 1.0], [1.0, 0.0]]),
                             frequencies=(2.0,))
    report = validate(H)
    assert report.frequencies_match is False
    assert not report.all_ok


def test_construction_shape_errors():
    with pytest.raises(InputError):
        QuadraticHamiltonian(2, 1, np.eye(3), np.eye(2))
    with pytest.raises(InputError):
        QuadraticHamiltonian(2, 3, np.eye(2), np.eye(2))
    with pytest.raises(InputError):
        QuadraticHamiltonian.from_frequencies(2, 1, [-1.0], np.eye(2))


def test_construction_refuses_bool_dimensions():
    """A bool is an int to Python but no dimension: H(2, True) would pass
    validation and reach the census as k = 1, with k = True in its records."""
    a1 = build_block("a", 1, 1.0).matrix
    with pytest.raises(InputError, match="k must lie"):
        QuadraticHamiltonian(2, True, np.eye(2), a1)
    with pytest.raises(InputError, match="n must be"):
        QuadraticHamiltonian(True, 0, np.zeros((0, 0)), a1)
    with pytest.raises(InputError, match="k must lie"):
        QuadraticHamiltonian.from_frequencies(2, True, [1.0], a1)


def test_full_matrix_interleaves_parts(h31):
    full = h31.full_matrix
    assert full.shape == (6, 6)
    assert np.allclose(full, full.T)
    ev_full = sorted(np.linalg.eigvalsh(full))
    ev_parts = sorted(np.concatenate([
        np.linalg.eigvalsh(h31.a0), np.linalg.eigvalsh(h31.a1)]))
    assert np.allclose(ev_full, ev_parts)


def test_sufficient_conditions_per_block():
    good = tentacular_check(normal_form([build_block("a", 1, 1.0)]))
    assert good.sufficient
    assert good.trace[0].case == "m=1" and good.trace[0].margin > 0

    shallow = tentacular_check(normal_form([build_block("a", 2, 0.5)]))
    assert not shallow.sufficient
    assert shallow.trace[0].case == "m=2" and shallow.trace[0].margin < 0

    deep = tentacular_check(normal_form([build_block("a", 3, 2.5)]))
    assert deep.sufficient
    assert deep.trace[0].case == "m>2"


def test_verdict_labels():
    ok = tentacular_check(normal_form([build_block("a", 1, 1.0)]))
    assert "sufficient" in ok.label
    bad = tentacular_check(normal_form([build_block("a", 2, 0.5)]))
    assert "undecided" in bad.label


def test_one_failing_block_spoils_the_verdict():
    nf = normal_form([build_block("a", 1, 1.0), build_block("a", 2, 0.5)])
    verdict = tentacular_check(nf)
    assert not verdict.sufficient
    assert [c.passed for c in sorted(verdict.trace, key=lambda c: c.m)] == [True, False]


def test_scaling_preserves_sufficiency(rng):
    # growing |Re lam| only increases every margin
    for _ in range(10):
        m = int(rng.integers(1, 4))
        lam = float(rng.uniform(2.05, 3.0))
        base = tentacular_check(normal_form([build_block("a", m, lam)]))
        scaled = tentacular_check(normal_form([build_block("a", m, 2.0 * lam)]))
        assert base.sufficient and scaled.sufficient
        assert scaled.trace[0].margin > base.trace[0].margin


def test_validation_invariant_under_orthosymplectic_moves(rng, h31):
    U0 = random_orthosymplectic(rng, h31.k)
    U1 = random_orthosymplectic(rng, h31.n - h31.k)
    moved = QuadraticHamiltonian(h31.n, h31.k,
                                 U0 @ h31.a0 @ U0.T,
                                 U1 @ h31.a1 @ U1.T)
    assert validate(moved).all_ok


def test_homology_needs_only_validation():
    """A block failing the sufficient conditions still yields homology."""
    a1 = build_block("a", 2, 0.5).matrix
    H = QuadraticHamiltonian.from_frequencies(3, 1, [1.0], a1)
    assert validate(H).all_ok
    assert not tentacular_check(classify(H.a1)).sufficient
    report = rfh_report(H)
    assert report.full == {-2: 1, -1: 1}
