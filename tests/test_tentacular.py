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


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("conjugation", ["orthosymplectic", "symplectic"])
def test_validate_detects_a_conjugated_defective_imaginary_a1(m, conjugation):
    """A conjugated imaginary block of Jordan size m scatters the raw
    eigenvalues of J A1 about eps^(1/m) off the axis, past the
    eig_cluster margin: the Jordan spectrum of J A1 still finds them on
    it, so A1 is not hyperbolic and the census refuses H, on every draw."""
    B = build_block("c", m, 1j, 1).matrix
    for seed in range(5):
        rng = np.random.default_rng(seed)
        if conjugation == "orthosymplectic":
            U = random_orthosymplectic(rng, m)
            A1 = U @ B @ U.T
        else:
            P = random_symplectic(rng, m, magnitude=0.4)
            A1 = P.T @ B @ P
        H = QuadraticHamiltonian(m + 1, 1, np.eye(2), (A1 + A1.T) / 2)
        report = validate(H)
        assert not report.hyperbolic, seed
        assert all(abs(abs(z) - 1.0) < 1e-4 and abs(z.real) < 1e-4
                   for z in report.offending["a1_flow_eigenvalues"]), seed
        with pytest.raises(InputError, match="fails validation"):
            generator_census(H, ActionWindow(-10.0, 10.0))


@pytest.mark.parametrize("conjugation", ["orthosymplectic", "symplectic"])
def test_validate_reports_a_ring_too_wide_to_place(conjugation):
    """A conjugated imaginary block of Jordan size 4 scatters the raw
    eigenvalues of J A1 about eps^(1/4) ~ 1.2e-4 off the axis, wider than
    the Jordan spectrum joins: it raises ClusterAmbiguous, and validate
    reports the raw eigenvalues near the axis instead, so A1 is not
    hyperbolic and the census refuses H, on every draw."""
    B = build_block("c", 4, 1j, 1).matrix
    for seed in range(5):
        rng = np.random.default_rng(seed)
        if conjugation == "orthosymplectic":
            U = random_orthosymplectic(rng, 4)
            A1 = U @ B @ U.T
        else:
            P = random_symplectic(rng, 4, magnitude=0.4)
            A1 = P.T @ B @ P
        A1 = (A1 + A1.T) / 2
        with pytest.raises(ClusterAmbiguous):
            spectrum_with_jordan(standard_J(4) @ A1)
        H = QuadraticHamiltonian(5, 1, np.eye(2), A1)
        report = validate(H)
        reach = 1e-4 * np.linalg.norm(A1, 2)
        assert not report.hyperbolic, seed
        assert all(abs(abs(z) - 1.0) < 1e-3 and abs(z.real) <= reach
                   for z in report.offending["a1_flow_eigenvalues"]), seed
        with pytest.raises(InputError, match="fails validation"):
            generator_census(H, ActionWindow(-10.0, 10.0))


def test_validate_margin_follows_eig_cluster():
    """A quadruple 5e-4 off the imaginary axis is hyperbolic at the default
    tolerances, and on the axis once eig_cluster = 1e-3 sets the margin,
    which lies beyond the reach of the Jordan-spectrum fallback."""
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
