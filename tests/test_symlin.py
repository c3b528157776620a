import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rfhquad
from rfhquad import (
    ExpEvaluator,
    Tolerances,
    build_block,
    kernel_dim,
    normal_form,
    restricted_signature,
    signature,
    spectrum_with_jordan,
    standard_J,
    symplectic_direct_sum,
)
from rfhquad import symlin
from rfhquad.errors import ClusterAmbiguous, DegenerateInput, DegenerateRestriction, InputError
from rfhquad.samples import random_orthosymplectic
from rfhquad.symlin import inertia, sym_matrix


def test_standard_j_one_dof():
    J = standard_J(1)
    assert np.array_equal(J, [[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_standard_j_squares_to_minus_identity(m):
    J = standard_J(m)
    assert np.array_equal(J @ J, -np.eye(2 * m))
    assert np.array_equal(J.T, -J)


def test_sym_matrix_rejects_asymmetric():
    with pytest.raises(InputError):
        sym_matrix([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sym_matrix_rejects_non_finite(bad):
    with pytest.raises(InputError, match="non-finite"):
        sym_matrix([[bad, 0.0], [0.0, 1.0]])


def test_spectrum_diagonal():
    spec = spectrum_with_jordan(np.diag([1.0, -1.0]))
    assert spec.key() == ((-1.0, 0.0, (1,)), (1.0, 0.0, (1,)))


def test_spectrum_jordan_block():
    spec = spectrum_with_jordan(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert spec.key() == ((1.0, 0.0, (2,)),)


def test_spectrum_j_times_hyperbolic_form():
    M = standard_J(1) @ np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = spectrum_with_jordan(M)
    assert spec.key() == ((-1.0, 0.0, (1,)), (1.0, 0.0, (1,)))


def test_spectrum_of_direct_sum_is_union(rng):
    A = rng.normal(size=(4, 4))
    B = rng.normal(size=(2, 2))
    M = np.zeros((6, 6))
    M[:4, :4] = A
    M[4:, 4:] = B
    union = sorted(spectrum_with_jordan(A).key() + spectrum_with_jordan(B).key())
    assert sorted(spectrum_with_jordan(M).key()) == union


def test_spectrum_of_js_is_symmetric(rng):
    # eigenvalues of J S come in {lam, -lam, conj(lam), -conj(lam)} orbits
    for dof in (1, 2, 3):
        R = rng.normal(size=(2 * dof, 2 * dof))
        S = (R + R.T) / 2
        ev = np.linalg.eigvals(standard_J(dof) @ S)
        for lam in ev:
            assert min(abs(ev + lam)) < 1e-8 * max(1.0, abs(lam))


def _count_calls(monkeypatch):
    """Count the Schur forms and SVDs that symlin takes."""
    calls = {"schur": 0, "svd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(symlin.scipy.linalg, "schur", counted("schur", symlin.scipy.linalg.schur))
    monkeypatch.setattr(symlin.np.linalg, "svd", counted("svd", symlin.np.linalg.svd))
    return calls


def test_spectrum_of_simple_eigenvalues_takes_no_rank_decision(rng, monkeypatch):
    """Separated frequencies and Jordan-size-1 hyperbolic blocks, conjugated:
    every cluster is a singleton, so no Schur form and no SVD is taken."""
    blocks = [build_block("c", 1, 1j * mu, 1) for mu in (1.1, 1.4, 1.8)]
    blocks += [build_block("a", 1, 0.7), build_block("b", 1, 0.5 + 1.2j)]
    A = normal_form(blocks).matrix
    U = random_orthosymplectic(rng, A.shape[0] // 2)
    calls = _count_calls(monkeypatch)
    spec = spectrum_with_jordan(standard_J(6) @ (U @ A @ U.T))
    assert calls == {"schur": 0, "svd": 0}
    assert len(spec.items) == 12
    assert all(it.block_sizes == (1,) for it in spec.items)


def test_spectrum_of_conjugated_jordan_block_takes_one_schur_form(rng, monkeypatch):
    """The two rings (+1.5 and -1.5) of a conjugated ('a', 2) block share
    one Schur form, each read off its own reordered leading block."""
    A = build_block("a", 2, 1.5).matrix
    U = random_orthosymplectic(rng, 2)
    calls = _count_calls(monkeypatch)
    spec = spectrum_with_jordan(standard_J(2) @ (U @ A @ U.T))
    assert calls["schur"] == 1
    assert spec.key() == ((-1.5, 0.0, (2,)), (1.5, 0.0, (2,)))


def test_spectrum_refuses_ill_conditioned_singleton():
    """An eigenvalue whose condition number reaches the ring cap and that
    found no partner is refused, not placed as a simple eigenvalue."""
    M = np.array([[1.0, 1e12], [0.0, 1.0 + 1e-3]])
    with pytest.raises(ClusterAmbiguous, match="ill-conditioned"):
        spectrum_with_jordan(M)


def _exp(M, t):
    """exp(t M) at one point, through the evaluator."""
    return ExpEvaluator(M).at([t])[0]


def test_matrix_exp_zero_is_identity():
    assert np.allclose(_exp(np.zeros((2, 2)), 5.0), np.eye(2))


def test_matrix_exp_rotation_quarter_turn():
    got = _exp(standard_J(1), np.pi / 2)
    assert np.allclose(got, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


def test_matrix_exp_diagonal():
    got = _exp(np.diag([1.0, -1.0]), 1.0)
    assert np.allclose(got, np.diag([np.e, 1.0 / np.e]))


@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 10_000))
def test_matrix_exp_group_law(s, t, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(4, 4))
    M *= 2.0 / max(1.0, np.linalg.norm(M, 2))
    E_s, E_t, E_st = ExpEvaluator(M).at([s, t, s + t])
    assert np.allclose(E_st, E_s @ E_t, rtol=1e-8, atol=1e-8)


def test_exp_evaluator_falls_back_on_a_jordan_block():
    ev = ExpEvaluator([[0.0, 1.0], [0.0, 0.0]])
    assert not ev.fast
    assert np.array_equal(ev.at([0.0, 2.0]), [np.eye(2), [[1.0, 2.0], [0.0, 1.0]]])


@pytest.mark.parametrize("ts", [[np.nan], [1.0, np.inf], [[1.0]], 1.0])
def test_exp_evaluator_rejects_bad_times(ts):
    with pytest.raises(InputError, match="times"):
        ExpEvaluator(np.eye(2)).at(ts)


def test_expm_only_in_the_evaluator():
    """One exponential path: scipy's expm is named in the package only
    inside ExpEvaluator, as its fallback."""
    src = Path(rfhquad.__file__).parent
    tree = ast.parse((src / "symlin.py").read_text())
    (ev,) = [node for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == "ExpEvaluator"]
    hits = [(path.name, no) for path in sorted(src.rglob("*.py"))
            for no, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\bexpm\b", line)]
    assert hits
    assert all(name == "symlin.py" and ev.lineno <= no <= ev.end_lineno for name, no in hits), hits


def test_restricted_signature_only_in_the_frequency_signer():
    """One signing path for the index: czindex names restricted_signature
    only inside _Crossings's per-frequency signer."""
    tree = ast.parse((Path(rfhquad.__file__).parent / "czindex.py").read_text())
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "_Crossings"]
    (signer,) = [node for node in cls.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_frequency_signature"]
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "restricted_signature"
            or isinstance(node, ast.Attribute) and node.attr == "restricted_signature"]
    assert uses
    assert all(signer.lineno <= no <= signer.end_lineno for no in uses), uses


def test_kernel_dim_zero_matrix():
    assert kernel_dim(np.zeros((2, 2))) == 2


def test_kernel_dim_full_period():
    M = _exp(standard_J(1) @ np.diag([1.0, 1.0]), 2 * np.pi) - np.eye(2)
    assert kernel_dim(M) == 2


def test_kernel_dim_hyperbolic_return_map():
    M = _exp(standard_J(1) @ np.array([[0.0, 1.0], [1.0, 0.0]]), 2 * np.pi) - np.eye(2)
    assert kernel_dim(M) == 0


def test_kernel_dim_of_a_stack():
    """One nullity per matrix, each as if the matrix came alone."""
    JA = standard_J(2) @ np.diag([1.0, 2.0, 1.0, 2.0])
    stack = ExpEvaluator(JA).at([np.pi, 2 * np.pi, 1.0]) - np.eye(4)
    assert kernel_dim(stack).tolist() == [2, 4, 0]
    assert [kernel_dim(M) for M in stack] == [2, 4, 0]
    assert kernel_dim(np.zeros((0, 3, 3))).shape == (0,)


def test_signature_examples():
    assert signature(np.eye(2)) == 2
    assert signature(np.diag([1.0, -1.0])) == 0
    assert inertia(np.diag([2.0, -1.0, -1.0])) == (1, 2)


def test_signature_degenerate_raises():
    with pytest.raises(DegenerateInput):
        signature(np.diag([1.0, 0.0]))


def test_restricted_signature_examples():
    assert restricted_signature(np.eye(2), np.eye(2)) == 2
    assert restricted_signature(np.diag([1.0, -1.0]), np.eye(2)) == 0
    S = np.diag([1.0, 1.0, 2.0, 2.0])
    B = np.zeros((4, 2))
    B[1, 0] = 1.0
    B[3, 1] = 1.0
    assert restricted_signature(S, B) == 2


def test_restricted_signature_basis_invariance(rng):
    S = rng.normal(size=(6, 6))
    S = (S + S.T) / 2 + 6 * np.eye(6)
    B = rng.normal(size=(6, 3))
    G = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    assert restricted_signature(S, B) == restricted_signature(S, B @ G)


def test_restricted_signature_vanishing_form_raises():
    # the plane span(e1, e2) is isotropic for this form
    S = np.zeros((4, 4))
    S[0, 2] = S[2, 0] = 1.0
    S[1, 3] = S[3, 1] = 1.0
    B = np.eye(4)[:, :2]
    with pytest.raises(DegenerateRestriction):
        restricted_signature(S, B)


def test_restricted_signature_dependent_basis_raises():
    B = np.ones((4, 2))
    with pytest.raises(InputError):
        restricted_signature(np.eye(4), B)


def test_symplectic_direct_sum_interleaves():
    A0 = np.diag([1.0, 1.0])
    A1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    full = symplectic_direct_sum(A0, A1)
    assert full.shape == (4, 4)
    # spectra of J_n (A0 (+) A1) = union over the parts
    ev_full = np.linalg.eigvals(standard_J(2) @ full)
    ev_parts = np.concatenate([
        np.linalg.eigvals(standard_J(1) @ A0),
        np.linalg.eigvals(standard_J(1) @ A1),
    ])
    assert np.allclose(sorted(ev_full, key=lambda z: (z.real, z.imag)),
                       sorted(ev_parts, key=lambda z: (z.real, z.imag)), atol=1e-12)
    assert signature(full) == signature(A0) + signature(A1)


def test_tolerances_reject_nonpositive():
    with pytest.raises(InputError):
        Tolerances(eig_cluster=0.0)
    with pytest.raises(InputError):
        Tolerances(rank_cut=-1e-9)
