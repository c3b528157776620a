import ast
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import rfhquad
from rfhquad import (
    ExpEvaluator,
    Spectrum,
    Tolerances,
    build_block,
    kernel_dim,
    normal_form,
    signature,
    spectrum_with_jordan,
    standard_J,
    symplectic_direct_sum,
)
from rfhquad import symlin
from rfhquad.errors import ClusterAmbiguous, DegenerateInput, DegenerateRestriction, InputError
from rfhquad.samples import random_hyperbolic_blocks, random_orthosymplectic, random_symplectic
from rfhquad.symlin import DEFAULT_TOL, _krein_signature, hamiltonian_orbits, inertia, sym_matrix


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

    # symlin imports scipy.linalg where it takes its first Schur form and
    # reads schur off the module then, so the patch goes on scipy itself
    monkeypatch.setattr(scipy.linalg, "schur", counted("schur", scipy.linalg.schur))
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


def _orbits(M, tol=Tolerances()) -> list:
    """(kind, eigenvalue) of each orbit of the Jordan spectrum of M."""
    return [(kind, it.eigenvalue) for kind, it in hamiltonian_orbits(M, spectrum_with_jordan(M), tol)]


def test_hamiltonian_orbits_reads_one_item_per_orbit():
    """One (kind, item) per orbit, in the spectrum's order: the item with
    Re <= 0 unless it is on the imaginary axis and Im <= 0 unless it is on
    the real axis; its mirrors are skipped.  An item is on an axis when M
    lies within backward error eig_cluster * 1.4 of a matrix with that
    axis point as an eigenvalue.  At the default cut the quadruple 5e-6
    off the imaginary axis is 'b' and the pair +-1e-6 is 'a'; read at
    eig_cluster = 1e-5 (the spectrum clustered at the default), the
    quadruple is two 'c' items at -1.4 i and the pair one 'zero' orbit.  The pair +-1e-9 i lies on both axes at the
    default cut and is one 'zero' orbit too."""
    b = 0.3 + 0.7j
    blocks = [build_block("a", 1, 0.5), build_block("b", 1, b), build_block("c", 1, 1.2j, 1),
              build_block("b", 1, 5e-6 + 1.4j), build_block("a", 1, 1e-6)]
    M = standard_J(7) @ normal_form(blocks).matrix
    want = [("a", -0.5), ("b", -b), ("b", -5e-6 - 1.4j), ("a", -1e-6), ("c", -1.2j)]
    assert _orbits(M) == [(kind, pytest.approx(lam, abs=1e-12)) for kind, lam in want]
    want = [("a", -0.5), ("b", -b), ("c", -5e-6 - 1.4j), ("zero", -1e-6), ("c", -1.2j),
            ("c", 5e-6 - 1.4j)]
    assert _orbits(M, Tolerances(eig_cluster=1e-5)) == [
        (kind, pytest.approx(lam, abs=1e-12)) for kind, lam in want]
    M = standard_J(2) @ normal_form([build_block("c", 1, 1.4j, 1),
                                     build_block("c", 1, 1e-9j, 1)]).matrix
    assert _orbits(M) == [("c", pytest.approx(-1.4j)), ("zero", pytest.approx(-1e-9j, abs=1e-20))]
    assert hamiltonian_orbits(np.zeros((0, 0)), Spectrum(())) == ()


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


def test_krein_signature_only_in_the_two_signers():
    """One signer for crossing forms and Krein splits: the package names
    _krein_signature, which takes |S|_2 from its caller, only inside
    _Crossings's per-frequency signer and hormander's Krein split, each on
    its own item's eigenvectors; no public krein_signature wraps it."""
    signers = {"czindex.py": "_frequency_signature", "hormander.py": "_krein_split"}
    names = ("krein_signature", "_krein_signature")
    uses = []
    for path in sorted(Path(rfhquad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        spans = [(node.lineno, node.end_lineno) for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == signers.get(path.name)]
        uses += [(path.name, any(lo <= node.lineno <= hi for lo, hi in spans))
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and node.id in names
                 or isinstance(node, ast.Attribute) and node.attr in names]
    assert {name for name, _ in uses} == set(signers)
    assert all(inside for _, inside in uses), uses


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


def _inertia_one_at_a_time(S):
    """Reference for the stacked inertia: ``sym_matrix``, then one eigvalsh
    and the rank cut on this matrix alone; a refusal comes back as
    (exception type, message)."""
    try:
        S = sym_matrix(S)
        w = np.linalg.eigvalsh(S)
        amax = float(np.abs(w).max())
        if amax == 0.0:
            raise DegenerateInput("form is identically zero")
        if np.any(np.abs(w) <= DEFAULT_TOL.rank_cut * amax):
            raise DegenerateInput("form has a numerical kernel")
    except (InputError, DegenerateInput) as exc:
        return type(exc), str(exc)
    p = int(np.count_nonzero(w > 0))
    return (p, len(w) - p)


_PLANTS = ("none", "kernel", "zero", "skew", "roundoff skew", "nan", "inf")


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5),
       plants=st.lists(st.sampled_from(_PLANTS), min_size=1, max_size=6))
def test_stacked_inertia_decides_each_matrix_alone(seed, d, plants):
    """Each matrix of a stack gets the inertia, or the refusal, that the
    one-matrix route gives it, whatever else the stack holds."""
    rng = np.random.default_rng(seed)
    stack = []
    for plant in plants:
        X = rng.standard_normal((d, d))
        S = X + X.T
        if plant == "kernel":
            w, Q = np.linalg.eigh(S)
            w[rng.integers(d)] = 0.0
            S = (Q * w) @ Q.T
        elif plant == "zero":
            S = np.zeros((d, d))
        elif plant in ("skew", "roundoff skew") and d > 1:
            S[0, 1] += 1e-6 if plant == "skew" else 1e-15
        elif plant in ("nan", "inf"):
            S[rng.integers(d), rng.integers(d)] = np.nan if plant == "nan" else -np.inf
        stack.append(S)
    got = [pq if isinstance(pq, tuple) else (type(pq), str(pq))
           for pq in symlin._inertias(np.stack(stack), DEFAULT_TOL)]
    assert got == [_inertia_one_at_a_time(S) for S in stack]
    for S, want in zip(stack, got):
        if isinstance(want[0], int):
            assert inertia(S) == want
        else:
            with pytest.raises(want[0], match=want[1]):
                inertia(S)


def test_stacked_inertia_of_empty_matrices():
    assert symlin._inertias(np.zeros((3, 0, 0)), DEFAULT_TOL) == [(0, 0)] * 3
    assert inertia(np.zeros((0, 0))) == (0, 0)


def test_singleton_items_are_columns_of_v(rng):
    """A singleton item carries exactly its eigenvector column of the one
    eigendecomposition of M."""
    A = normal_form([build_block("c", 1, 1.0j, gamma=1), build_block("c", 1, 1.0j, gamma=1),
                     build_block("a", 1, 0.6), build_block("b", 1, 0.5 + 1.5j)]).matrix
    U = random_orthosymplectic(rng, 5)
    M = standard_J(5) @ (U @ A @ U.T)
    w, V = np.linalg.eig(M)
    spec = spectrum_with_jordan(M)
    singletons = [it for it in spec.items if it.block_sizes == (1,)]
    assert len(singletons) == 6 and len(spec.items) == 8
    for it in singletons:
        (i,) = np.flatnonzero(w == it.eigenvalue)
        assert np.array_equal(it.vectors, V[:, i:i + 1])
        assert it.vectors.shape == (10, 1)


def _eigenvectors(S, mu):
    """The eigenvectors the Jordan spectrum of J S gives its item at i mu."""
    (item,) = [it for it in spectrum_with_jordan(standard_J(len(S) // 2) @ S).items
               if abs(it.eigenvalue - 1j * mu) < 1e-6]
    return item.vectors


def _krein(S, V):
    """The Krein signer against |S|_2 at the default tolerances."""
    return _krein_signature(S, V, np.linalg.norm(S, 2), DEFAULT_TOL)


def test_krein_signature_examples():
    """2 sgn(V^H S V): +-2 for each eigenvector by its Krein sign, summed
    over a frequency that two blocks share."""
    assert _krein(np.eye(2), _eigenvectors(np.eye(2), 1.0)) == 2
    S = np.diag([1.0, -2.0, 1.0, -2.0])
    assert _krein(S, _eigenvectors(S, 1.0)) == 2
    assert _krein(S, _eigenvectors(S, 2.0)) == -2
    S = np.diag([1.0, -1.0, 1.0, -1.0])
    assert _eigenvectors(S, 1.0).shape == (4, 2)
    assert _krein(S, _eigenvectors(S, 1.0)) == 0
    assert _krein(np.eye(4), _eigenvectors(np.eye(4), 1.0)) == 4


def test_krein_signature_vanishing_form_raises():
    """The eigenvector of a (c, 2) block is S-null: the form vanishes on
    its eigenspace, and comes back as roundoff that the signer refuses."""
    S = build_block("c", 2, 1.0j, gamma=1).matrix
    V = _eigenvectors(S, 1.0)
    assert V.shape == (4, 1)
    with pytest.raises(DegenerateRestriction):
        _krein(S, V)


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


def _axis_reference(A, tol) -> list:
    """imaginary_axis_eigenvalues with its scale |A|_2 read by eigvalsh on
    every call and J A formed by a product with standard_J."""
    JA = standard_J(A.shape[0] // 2) @ A
    scale = max(1.0, float(np.abs(np.linalg.eigvalsh(A)).max()))
    return [complex(z) for z in np.linalg.eigvals(JA)
            if symlin._on_axis(JA, 1j * z.imag, abs(z.real), scale, tol)]


def _axis_draws():
    """Hyperbolic normal forms and imaginary Jordan blocks of size 1-9,
    each conjugated by an orthosymplectic and by a symplectic map."""
    for seed in range(6):
        rng = np.random.default_rng([35, seed])
        dof = 1 + seed % 4
        forms = [random_hyperbolic_blocks(rng, dof).matrix]
        forms += [build_block("c", m, 1j * (1 + seed / 4), 1).matrix for m in range(1, 10)]
        for B in forms:
            m = B.shape[0] // 2
            U, P = random_orthosymplectic(rng, m), random_symplectic(rng, m, magnitude=0.4)
            for A in (U @ B @ U.T, P.T @ B @ P):
                yield (A + A.T) / 2


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerances(eig_cluster=1e-3),
                                 Tolerances(eig_cluster=0.05)], ids=["default", "1e-3", "0.05"])
def test_axis_shortcut_matches_the_exact_scale(tol):
    """Skipping eigvalsh when every eigenvalue of J A lies past max(_REACH,
    eig_cluster) * max(1, |A|_F) off the axis changes no answer: on every
    draw the list equals the reference that always reads |A|_2."""
    draws = list(_axis_draws())
    assert len(draws) == 120
    for i, A in enumerate(draws):
        assert symlin.imaginary_axis_eigenvalues(A, tol) == _axis_reference(A, tol), i


def test_axis_scale_is_read_between_the_two_norms(monkeypatch):
    """An eigenvalue 0.04 off the axis, with |A|_2 = 3 and |A|_F = 4.69,
    lies past _REACH * |A|_2 but within _REACH * |A|_F: the exact scale is
    read, by one eigvalsh, and places nothing on the axis.  Move the
    quadruple to 0.3 off and no eigvalsh runs."""
    calls = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for re, reads in ((0.04, [(6, 6)]), (0.3, [])):
        A = symplectic_direct_sum(build_block("a", 1, 3.0).matrix,
                                  build_block("b", 1, re + 1j).matrix)
        if reads:
            assert symlin._REACH * np.linalg.norm(A, 2) < re <= symlin._REACH * np.linalg.norm(A)
        calls.clear()
        assert symlin.imaginary_axis_eigenvalues(A) == [], re
        assert calls == reads, re
        assert _axis_reference(A, DEFAULT_TOL) == []


@pytest.mark.parametrize("name", ["eig_cluster", "rank_cut", "crossing"])
def test_tolerances_refuse_a_bool(name):
    """True is an int to Python but no tolerance; a numpy float is one."""
    with pytest.raises(InputError, match=f"tolerance {name} must be"):
        Tolerances(**{name: True})
    assert getattr(Tolerances(**{name: np.float64(1e-8)}), name) == 1e-8
