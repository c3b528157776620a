import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfhquad import (
    Tolerances,
    block_signature,
    build_block,
    classify,
    normal_form,
    signature,
    standard_J,
    symplectic_direct_sum,
)
from rfhquad.errors import (
    ClusterAmbiguous,
    GammaUndetermined,
    IncompatibleEigenvalue,
    InputError,
)
from rfhquad.hormander import assemble
from rfhquad.samples import (
    random_hamiltonian,
    random_hyperbolic_blocks,
    random_orthosymplectic,
    random_symplectic,
)


def test_build_real_pair_block():
    blk = build_block("a", 1, 1.0)
    assert np.array_equal(blk.matrix, [[0.0, 1.0], [1.0, 0.0]])


def test_build_elliptic_block():
    blk = build_block("c", 1, 0.7j, gamma=1)
    assert np.allclose(blk.matrix, np.diag([0.7, 0.7]))
    neg = build_block("c", 1, 0.7j, gamma=-1)
    assert np.allclose(neg.matrix, -np.diag([0.7, 0.7]))


def test_build_real_pair_jordan_two():
    blk = build_block("a", 2, 3.0)
    B = np.array([[3.0, 0.0], [1.0, 3.0]])
    expect = np.block([[np.zeros((2, 2)), B], [B.T, np.zeros((2, 2))]])
    assert np.array_equal(blk.matrix, expect)


def test_block_eigenvalues_match_request():
    # J A must carry the requested eigenvalue with Jordan size m
    for kind, m, lam, gamma in [
        ("a", 2, 3.0, None),
        ("b", 1, 0.5 + 1.2j, None),
        ("c", 1, 0.7j, 1),
    ]:
        blk = build_block(kind, m, lam, gamma)
        dof = blk.matrix.shape[0] // 2
        ev = np.linalg.eigvals(standard_J(dof) @ blk.matrix)
        assert min(abs(ev - complex(blk.lam))) < 1e-8


def test_block_signatures():
    assert block_signature(build_block("a", 2, 3.0)) == (2, 2)
    assert block_signature(build_block("c", 1, 1.0j, gamma=1)) == (2, 0)
    assert block_signature(build_block("c", 1, 1.0j, gamma=-1)) == (0, 2)
    assert block_signature(build_block("b", 1, 0.5 + 1.0j)) == (2, 2)


def test_build_block_input_errors():
    with pytest.raises(InputError):
        build_block("d", 1, 1.0)
    with pytest.raises(InputError):
        build_block("a", 0, 1.0)
    with pytest.raises(InputError):
        build_block("c", 1, 1.0j)  # gamma required
    with pytest.raises(IncompatibleEigenvalue):
        build_block("a", 1, 1.0j)  # real pair wants a real eigenvalue
    with pytest.raises(IncompatibleEigenvalue):
        build_block("c", 1, 1.0 + 1.0j, gamma=1)


@pytest.mark.parametrize("kind, lam, gamma", [
    ("a", float("nan"), None),
    ("a", float("inf"), None),
    ("b", complex(1.0, float("nan")), None),
    ("c", complex(0.0, float("inf")), 1),
])
def test_build_block_rejects_non_finite_eigenvalue(kind, lam, gamma):
    with pytest.raises(InputError, match="finite"):
        build_block(kind, 1, lam, gamma)


def test_classify_elliptic():
    nf = classify(np.diag([0.7, 0.7]))
    assert len(nf.blocks) == 1
    b = nf.blocks[0]
    assert (b.kind, b.m, b.gamma) == ("c", 1, 1)
    assert abs(b.lam - 0.7j) < 1e-9


def test_classify_hyperbolic_pair():
    nf = classify(np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = nf.blocks[0]
    assert (b.kind, b.m, abs(b.lam.real)) == ("a", 1, 1.0)


def test_classify_two_frequencies():
    nf = classify(np.diag([1.0, 2.0, 1.0, 2.0]))
    keys = sorted((b.kind, b.m, round(b.lam.imag, 9), b.gamma) for b in nf.blocks)
    assert keys == [("c", 1, 1.0, 1), ("c", 1, 2.0, 1)]


@pytest.mark.parametrize("blocks", [
    [("a", 1, 0.8, None)],
    [("a", 3, 2.2, None)],
    [("b", 1, 0.5 + 1.3j, None), ("a", 1, 1.0, None)],
    [("c", 1, 0.9j, -1), ("c", 1, 1.7j, 1), ("a", 2, 1.1, None)],
])
def test_classify_round_trip(blocks):
    built = [build_block(k, m, lam, g) for k, m, lam, g in blocks]
    nf = classify(normal_form(built).matrix)
    got = sorted(b.key() for b in nf.blocks)
    want = sorted(b.key() for b in built)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[0] == w[0] and g[1] == w[1] and g[-1] == w[-1]
        assert abs(complex(g[2], g[3]) - complex(w[2], w[3])) < 1e-7


def test_classify_orthosymplectic_conjugation(rng):
    built = [build_block("c", 1, 0.9j, 1), build_block("a", 1, 1.2)]
    A = normal_form(built).matrix
    U = random_orthosymplectic(rng, A.shape[0] // 2)
    nf = classify(U @ A @ U.T)
    got = sorted((b.kind, b.m, b.gamma) for b in nf.blocks)
    assert got == [("a", 1, None), ("c", 1, 1)]


def test_classify_signature_additivity(rng):
    built = [build_block("a", 2, 1.5), build_block("c", 1, 0.6j, -1)]
    A = normal_form(built).matrix
    total = np.array([0, 0])
    for b in classify(A).blocks:
        total += np.array(block_signature(b))
    p, q = total
    assert p - q == signature(A)
    assert p + q == A.shape[0]


@pytest.mark.parametrize("conjugation", ["orthosymplectic", "symplectic"])
@pytest.mark.parametrize("blocks", [
    [("a", 2, 1.5, None)],
    [("a", 3, 2.5, None)],
    [("b", 2, 1 + 0.7j, None)],
    [("a", 2, 1.0, None), ("a", 1, 0.5, None), ("c", 1, 1.3j, 1)],
], ids=["a2", "a3", "b2", "mix"])
def test_conjugated_jordan_block_is_recovered(blocks, conjugation):
    """The computed eigenvalues of a conjugated defective block split into
    a ring of radius about eps^(1/m), far wider than the cluster radius;
    their condition numbers join them, and classify returns the blocks as
    built on every draw."""
    rng = np.random.default_rng(15)
    built = [build_block(k, m, lam, g) for k, m, lam, g in blocks]
    A = normal_form(built).matrix
    dof = A.shape[0] // 2
    want = sorted(b.key(6) for b in built)
    for _ in range(30):
        if conjugation == "orthosymplectic":
            P = random_orthosymplectic(rng, dof)
        else:
            P = random_symplectic(rng, dof, magnitude=0.1)
        assert sorted(b.key(6) for b in classify(P.T @ A @ P).blocks) == want


@pytest.mark.parametrize("n, seed", [(20, 0), (20, 1), (30, 1), (30, 4)])
def test_classify_large_random_hamiltonian(n, seed):
    """Large sampled Hamiltonians carry many Jordan-size-2 hyperbolic
    blocks; classify returns the elliptic blocks at the frequencies and
    the hyperbolic blocks the sampler built, replayed from the same rng."""
    H = random_hamiltonian(np.random.default_rng(seed), n, n // 3)
    rng = np.random.default_rng(seed)
    k = n // 3
    freqs = np.sort(rng.uniform(0.5, 5.0, size=k))
    built = [build_block("c", 1, 1j * mu, 1) for mu in freqs]
    built += list(random_hyperbolic_blocks(rng, n - k).blocks)
    got = sorted(b.key(6) for b in classify(H.full_matrix).blocks)
    assert got == sorted(b.key(6) for b in built)


def test_classify_gamma_undetermined_for_defective_imaginary():
    blk = build_block("c", 2, 1.0j, gamma=1)
    with pytest.raises(GammaUndetermined):
        classify(blk.matrix)


def test_classify_cluster_collision_reported():
    A = symplectic_direct_sum(
        build_block("a", 1, 1.0).matrix, build_block("a", 1, 1.3).matrix)
    with pytest.raises(ClusterAmbiguous):
        classify(A, Tolerances(eig_cluster=0.5))


def test_assemble_and_normal_form_blocks_sorted():
    blocks = [build_block("c", 1, 1.5j, 1), build_block("a", 1, 0.5)]
    nf = normal_form(blocks)
    assert nf.matrix.shape == (4, 4)
    assert np.array_equal(nf.matrix, assemble(nf.blocks))
    # order must not depend on input order
    nf2 = normal_form(blocks[::-1])
    assert np.array_equal(nf.matrix, nf2.matrix)


@given(st.integers(0, 10_000))
def test_round_trip_random_real_pairs(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    lam = float(rng.uniform(0.3, 2.5))
    blk = build_block("a", m, lam)
    nf = classify(blk.matrix)
    assert [(b.kind, b.m) for b in nf.blocks] == [("a", m)]
    assert abs(abs(nf.blocks[0].lam.real) - lam) < 1e-6
