import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import block_keys
from rfhquad import (
    Spectrum,
    Tolerances,
    block_signatures,
    build_block,
    classify,
    normal_form,
    signature,
    spectrum_with_jordan,
    standard_J,
    symplectic_direct_sum,
)
from rfhquad import hormander
from rfhquad.cli import main
from rfhquad.errors import (
    ClusterAmbiguous,
    DegenerateInput,
    GammaUndetermined,
    IncompatibleEigenvalue,
    InputError,
    InternalError,
    SignatureMismatch,
)
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
    assert block_signatures((build_block("a", 2, 3.0),)) == [(2, 2)]
    assert block_signatures((build_block("c", 1, 1.0j, gamma=1),)) == [(2, 0)]
    assert block_signatures((build_block("c", 1, 1.0j, gamma=-1),)) == [(0, 2)]
    assert block_signatures((build_block("b", 1, 0.5 + 1.0j),)) == [(2, 2)]


def test_planted_wrong_block_raises_signature_mismatch():
    """A 'c' block whose matrix is negated has the closed form of its
    gamma and the numerical signature of the opposite one."""
    good = build_block("b", 1, 0.5 + 1.0j)
    c = build_block("c", 1, 1.0j, gamma=1)
    planted = dataclasses.replace(c, matrix=-c.matrix)
    with pytest.raises(SignatureMismatch, match=r"closed form \(2, 0\) vs numerical \(0, 2\)"):
        block_signatures((planted,))
    with pytest.raises(SignatureMismatch, match=r"closed form \(2, 0\) vs numerical \(0, 2\)"):
        block_signatures([good, planted])


def test_batched_signatures_decide_each_block_in_order():
    """block_signatures gives each block what it gives that block alone,
    and raises what the first failing block, in order, raises, whichever
    matrix shape that block shares with others."""
    blocks = [build_block("a", 2, 3.0), build_block("c", 1, 1.0j, gamma=1),
              build_block("b", 1, 0.5 + 1.0j), build_block("c", 1, 2.0j, gamma=-1),
              build_block("c", 3, 1.5j, gamma=1), build_block("a", 1, 0.4)]
    assert block_signatures(blocks) == [block_signatures((b,))[0] for b in blocks]
    assert block_signatures([]) == []
    mismatch = dataclasses.replace(blocks[1], matrix=-blocks[1].matrix)  # 2 x 2
    kernel = dataclasses.replace(blocks[0], matrix=np.zeros((4, 4)))  # 4 x 4
    skew = dataclasses.replace(blocks[5], matrix=np.triu(np.ones((2, 2))))  # 2 x 2
    with pytest.raises(SignatureMismatch):
        block_signatures([blocks[2], mismatch, kernel])
    with pytest.raises(DegenerateInput, match="identically zero"):
        block_signatures([blocks[2], kernel, mismatch])
    with pytest.raises(InputError, match="not symmetric"):
        block_signatures([skew, mismatch, kernel])
    with pytest.raises(InputError, match="must be square"):
        block_signatures([blocks[1], dataclasses.replace(blocks[5], matrix=None), kernel])


@pytest.mark.parametrize("kind, m, lam, gamma", [
    ("c", 1, 1.3j, True),
    ("c", 1, 1.3j, 1.0),
    ("a", 1, "1.0", None),
    ("a", 1, True, None),
    pytest.param("a", 1, 10**400, None, id="a-1-10**400-None"),
])
def test_build_block_reads_numbers_by_the_package_rule(kind, m, lam, gamma):
    """gamma is an integer by symlin._is_integer and lam a finite real by
    symlin._is_real or a finite complex: a bool or float gamma and a
    string, bool or huge-int eigenvalue are refused, not converted."""
    with pytest.raises(InputError):
        build_block(kind, m, lam, gamma)


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


def test_build_block_refuses_a_bool_jordan_size():
    """A bool is an int to Python, but no Jordan size."""
    for m in (True, 1.0, "1"):
        with pytest.raises(InputError, match="Jordan size"):
            build_block("a", m, 1.0)


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
    got = block_keys(nf.blocks, 9)
    want = block_keys(built, 9)
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
    p, q = np.sum(block_signatures(classify(A).blocks), axis=0)
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
    want = block_keys(built)
    for _ in range(30):
        if conjugation == "orthosymplectic":
            P = random_orthosymplectic(rng, dof)
        else:
            P = random_symplectic(rng, dof, magnitude=0.1)
        assert block_keys(classify(P.T @ A @ P).blocks) == want


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
    got = block_keys(classify(H.full_matrix).blocks)
    assert got == block_keys(built)


def test_classify_gamma_undetermined_for_defective_imaginary():
    blk = build_block("c", 2, 1.0j, gamma=1)
    with pytest.raises(GammaUndetermined):
        classify(blk.matrix)


def test_classify_cluster_collision_reported():
    A = symplectic_direct_sum(
        build_block("a", 1, 1.0).matrix, build_block("a", 1, 1.3).matrix)
    with pytest.raises(ClusterAmbiguous):
        classify(A, Tolerances(eig_cluster=0.5))


def test_classify_places_a_slow_frequency():
    """A form the SVD test passes (condition 1e8) whose flow has the
    eigenvalues +-1e-8 i: J A lies 1e-8 in backward error from a matrix
    with the eigenvalue 0, past the cut eig_cluster * 1, so they are an
    imaginary pair off 0, an elliptic block of Krein sign +1 beside the
    one at i."""
    blocks = classify(np.diag([1.0, 1e-8, 1.0, 1e-8])).blocks
    assert [(b.kind, b.m, b.gamma) for b in blocks] == [("c", 1, 1), ("c", 1, 1)]
    assert [b.lam for b in blocks] == pytest.approx([1e-8j, 1j], rel=1e-12)


def test_classify_refuses_a_spectrum_missing_a_partner(tmp_path, monkeypatch):
    """A Jordan spectrum of J A with any one item removed is not closed
    under negation and conjugation: classify refuses it as
    ClusterAmbiguous, exit 2 on the CLI, never as InternalError."""
    doc = {"n": 4, "k": 1, "a0": {"frequencies": [1.3]},
           "a1": {"blocks": [{"kind": "a", "m": 1, "re": 0.8},
                             {"kind": "b", "m": 1, "re": 0.4, "im": 0.9}]}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    A = normal_form([build_block("c", 1, 1.3j, 1), build_block("a", 1, 0.8),
                     build_block("b", 1, 0.4 + 0.9j)]).matrix
    full = spectrum_with_jordan(standard_J(4) @ A)
    assert len(full.items) == 8
    for drop in range(8):
        def missing(M, tol, _drop=drop):
            items = spectrum_with_jordan(M, tol).items
            return Spectrum(items[:_drop] + items[_drop + 1:])

        monkeypatch.setattr(hormander, "spectrum_with_jordan", missing)
        with pytest.raises(ClusterAmbiguous, match="not closed"):
            classify(A)
        assert main(["classify", str(path)]) == 2, drop


CLOSE_PAIRS = {
    "a2+a2": [("a", 2, 0.9), ("a", 2, 0.9 + 1e-4)],
    "a2+a1": [("a", 2, 0.9), ("a", 1, 0.90001)],
    "b2+b1": [("b", 2, 0.5 + 0.8j), ("b", 1, 0.50001 + 0.8j)],
}


def _write_a1_doc(tmp_path, a1):
    doc = {"n": a1.shape[0] // 2 + 1, "k": 1, "a0": {"frequencies": [1.3]},
           "a1": {"matrix": a1.tolist()}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("pair", CLOSE_PAIRS.values(), ids=CLOSE_PAIRS.keys())
def test_a_conjugated_close_pair_returns_its_blocks(pair, tmp_path):
    """Two Jordan blocks at eigenvalues 1e-4 or 1e-5 apart, conjugated by
    an orthosymplectic map: classify returns the blocks as built, and
    classify and check answer on the CLI with the pair as a1."""
    built = [build_block(kind, m, lam) for kind, m, lam in pair]
    A = normal_form(built).matrix
    U = random_orthosymplectic(np.random.default_rng(0), A.shape[0] // 2)
    A = U @ A @ U.T
    assert block_keys(classify(A).blocks) == block_keys(built)
    path = _write_a1_doc(tmp_path, A)
    assert main(["classify", path]) == 0
    assert main(["check", path]) == 0


def test_a_close_pair_at_the_scatter_scale_is_refused():
    """At a gap of 1e-8, the eps^(1/2) scatter of a Jordan-size-2 block,
    the two blocks cannot be told apart: the pair is refused."""
    A = normal_form([build_block("a", 2, 0.9), build_block("a", 2, 0.9 + 1e-8)]).matrix
    U = random_orthosymplectic(np.random.default_rng(0), 4)
    with pytest.raises(ClusterAmbiguous):
        classify(U @ A @ U.T)


def _drop_first(orbits):
    return orbits[1:]


def _repeat_first(orbits):
    return orbits + orbits[:1]


@pytest.mark.parametrize("fault", [_drop_first, _repeat_first, "grow"],
                         ids=["drop-orbit", "duplicate-orbit", "grow-block"])
def test_classify_refuses_blocks_that_miss_the_dimension(fault, tmp_path, monkeypatch):
    """An orbit dropped or counted twice, or a kind 'a' block built one
    size too large, leaves blocks that do not span the form: classify
    raises InternalError, exit 3 on the CLI."""
    if fault == "grow":
        build = hormander.build_block

        def grown(kind, m, lam, gamma=None):
            return build(kind, m + (kind == "a"), lam, gamma)

        monkeypatch.setattr(hormander, "build_block", grown)
    else:
        orbits = hormander.hamiltonian_orbits
        monkeypatch.setattr(hormander, "hamiltonian_orbits",
                            lambda M, spec, tol: fault(orbits(M, spec, tol)))
    A = normal_form([build_block("a", 1, 0.8), build_block("b", 1, 0.4 + 0.9j)]).matrix
    with pytest.raises(InternalError, match="dimension"):
        classify(A)
    assert main(["classify", _write_a1_doc(tmp_path, A)]) == 3


def _rotated(diagonal, seed):
    Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(diagonal),) * 2))[0]
    return Q @ np.diag(diagonal) @ Q.T


@pytest.mark.parametrize("A", [
    np.diag([1.0, 0.0, 1.0, 1.0]),
    _rotated([5e-10, 2.5e-10, 1.0, -1.5, 2.0, 3.0], 1),
    _rotated([5e-10, 2.5e-10, 1.0, -1.5, 2.0, 3.0], 4),
], ids=["zero", "near-singular-1", "near-singular-4"])
def test_classify_refuses_a_degenerate_form(A):
    """A form whose smallest singular value is at most rank_cut of its
    largest has no normal form; the SVD check refuses it before J A is
    decomposed (without it, both near-singular draws read as
    ClusterAmbiguous)."""
    with pytest.raises(DegenerateInput, match="degenerate"):
        classify(A)


def test_assemble_and_normal_form_blocks_sorted():
    blocks = [build_block("c", 1, 1.5j, 1), build_block("a", 1, 0.5)]
    nf = normal_form(blocks)
    assert nf.matrix.shape == (4, 4)
    assert np.array_equal(nf.matrix, symplectic_direct_sum(*[b.matrix for b in nf.blocks]))
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
