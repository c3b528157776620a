"""Normal-form blocks for quadratic Hamiltonians and their classification.

A symmetric nondegenerate A on symplectic R^(2n) decomposes, up to a linear
symplectic change of coordinates, into a direct sum of canonical blocks
indexed by the Jordan data of J A.  Three kinds occur:

  kind 'a' : real eigenvalue pair (lam, -lam), lam != 0.  One block per
             Jordan size m; dimension 2m, signature (m, m).
  kind 'b' : quadruple (lam, conj lam, -lam, -conj lam) with nonzero real
             and imaginary part.  Dimension 4m, signature (2m, 2m).
  kind 'c' : imaginary pair (i mu, -i mu).  Dimension 2m; signature (m, m)
             for even m and (m + gamma, m - gamma) for odd m, where
             gamma = +-1 is the Krein sign.

Entry tables below produce a block whose flow J A_i has exactly the
declared eigenvalues and Jordan sizes; this pins the center entry of the
kind 'c' anti-diagonal to |Im lam| (doubling it would double the
eigenvalue, contradicting both the Williamson normal form at m = 1 and the
declared Jordan data).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClusterAmbiguous,
    DegenerateInput,
    GammaUndetermined,
    IncompatibleEigenvalue,
    InputError,
    InternalError,
    SignatureMismatch,
)
from .symlin import (
    DEFAULT_TOL,
    Tolerances,
    _inertias,
    _is_integer,
    _is_real,
    _krein_signature,
    hamiltonian_orbits,
    spectrum_with_jordan,
    standard_J,
    sym_matrix,
    symplectic_direct_sum,
)

__all__ = [
    "HormanderBlock",
    "NormalForm",
    "build_block",
    "block_signatures",
    "classify",
]

KINDS = ("a", "b", "c")


@dataclass(frozen=True)
class HormanderBlock:
    kind: str
    m: int
    lam: complex  # canonical representative: Re >= 0, Im >= 0
    gamma: int | None = None  # Krein sign, kind 'c' only
    matrix: np.ndarray = field(default=None, compare=False, repr=False)

    @property
    def dof(self) -> int:
        return 2 * self.m if self.kind == "b" else self.m

    @property
    def dim(self) -> int:
        return 2 * self.dof


def _matrix_a(m, lam_abs):
    # B has |lam| on the diagonal and ones directly under it
    B = np.diag(np.full(m, lam_abs))
    for j in range(1, m):
        B[j, j - 1] = 1.0
    A = np.zeros((2 * m, 2 * m))
    A[:m, m:] = B
    A[m:, :m] = B.T
    return A


def _matrix_b(m, re, im):
    d = 2 * m
    B = np.zeros((d, d))
    for j in range(d):
        B[j, j] = re
    for l in range(m):
        B[2 * l + 1, 2 * l] = im
        B[2 * l, 2 * l + 1] = -im
    for j in range(d - 2):
        B[j, j + 2] = 1.0
    A = np.zeros((2 * d, 2 * d))
    A[:d, d:] = B
    A[d:, :d] = B.T
    return A


def _matrix_c(m, im, gamma):
    B = np.zeros((m, m))
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            if j + k == m + 1:
                B[j - 1, k - 1] = im  # anti-diagonal, center included
            elif j + k == m + 2:
                B[j - 1, k - 1] = -2.0 if j == k else -1.0
    B = gamma * B
    BP = B[::-1, ::-1].T  # reflection across the anti-diagonal
    A = np.zeros((2 * m, 2 * m))
    A[:m, :m] = B
    A[m:, m:] = BP
    return A


def _block_dim(kind: str, m: int) -> int:
    """``HormanderBlock.dim`` of the block (kind, m), found without building it."""
    if kind not in KINDS:
        raise InputError(f"unknown block kind {kind!r}")
    if not _is_integer(m) or m < 1:
        raise InputError(f"Jordan size m must be a positive integer, got {m!r}")
    return (4 if kind == "b" else 2) * int(m)


def build_block(kind: str, m: int, lam: complex, gamma: int | None = None) -> HormanderBlock:
    """Canonical block for the given kind, Jordan size and eigenvalue.

    The eigenvalue is canonicalized to Re >= 0, Im >= 0; gamma is required
    exactly when kind == 'c'.
    """
    _block_dim(kind, m)  # refuses an unknown kind or an m that is no positive integer
    if not (_is_real(lam) or (isinstance(lam, complex) and cmath.isfinite(lam))):
        raise InputError(f"eigenvalue must be a finite number, got {lam!r}")
    if kind != "c" and gamma is not None:
        raise InputError("gamma is only meaningful for kind 'c'")
    if kind == "c" and not (_is_integer(gamma) and gamma in (-1, 1)):
        raise InputError("kind 'c' requires gamma in {-1, +1}")
    lam = complex(lam)
    scale = max(1.0, abs(lam))
    re, im = abs(lam.real), abs(lam.imag)
    axis = 1e-12 * scale
    if kind == "a":
        if im > axis:
            raise IncompatibleEigenvalue("kind 'a' requires a real eigenvalue")
        if re <= axis:
            raise IncompatibleEigenvalue("kind 'a' requires a nonzero eigenvalue")
        return HormanderBlock("a", int(m), complex(re), None, _matrix_a(m, re))
    if kind == "b":
        if re <= axis or im <= axis:
            raise IncompatibleEigenvalue(
                "kind 'b' requires nonzero real and imaginary parts")
        return HormanderBlock("b", int(m), complex(re, im), None, _matrix_b(m, re, im))
    # kind 'c'
    if re > axis:
        raise IncompatibleEigenvalue("kind 'c' requires a purely imaginary eigenvalue")
    if im <= axis:
        raise IncompatibleEigenvalue("kind 'c' requires a nonzero eigenvalue")
    return HormanderBlock("c", int(m), complex(0.0, im), int(gamma), _matrix_c(m, im, gamma))


def block_signatures(blocks, tol: Tolerances = DEFAULT_TOL) -> list:
    """The (p, q) signature of each block, in order, its closed form
    checked numerically: the check takes one stacked inertia
    (``symlin._inertias``) per matrix shape, and still decides each block
    on its own.  The first block, in order, that fails the check raises."""
    blocks = tuple(blocks)
    groups = {}
    for i, b in enumerate(blocks):
        groups.setdefault(np.shape(b.matrix), []).append(i)
    numeric = [None] * len(blocks)
    for shape, idx in groups.items():
        if len(shape) == 2 and shape[0] == shape[1]:
            found = _inertias(np.array([blocks[i].matrix for i in idx], dtype=float), tol)
        else:
            found = [InputError(f"matrix must be square, got shape {shape}")] * len(idx)
        for i, pq in zip(idx, found):
            numeric[i] = pq
    out = []
    for b, pq in zip(blocks, numeric):
        if b.kind == "a":
            expected = (b.m, b.m)
        elif b.kind == "b":
            expected = (2 * b.m, 2 * b.m)
        elif b.m % 2 == 0:
            expected = (b.m, b.m)
        else:
            expected = (b.m + b.gamma, b.m - b.gamma)
        if isinstance(pq, Exception):
            raise pq
        if pq != expected:
            raise SignatureMismatch(
                f"block ({b.kind}, m={b.m}, lam={b.lam}, gamma={b.gamma}): "
                f"closed form {expected} vs numerical {pq}")
        out.append(expected)
    return out


@dataclass(frozen=True)
class NormalForm:
    blocks: tuple  # tuple[HormanderBlock], canonically ordered
    total_dim: int

    @property
    def matrix(self) -> np.ndarray:
        """Symplectic direct sum of the block matrices, in ambient (q, p) order."""
        return symplectic_direct_sum(*[b.matrix for b in self.blocks])


def normal_form(blocks) -> NormalForm:
    """Wrap freshly built blocks in a canonically ordered NormalForm."""
    blocks = tuple(sorted(blocks, key=lambda b: (b.kind, abs(b.lam.real), abs(b.lam.imag), b.m,
                                                 -(b.gamma or 0))))
    return NormalForm(blocks, sum(b.dim for b in blocks))


def _krein_split(A, V, a_norm, tol):
    """(p_plus, p_minus) Krein signs of a semisimple imaginary eigenvalue
    with the orthonormal eigenvectors V, one per block; a_norm is |A|_2."""
    p = V.shape[1]
    p_plus = (p + _krein_signature(A, V, a_norm, tol) // 2) // 2
    return p_plus, p - p_plus


def classify(A, tol: Tolerances = DEFAULT_TOL) -> NormalForm:
    """Normal form of a nondegenerate symmetric A from the Jordan data of J A.

    J A is decomposed once (``symlin.spectrum_with_jordan``); a spectrum
    not closed under negation and conjugation raises ClusterAmbiguous.
    One block is emitted per conjugation/negation orbit of eigenvalues
    (``symlin.hamiltonian_orbits``) and per Jordan size.  Purely imaginary
    eigenvalues with any Jordan block of size > 1 raise GammaUndetermined
    (their sign invariant is not extracted here); imaginary semisimple
    eigenvalues are split by Krein sign.  Blocks that do not span the
    dimension of A (an orbit dropped or counted twice, a block of the
    wrong size) raise InternalError.
    """
    A = sym_matrix(A)
    n2 = A.shape[0]
    if n2 == 0:
        return NormalForm((), 0)
    if n2 % 2 != 0:
        raise InputError("quadratic form on a symplectic space has even dimension")
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= tol.rank_cut * sv[0]:
        raise DegenerateInput("form is degenerate; no normal form")
    spec = spectrum_with_jordan(JA := standard_J(n2 // 2) @ A, tol)
    key = spec.key()
    if any(key != tuple(sorted((sign * re, -im, sizes) for re, im, sizes in key))
           for sign in (1, -1)):
        raise ClusterAmbiguous("spectrum of J A is not closed under negation and conjugation")

    blocks = []
    for kind, it in hamiltonian_orbits(JA, spec, tol):
        lam = it.eigenvalue
        if kind == "zero":
            raise DegenerateInput("zero eigenvalue of the flow; form is degenerate")
        if kind != "c":  # build_block takes |Re| and |Im|
            blocks += [build_block(kind, size, lam.real if kind == "a" else lam)
                       for size in it.block_sizes]
            continue
        mu = abs(lam.imag)
        if any(s > 1 for s in it.block_sizes):
            raise GammaUndetermined(
                f"imaginary eigenvalue {mu}i has a Jordan block of size > 1")
        p_plus, p_minus = _krein_split(A, it.vectors, float(sv[0]), tol)  # sv[0] = |A|_2
        blocks += [build_block("c", 1, 1j * mu, gamma=gamma)
                   for gamma in [1] * p_plus + [-1] * p_minus]

    nf = normal_form(blocks)
    if nf.total_dim != n2:
        raise InternalError(f"blocks span dimension {nf.total_dim}, the form {n2}")
    return nf
