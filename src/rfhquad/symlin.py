"""Symplectic linear algebra kernel.

Conventions used everywhere in the package: the standard symplectic matrix
on R^(2m) is J = [[0, Id], [-Id, 0]] in coordinates (q_1..q_m, p_1..p_m),
a quadratic Hamiltonian is H(x) = x^T A x / 2 with A symmetric, and its
linearized flow is t |-> exp(t J A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ClusterAmbiguous,
    DegenerateInput,
    DegenerateRestriction,
    InputError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "Spectrum",
    "SpectrumItem",
    "standard_J",
    "symplectic_direct_sum",
    "sym_matrix",
    "spectrum_with_jordan",
    "ExpEvaluator",
    "kernel_dim",
    "inertia",
    "signature",
    "restricted_signature",
    "imaginary_eigenspace_basis",
]


TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by every routine in the package.

    eig_cluster : relative radius used to cluster eigenvalues
    rank_cut    : relative singular-value cutoff for numerical rank
    crossing    : absolute tolerance for crossing/resonance times
    """

    eig_cluster: float = 1e-9
    rank_cut: float = 1e-10
    crossing: float = 1e-10

    def __post_init__(self):
        for name in ("eig_cluster", "rank_cut", "crossing"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and np.isfinite(v) and v > 0):
                raise InputError(f"tolerance {name} must be a positive finite number, got {v!r}")


DEFAULT_TOL = Tolerances()

# relative asymmetry sym_matrix accepts as roundoff
_SYMMETRY_TOL = 1e-12


def _as_square(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"{name} must be square, got shape {M.shape}")
    if np.count_nonzero(np.isfinite(M)) != M.size:  # half the cost of .all()
        raise InputError(f"{name} has non-finite entries")
    return M


def sym_matrix(A, name="matrix"):
    """Validate symmetry (within _SYMMETRY_TOL * max|entry|) and symmetrize."""
    A = _as_square(A, name)
    if A.size == 0:
        return A
    scale = float(np.abs(A).max())
    if float(np.abs(A - A.T).max()) > _SYMMETRY_TOL * max(scale, 1.0):
        raise InputError(f"{name} is not symmetric within tolerance")
    return (A + A.T) / 2.0


def standard_J(m: int) -> np.ndarray:
    """Standard symplectic matrix [[0, Id_m], [-Id_m, 0]] on R^(2m)."""
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise InputError(f"m must be a nonnegative integer, got {m!r}")
    J = np.zeros((2 * m, 2 * m))
    J[:m, m:] = np.eye(m)
    J[m:, :m] = -np.eye(m)
    return J


def symplectic_direct_sum(*parts) -> np.ndarray:
    """Direct sum of quadratic forms on a product of symplectic spaces.

    Each part is a 2m_i x 2m_i matrix in its own (q, p) coordinates; the
    result is the matrix of the sum in the ambient coordinates
    (q^1, q^2, ..., p^1, p^2, ...), so that conjugating standard_J of the
    total space recovers the blockwise flows.
    """
    mats = [_as_square(p, "direct summand") for p in parts]
    dofs = []
    for p in mats:
        if p.shape[0] % 2 != 0:
            raise InputError("direct summands must have even dimension")
        dofs.append(p.shape[0] // 2)
    m_tot = sum(dofs)
    out = np.zeros((2 * m_tot, 2 * m_tot))
    off = 0
    for p, m in zip(mats, dofs):
        if m == 0:
            continue
        idx = np.concatenate([np.arange(off, off + m), m_tot + np.arange(off, off + m)])
        out[np.ix_(idx, idx)] = p
        off += m
    return out


# ---------------------------------------------------------------------------
# spectra with Jordan data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumItem:
    eigenvalue: complex
    block_sizes: tuple  # Jordan block sizes, descending


@dataclass(frozen=True)
class Spectrum:
    items: tuple  # tuple[SpectrumItem], sorted by (Re, Im)

    def key(self, ndigits: int = 6):
        """Rounded multiset representation, for comparisons in tests."""
        return tuple(
            sorted(
                (round(it.eigenvalue.real, ndigits), round(it.eigenvalue.imag, ndigits), it.block_sizes)
                for it in self.items
            )
        )


# Cap on the condition-number term of a cluster radius, relative to the
# spectral scale.  It must cover the eps^(1/3) spread of the computed
# eigenvalues of a size-3 Jordan block; a cap of 1e-6 loses them.
_RING = 1e-4


def _block_sizes_from_chain(nullities):
    # delta_j = nu_j - nu_{j-1} counts Jordan blocks of size >= j; the
    # sequence must be nonincreasing for a consistent Jordan structure.
    deltas = []
    prev = 0
    for nu in nullities:
        d = nu - prev
        if d < 0:
            raise ClusterAmbiguous("nullity chain decreased; rank cutoffs are inconsistent")
        deltas.append(d)
        prev = nu
    for a, b in zip(deltas, deltas[1:]):
        if b > a:
            raise ClusterAmbiguous("rank chain inconsistent with any Jordan structure")
    sizes = []
    for j, d in enumerate(deltas, start=1):
        nxt = deltas[j] if j < len(deltas) else 0
        sizes.extend([j] * (d - nxt))
    return sorted(sizes, reverse=True)


def spectrum_with_jordan(M, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """Eigenvalues of M with Jordan block sizes, recovered numerically in
    one pass: one eigendecomposition, one clustering, and rank decisions
    only on the Schur block of each cluster of two or more eigenvalues.

    Radius rule: with scale = max(1, max|lambda|) and kappa_i the norm of
    row i of V^-1 (V's columns have unit norm, so kappa_i is the condition
    number of lambda_i), eigenvalue i gets the radius
    tol.eig_cluster * scale + min(100 eps kappa_i, _RING) * scale, and
    eigenvalues i, j join (single linkage) when |lambda_i - lambda_j| is at
    most the larger of their radii.  The computed eigenvalues of a
    defective eigenvalue split into a ring of radius about eps^(1/m), and
    exactly such ill-conditioned points get the wide radius that joins
    them; simple eigenvalues keep the radius tol.eig_cluster * scale.

    A singleton cluster is one block of size 1, with no rank decision;
    if its condition-number term reached the _RING cap it is too
    ill-conditioned to place and found no partner, and ClusterAmbiguous
    is raised.

    A cluster of p >= 2 eigenvalues with mean c is moved to the leading
    p x p block T11 of one complex Schur form of M.  The nullities of
    (T11 - c I)^j, counted at the cut tol.rank_cut * max(1, |M|_2)^j
    until they stop changing, give the block sizes.  ClusterAmbiguous is
    raised when the Schur diagonal near c does not hold exactly the p
    eigenvalues or when the sizes do not add up to p.
    """
    M = _as_square(M)
    n = M.shape[0]
    if n == 0:
        return Spectrum(())
    w, V = np.linalg.eig(M)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow means kappa = inf
            kappa = np.nan_to_num(np.linalg.norm(np.linalg.inv(V), axis=1), nan=np.inf)
    except np.linalg.LinAlgError:
        kappa = np.full(n, np.inf)
    scale = max(1.0, float(np.abs(w).max()))
    ring = 100.0 * np.finfo(float).eps * kappa
    radius = (tol.eig_cluster + np.minimum(ring, _RING)) * scale
    near = np.abs(w[:, None] - w) <= np.maximum.outer(radius, radius)
    labels = np.arange(n)
    while True:  # single linkage: each label falls to the lowest index of its cluster
        lower = np.where(near, labels, n).min(axis=1)
        if np.array_equal(lower, labels):
            break
        labels = lower

    items = []
    T = None
    for first in np.unique(labels):
        members = np.flatnonzero(labels == first)
        p = members.size
        if p == 1:
            if ring[first] >= _RING:
                raise ClusterAmbiguous(
                    f"eigenvalue {complex(w[first])} is too ill-conditioned to place and has no partner")
            items.append(SpectrumItem(complex(w[first]), (1,)))
            continue
        c = complex(np.mean(w[members]))
        if T is None:
            T, Z = scipy.linalg.schur(M, output="complex")
            norm = max(1.0, float(np.linalg.norm(M, 2)))
        reach = float(np.abs(w[members] - c).max() + radius[members].max())
        select = np.abs(np.diag(T) - c) <= reach
        if np.count_nonzero(select) != p:
            raise ClusterAmbiguous(f"the Schur form does not isolate the cluster at {c}")
        N = scipy.linalg.lapack.ztrsen(select, T, Z, job="N", wantq=0)[0][:p, :p] - c * np.eye(p)
        chain, P = [0], np.eye(p)  # nullities of N^j until they reach p or stop growing
        while chain[-1] < p and (len(chain) < 2 or chain[-1] > chain[-2]):
            P = P @ N
            sv = np.linalg.svd(P, compute_uv=False)
            chain.append(int(np.count_nonzero(sv < tol.rank_cut * norm ** len(chain))))
        sizes = _block_sizes_from_chain(chain[1:])
        if sum(sizes) != p:
            raise ClusterAmbiguous(
                f"rank data at {c} give Jordan sizes {sizes} for {p} eigenvalues")
        items.append(SpectrumItem(c, tuple(sizes)))
    return Spectrum(tuple(sorted(items, key=lambda it: (it.eigenvalue.real, it.eigenvalue.imag))))


# ---------------------------------------------------------------------------
# exponentials, kernels, signatures
# ---------------------------------------------------------------------------


class ExpEvaluator:
    """exp(t M) for a stack of times t, the package's one matrix exponential.

    One eigendecomposition M = V diag(w) V^-1 serves every t when it
    reproduces M to |R|_F <= 1e-10 * max(1, |M|_F / sqrt(n)), R the
    residual and n the order of M: never looser than the spectral-norm
    test |R|_2 <= 1e-10 * max(1, |M|_2), as |R|_2 <= |R|_F and
    |M|_F / sqrt(n) <= |M|_2, and no SVD.  Each point is then the product
    (V * exp(t w)) @ V^-1.  Otherwise (a defective M, such as a Jordan
    block) each point falls back to scaling-and-squaring Pade.  A point's
    value does not depend on the other points asked for with it.
    """

    def __init__(self, M):
        self.M = _as_square(M)
        self.w, self.V = np.linalg.eig(self.M)
        try:
            self.Vi = np.linalg.inv(self.V)
            resid = np.linalg.norm(self.V @ np.diag(self.w) @ self.Vi - self.M)
            scale = np.linalg.norm(self.M) / np.sqrt(max(1, self.M.shape[0]))
            self.fast = bool(resid <= 1e-10 * max(1.0, scale))
        except np.linalg.LinAlgError:
            self.fast = False

    def at(self, ts) -> np.ndarray:
        """exp(t M) for each t of the 1-D sequence ``ts``, stacked."""
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1 or np.count_nonzero(np.isfinite(ts)) != ts.size:
            raise InputError("times must be a 1-D sequence of finite numbers")
        if not self.fast:
            return np.reshape([scipy.linalg.expm(t * self.M) for t in ts],
                              ts.shape + self.M.shape)
        E = np.exp(np.multiply.outer(ts, self.w))
        return ((self.V * E[:, None, :]) @ self.Vi).real


def kernel_dim(M, tol: Tolerances = DEFAULT_TOL):
    """Numerical nullity of each matrix of a stack M of shape (..., r, c):
    the count of its singular values below rank_cut * scale.

    The scale is max(largest singular value, 1): the callers feed
    matrices of the shape exp(...) - Id whose natural size is order one,
    and a fully resonant exponential must report a full kernel rather
    than let roundoff noise pass as rank.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2:
        raise InputError("kernel_dim expects a matrix or a stack of matrices")
    sv = np.linalg.svd(M, compute_uv=False)
    cut = tol.rank_cut * np.maximum(sv[..., :1], 1.0)
    return np.count_nonzero(sv < cut, axis=-1)


def inertia(S, tol: Tolerances = DEFAULT_TOL):
    """(p, q) = numbers of positive/negative eigenvalues of symmetric S.

    Raises DegenerateInput when an eigenvalue sits below the rank cutoff.
    """
    S = sym_matrix(S)
    if S.size == 0:
        return (0, 0)
    w = np.linalg.eigvalsh(S)
    amax = float(np.abs(w).max())
    if amax == 0.0:
        raise DegenerateInput("form is identically zero")
    cut = tol.rank_cut * amax
    if np.any(np.abs(w) <= cut):
        raise DegenerateInput("form has a numerical kernel")
    p = int(np.count_nonzero(w > 0))
    return (p, len(w) - p)


def signature(S, tol: Tolerances = DEFAULT_TOL) -> int:
    """sgn(S) = p - q for a nondegenerate symmetric matrix."""
    p, q = inertia(S, tol)
    return p - q


def restricted_signature(S, basis, tol: Tolerances = DEFAULT_TOL) -> int:
    """Signature of x^T S x restricted to span(basis).

    basis : matrix whose columns span the subspace, or a sequence of
        vectors; the columns must be linearly independent.
    Raises DegenerateRestriction when the restricted form has a numerical
    kernel (it is reported, never silently dropped).
    """
    S = sym_matrix(S)
    B = np.asarray(basis, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    elif B.ndim == 2 and B.shape[0] != S.shape[0] and B.shape[1] == S.shape[0]:
        B = B.T  # sequence of row vectors
    if B.ndim != 2 or B.shape[0] != S.shape[0]:
        raise InputError("basis shape incompatible with the form")
    if B.shape[1] == 0:
        return 0
    sv = np.linalg.svd(B, compute_uv=False)
    if sv.size and sv[-1] <= tol.rank_cut * sv[0]:
        raise InputError("basis vectors are not linearly independent")
    G = B.T @ S @ B
    G = (G + G.T) / 2.0
    w = np.linalg.eigvalsh(G)
    amax = float(np.abs(w).max())
    # degeneracy is judged against the ambient scale |B|^2 |S|, not against
    # the restricted form itself: a form that vanishes on the subspace comes
    # back as pure roundoff, and its own max eigenvalue is no yardstick
    scale = float(sv[0]) ** 2 * float(np.linalg.norm(S, 2)) if sv.size else 1.0
    cut = tol.rank_cut * max(amax, scale, 1e-300)
    if np.any(np.abs(w) <= cut):
        raise DegenerateRestriction("restricted form has a numerical kernel")
    return int(np.count_nonzero(w > 0) - np.count_nonzero(w < 0))


def imaginary_eigenspace_basis(M, mu: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the real invariant plane span{Re v, Im v} over
    the complex eigenvectors v of M with eigenvalue i*mu (mu > 0).

    Only genuine eigenvectors enter, so for a defective imaginary
    eigenvalue this is the kernel of exp(t M) - Id at resonance.
    """
    M = _as_square(M)
    n = M.shape[0]
    C = M.astype(complex) - 1j * float(mu) * np.eye(n)
    _, sv, vh = np.linalg.svd(C)
    smax = float(sv[0]) if sv.size else 0.0
    if smax == 0.0:
        raise DegenerateInput("matrix is a multiple of i*mu*Id")
    null_rows = np.nonzero(sv < tol.rank_cut * smax * 1e2)[0]
    if null_rows.size == 0:
        raise ClusterAmbiguous(f"no eigenvector found for eigenvalue {mu}i")
    V = vh[null_rows].conj().T  # complex eigenvector columns
    R = np.hstack([V.real, V.imag])
    u, sv2, _ = np.linalg.svd(R, full_matrices=False)
    rank = int(np.count_nonzero(sv2 > tol.rank_cut * sv2[0] * 1e2)) if sv2.size else 0
    if rank != 2 * V.shape[1]:
        raise ClusterAmbiguous("realified eigenspace has unexpected dimension")
    return u[:, :rank]
