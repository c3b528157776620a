"""Symplectic linear algebra kernel.

Conventions used everywhere in the package: the standard symplectic matrix
on R^(2m) is J = [[0, Id], [-Id, 0]] in coordinates (q_1..q_m, p_1..p_m),
a quadratic Hamiltonian is H(x) = x^T A x / 2 with A symmetric, and its
linearized flow is t |-> exp(t J A).

scipy.linalg is imported on first use, by the Schur form of a cluster of
two or more eigenvalues and by ExpEvaluator's Pade fallback, so a call
whose spectra are all simple never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

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
    "hamiltonian_orbits",
    "imaginary_axis_eigenvalues",
    "ExpEvaluator",
    "kernel_dim",
    "inertia",
    "signature",
]


TWO_PI = 2.0 * np.pi
_FLOAT_MAX = float(np.finfo(float).max)  # a Python float, compared exactly with any int


def _is_integer(x) -> bool:
    """x is a Python or numpy integer, not a bool."""
    return not isinstance(x, bool) and isinstance(x, (int, np.integer))


def _is_real(x) -> bool:
    """x is a number the package reads as real: a Python or numpy integer or
    float, finite as a float.  A bool, a string that float() would parse,
    NaN, +-inf and an integer past the largest float are not."""
    if isinstance(x, (float, np.floating)):
        return math.isfinite(x)
    return _is_integer(x) and -_FLOAT_MAX <= x <= _FLOAT_MAX


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by every routine in the package.

    eig_cluster : relative clustering radius and axis backward-error cut
    rank_cut    : relative singular-value cutoff for numerical rank
    crossing    : absolute tolerance for crossing/resonance times
    """

    eig_cluster: float = 1e-9
    rank_cut: float = 1e-10
    crossing: float = 1e-10

    def __post_init__(self):
        for name, top in (("eig_cluster", 1.0), ("rank_cut", 1.0), ("crossing", np.inf)):
            v = getattr(self, name)  # a relative cut of 1 or more cuts everything
            if not (_is_real(v) and 0 < v < top):
                raise InputError(f"tolerance {name} must be a number in (0, {top:g}), got {v!r}")


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
    H = A / 2.0  # halved first, so that neither H - H.T nor H + H.T overflows
    if float(np.abs(H - H.T).max()) > _SYMMETRY_TOL / 2.0 * max(scale, 1.0):
        raise InputError(f"{name} is not symmetric within tolerance")
    return H + H.T


def _spectral_norm(A) -> float:
    """|A|_2 of a matrix, bit for bit np.linalg.norm(A, 2): the first of its
    singular values, which LAPACK returns in descending order."""
    return float(np.linalg.svd(A, compute_uv=False)[0])


def standard_J(m: int) -> np.ndarray:
    """Standard symplectic matrix [[0, Id_m], [-Id_m, 0]] on R^(2m)."""
    if not _is_integer(m) or m < 0:
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
        q, P = slice(off, off + m), slice(m_tot + off, m_tot + off + m)
        out[q, q], out[q, P] = p[:m, :m], p[:m, m:]
        out[P, q], out[P, P] = p[m:, :m], p[m:, m:]
        off += m
    return out


# ---------------------------------------------------------------------------
# spectra with Jordan data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumItem:
    eigenvalue: complex
    block_sizes: tuple  # Jordan block sizes, descending
    # orthonormal eigenvectors as columns, one per Jordan block
    vectors: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class Spectrum:
    items: tuple  # tuple[SpectrumItem], sorted by (Re, Im)

    def key(self):
        """Rounded multiset representation, eigenvalues to 6 digits, which
        ``classify``'s closure check compares."""
        return tuple(
            sorted(
                (round(it.eigenvalue.real, 6), round(it.eigenvalue.imag, 6), it.block_sizes)
                for it in self.items
            )
        )


# spectrum_with_jordan's cap on the kappa term of a cluster radius, relative:
# it must cover the eps^(1/3) spread of a size-3 Jordan block; 1e-6 loses it.
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

    A singleton cluster is one block of size 1, with no rank decision; one
    whose condition-number term reached the _RING cap found no partner and
    is too ill-conditioned to place: ClusterAmbiguous is raised.

    A cluster of p >= 2 eigenvalues with mean c is moved to the leading
    p x p block T11 of one complex Schur form of M.  The nullities of
    (T11 - c I)^j, counted at the cut tol.rank_cut * max(1, |M|_2)^j
    until they stop changing, give the block sizes.  ClusterAmbiguous is
    raised when the Schur diagonal near c does not hold exactly the p
    eigenvalues or when the sizes do not add up to p.

    Each item carries orthonormal eigenvectors, one per Jordan block: a
    singleton its column of V (a view of V), a cluster the kernel of
    T11 - c I from the first rank step, mapped back through the reordered
    Schur vectors.
    """
    M = _as_square(M)
    n = M.shape[0]
    if n == 0:
        return Spectrum(())
    w, V = np.linalg.eig(M)
    scale = max(1.0, float(np.abs(w).max()))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: kappa = inf, or w far apart
        try:
            kappa = np.linalg.norm(np.linalg.inv(V), axis=1)
        except np.linalg.LinAlgError:
            kappa = np.full(n, np.inf)
        kappa[np.isnan(kappa)] = np.inf  # overflow too; inf decides as any kappa past the _RING cap
        ring = 100.0 * np.finfo(float).eps * kappa
        radius = (tol.eig_cluster + np.minimum(ring, _RING)) * scale
        near = np.abs(w[:, None] - w) <= np.maximum.outer(radius, radius)
    labels = np.arange(n)
    # single linkage, when some pair of distinct eigenvalues is near: each
    # label falls to the lowest index of its cluster
    while np.count_nonzero(near) > n:
        lower = np.where(near, labels, n).min(axis=1)
        if np.array_equal(lower, labels):
            break
        labels = lower

    items = []
    T = None
    counts = {}  # first index of each cluster -> its size
    for first in labels.tolist():
        counts[first] = counts.get(first, 0) + 1
    values, rings = w.astype(complex).tolist(), ring.tolist()
    for first, p in sorted(counts.items()):
        if p == 1:  # a singleton's label is its own index
            if rings[first] >= _RING:
                raise ClusterAmbiguous(
                    f"eigenvalue {values[first]} is too ill-conditioned to place and has no partner")
            items.append(SpectrumItem(values[first], (1,), V[:, first:first + 1]))
            continue
        members = np.flatnonzero(labels == first)
        c = complex(np.mean(w[members]))
        if T is None:
            import scipy.linalg
            T, Z = scipy.linalg.schur(M, output="complex")
            norm = max(1.0, _spectral_norm(M))
        reach = float(np.abs(w[members] - c).max() + radius[members].max())
        select = np.abs(np.diag(T) - c) <= reach
        if np.count_nonzero(select) != p:
            raise ClusterAmbiguous(f"the Schur form does not isolate the cluster at {c}")
        Ts, Zs = scipy.linalg.lapack.ztrsen(select, T, Z, job="N")[:2]
        N = Ts[:p, :p] - c * np.eye(p)
        _, sv, vh = np.linalg.svd(N)
        # nullities of N^j until they reach p or stop growing
        chain, P = [0, int(np.count_nonzero(sv < tol.rank_cut * norm))], N
        while chain[-1] < p and chain[-1] > chain[-2]:
            P = P @ N
            sv = np.linalg.svd(P, compute_uv=False)
            chain.append(int(np.count_nonzero(sv < tol.rank_cut * norm ** len(chain))))
        sizes = _block_sizes_from_chain(chain[1:])
        if sum(sizes) != p:
            raise ClusterAmbiguous(
                f"rank data at {c} give Jordan sizes {sizes} for {p} eigenvalues")
        items.append(SpectrumItem(c, tuple(sizes), Zs[:, :p] @ vh[p - chain[1]:].conj().T))
    return Spectrum(tuple(sorted(items, key=lambda it: (it.eigenvalue.real, it.eigenvalue.imag))))


# Bound on the SVD's cost, relative: past it an eigenvalue is off the axis
# unread.  Conjugated imaginary Jordan blocks of size 6 and 9 scatter 1.1e-3
# and 9.5e-3; from size 10 on, some of the 2m lie past it.  Sampler A1: 0.16.
_REACH = 1e-2

# |A|_F as computed, times this, bounds max|eigvalsh(A)| through both roundoffs
_FROBENIUS_PAD = 1.0 + 1e-8


def _on_axis(M, shift, offset: float, scale: float, tol: Tolerances) -> bool:
    """sigma_min(M - shift I) <= cut = eig_cluster * scale: M is within backward
    error cut of a matrix, Hamiltonian if M is (Alam, Bora, Karow, Mehrmann &
    Moro 2011), with the eigenvalue shift.  offset >= sigma_min, a computed
    eigenvalue's distance from shift, decides at most cut or past _REACH * scale."""
    cut = tol.eig_cluster * scale
    if offset <= cut or offset > _REACH * scale:
        return offset <= cut
    return bool(np.linalg.svd(M - shift * np.eye(M.shape[0]), compute_uv=False)[-1] <= cut)


def hamiltonian_orbits(M, spec: Spectrum, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """(kind, item) for each orbit {lambda, -lambda, conj lambda, -conj lambda}
    of spec, the Jordan spectrum of the real Hamiltonian matrix M (closed under
    both maps, Laub & Meyer 1974; the caller checks).  kind is 'a' when
    ``_on_axis`` places Re lambda in M's spectrum at the cut eig_cluster *
    max(1, max |lambda|), 'c' when it places i Im lambda, 'zero' when both
    (one orbit for all such items) and 'b' when neither.  The item has
    Re <= 0 unless on the imaginary axis, Im <= 0 unless on the real one."""
    scale = max([1.0] + [abs(it.eigenvalue) for it in spec.items])
    orbits = []
    for it in spec.items:
        re, im = it.eigenvalue.real, it.eigenvalue.imag
        on_imag = _on_axis(M, 1j * im, abs(re), scale, tol)
        on_real = _on_axis(M, re, abs(im), scale, tol)
        if (re <= 0 or on_imag) and (im <= 0 or on_real):
            kind = "zero" if on_real and on_imag else "a" if on_real else "c" if on_imag else "b"
            if kind != "zero" or all(k != "zero" for k, _ in orbits):
                orbits.append((kind, it))
    return tuple(orbits)


def imaginary_axis_eigenvalues(A, tol: Tolerances = DEFAULT_TOL) -> list:
    """The eigenvalues lambda of J A, A real symmetric, where ``_on_axis``
    places i Im lambda in the spectrum at the cut eig_cluster * max(1, |A|_2):
    a size-m imaginary Jordan block scatters them eps^(1/m) off the axis, but
    not its backward error; all 2m are found while they lie within _REACH.

    J A is formed from the row blocks of A, as [A_p; -A_q].  |A|_2, one
    eigvalsh, is read only when some |Re lambda| is at most max(_REACH,
    eig_cluster) * max(1, |A|_F), padded for roundoff: |A|_F >= |A|_2, so
    past it every ``_on_axis`` verdict is False at either scale."""
    m = A.shape[0] // 2
    JA = np.concatenate([A[m:], -A[:m]])
    zs = np.linalg.eigvals(JA).tolist()
    frobenius = math.hypot(*A.ravel().tolist())  # scaled as it sums: past the float range, inf
    near = max(_REACH, tol.eig_cluster) * max(1.0, _FROBENIUS_PAD * frobenius)
    if all(abs(z.real) > near for z in zs):
        return []
    scale = max(1.0, float(np.abs(np.linalg.eigvalsh(A)).max()))
    return [complex(z) for z in zs if _on_axis(JA, 1j * z.imag, abs(z.real), scale, tol)]


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
            import scipy.linalg
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


def _inertias(S, tol: Tolerances) -> list:
    """Inertia (p, q) of each matrix of the stack S, shape (s, d, d), by one
    stacked eigvalsh.

    Each matrix is decided on its own, as ``inertia`` decides it: its entry
    is instead the InputError ``sym_matrix`` raises on it (non-finite, or
    asymmetric past _SYMMETRY_TOL * max(1, max|entry|)), else the
    DegenerateInput of a form whose eigenvalues are all zero or reach
    within rank_cut * max|eigenvalue| of zero.  The eigenvalues are those
    of the symmetrized matrix, as ``sym_matrix`` returns it; the few per
    matrix are read as Python floats, cheaper than reductions by axis.
    """
    S = np.asarray(S, dtype=float)
    d = S.shape[-1]
    if d == 0:
        return [(0, 0)] * len(S)
    scales = np.abs(S).max(axis=(1, 2))
    finite = np.isfinite(scales)
    if not all(finite.tolist()):  # a zero stand-in keeps the stacked calls finite
        S = np.where(finite[:, None, None], S, 0.0)
    H = S / 2.0  # halved first, as sym_matrix halves it
    skews = np.abs(H - H.swapaxes(1, 2)).max(axis=(1, 2)).tolist()
    ws = np.linalg.eigvalsh(H + H.swapaxes(1, 2)).tolist()
    out = []
    for ok, scale, skew, w in zip(finite.tolist(), scales.tolist(), skews, ws):
        amax = max(map(abs, w))
        if not ok:
            out.append(InputError("matrix has non-finite entries"))
        elif skew > _SYMMETRY_TOL / 2.0 * max(scale, 1.0):
            out.append(InputError("matrix is not symmetric within tolerance"))
        elif amax == 0.0:
            out.append(DegenerateInput("form is identically zero"))
        elif min(map(abs, w)) <= tol.rank_cut * amax:
            out.append(DegenerateInput("form has a numerical kernel"))
        else:
            p = len([x for x in w if x > 0])
            out.append((p, d - p))
    return out


def inertia(S, tol: Tolerances = DEFAULT_TOL):
    """(p, q) = numbers of positive/negative eigenvalues of symmetric S.

    Raises DegenerateInput when an eigenvalue sits below the rank cutoff.
    """
    (pq,) = _inertias(_as_square(S)[None], tol)
    if isinstance(pq, Exception):
        raise pq
    return pq


def signature(S, tol: Tolerances = DEFAULT_TOL) -> int:
    """sgn(S) = p - q for a nondegenerate symmetric matrix."""
    p, q = inertia(S, tol)
    return p - q


def _krein_signature(S, V, s_norm: float, tol: Tolerances) -> int:
    """Signature of x^T S x on the real span of Re v, Im v over the columns
    v of V, orthonormal eigenvectors of J S at one eigenvalue i mu, mu != 0:
    2 sgn(V^H S V).

    That eigenspace is S-isotropic (v^T S v = 0), so the real form is the
    realification of the Hermitian form V^H S V, of twice its signature
    (Robbin-Salamon 1993).  Raises DegenerateRestriction when an eigenvalue
    of V^H S V is within rank_cut * max(max |eigenvalue|, s_norm) of zero,
    where s_norm is |S|_2, taken once by a caller that signs several
    eigenspaces of one S or holds its SVD: a form that vanishes on the
    eigenspace comes back as pure roundoff, and its own largest eigenvalue
    is no yardstick.
    """
    w = np.linalg.eigvalsh(V.conj().T @ S @ V).tolist()
    cut = tol.rank_cut * max(max(map(abs, w)), s_norm)
    if min(map(abs, w)) <= cut:
        raise DegenerateRestriction("restricted form has a numerical kernel")
    return 2 * (len([x for x in w if x > 0]) - len([x for x in w if x < 0]))
