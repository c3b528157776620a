"""Periodic Reeb orbits of the quadratic flow, organized by action.

For a split Hamiltonian the reparametrized flow is exp(eta J A); its fixed
points at parameter eta decompose along the splitting, the hyperbolic part
contributes only the origin, and the elliptic part resonates exactly when
eta * mu_l is a multiple of 2*pi for a symplectic eigenvalue mu_l of A0.
Each nonzero critical value eta therefore carries one Morse-Bott sphere
S^(2m-1) of closed orbits (m = number of resonant frequencies, counted
with multiplicity), appearing once on the full level set and once on the
compact comparison level set; eta = 0 carries the two level sets
themselves as stationary families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CensusOverflow,
    InputError,
    InternalError,
    NotPositiveDefinite,
    ResonanceMismatch,
)
from .symlin import DEFAULT_TOL, ExpEvaluator, Tolerances, kernel_dim, standard_J, sym_matrix
from .tentacular import QuadraticHamiltonian, validate

__all__ = [
    "ActionWindow",
    "OrbitFamily",
    "williamson_frequencies",
    "crit_values",
    "census",
    "DEFAULT_CENSUS_CAP",
]

TWO_PI = 2.0 * np.pi
DEFAULT_CENSUS_CAP = 10_000


@dataclass(frozen=True)
class ActionWindow:
    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise InputError(f"window must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi  # endpoints inclusive


@dataclass(frozen=True)
class OrbitFamily:
    """One Morse-Bott family of closed orbits at action eta.

    m is half the kernel dimension of the linearized return map; for the
    stationary families (eta == 0) it equals k resp. n and the topology tag
    distinguishes the two level sets.
    """

    eta: float
    m: int
    family_dim: int
    topology: str  # "sphere" | "sigma0" | "sigma"
    side: str  # "H" | "H0"
    n: int
    k: int
    cz_transverse: object | None = None  # HalfInt, filled by the index layer

    @property
    def topology_name(self) -> str:
        if self.topology == "sphere":
            return f"S^{2 * self.m - 1}"
        if self.topology == "sigma0":
            return f"S^{2 * self.k - 1}"
        return f"S^{self.n + self.k - 1} x R^{self.n - self.k}"


def williamson_frequencies(a0, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """Symplectic eigenvalues of a positive definite form, ascending.

    These are the positive imaginary parts of the eigenvalues of J A0,
    with multiplicity.
    """
    a0 = sym_matrix(a0, "A0")
    if a0.size == 0:
        return ()
    w = np.linalg.eigvalsh(a0)
    if w.min() <= tol.rank_cut * float(np.abs(w).max()):
        raise NotPositiveDefinite("A0 is not positive definite")
    k = a0.shape[0] // 2
    ev = np.linalg.eigvals(standard_J(k) @ a0)
    mus = sorted(float(z.imag) for z in ev if z.imag > 0)
    if len(mus) != k:
        raise InternalError("eigenvalues of J A0 did not split into k conjugate pairs")
    return tuple(mus)


def crit_values(frequencies, window: ActionWindow, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """All critical action values in the window: union of (2 pi / mu) Z.

    Values closer than tol.crossing are merged; endpoints are inclusive.
    """
    freqs = [float(f) for f in frequencies]
    if any(f <= 0 for f in freqs):
        raise InputError("frequencies must be positive")
    candidates = []
    for mu in sorted(set(freqs)):
        step = TWO_PI / mu
        j_lo = int(np.floor(window.lo / step)) - 1
        j_hi = int(np.ceil(window.hi / step)) + 1
        for j in range(j_lo, j_hi + 1):
            t = j * step
            if t in window:
                candidates.append(t)
    candidates.sort()
    out = []
    for t in candidates:
        if out and abs(t - out[-1]) <= tol.crossing:
            continue
        out.append(t)
    return tuple(out)


def _resonant_count(frequencies, eta: float, tol: Tolerances) -> int:
    count = 0
    for mu in frequencies:
        phase = eta * mu
        j = round(phase / TWO_PI)
        if j != 0 and abs(phase - TWO_PI * j) <= max(tol.crossing, 1e-9):
            count += 1
    return count


def census(H: QuadraticHamiltonian, window: ActionWindow,
           tol: Tolerances = DEFAULT_TOL) -> tuple:
    """All orbit families with action in the window, sorted by action.

    Every nonzero critical value carries a matched (H0-side, H-side) pair
    with identical (eta, m); eta = 0, when present, carries the two
    stationary families.  The family count is capped at DEFAULT_CENSUS_CAP.

    Each resonance count m is cross-checked against the numerical kernel
    of exp(eta J A0) - Id, all eta at once; disagreement is an internal
    error, not a user error.
    """
    report = validate(H, tol)
    if not report.all_ok:
        raise InputError(f"Hamiltonian fails validation: {report.offending}")
    freqs = H.frequencies if H.frequencies is not None else williamson_frequencies(H.a0, tol)
    values = crit_values(freqs, window, tol)
    if 2 * len(values) > DEFAULT_CENSUS_CAP:
        raise CensusOverflow(
            f"window yields up to {2 * len(values)} families, cap is {DEFAULT_CENSUS_CAP}")
    etas = [eta for eta in values if abs(eta) > tol.crossing]
    counts = [_resonant_count(freqs, eta, tol) for eta in etas]
    flows = ExpEvaluator(standard_J(H.k) @ H.a0).at(etas)
    for eta, m, m_num in zip(etas, counts, kernel_dim(flows - np.eye(2 * H.k), tol)):
        if m_num != 2 * m:
            raise ResonanceMismatch(
                f"kernel dimension {m_num} != 2 * resonance count {m} at eta = {eta}")
    families = []
    counts_left = iter(counts)
    for eta in values:
        if abs(eta) <= tol.crossing:
            families.append(OrbitFamily(0.0, H.k, 2 * H.k - 1, "sigma0", "H0", H.n, H.k))
            families.append(OrbitFamily(0.0, H.n, 2 * H.n - 1, "sigma", "H", H.n, H.k))
        else:
            m = next(counts_left)
            for side in ("H0", "H"):
                families.append(OrbitFamily(float(eta), m, 2 * m - 1, "sphere", side, H.n, H.k))
    return tuple(families)
