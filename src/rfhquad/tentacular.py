"""Split quadratic Hamiltonians and spectral admissibility checks.

The objects of study are H(x) = x^T A x / 2 - 1 with A = A0 (+) A1 in a
symplectic splitting R^(2n) = R^(2k) x R^(2(n-k)): A0 positive definite on
the elliptic factor, J A1 hyperbolic (no purely imaginary eigenvalue) on
the other.  The zero level of H is then a hyperboloid S^(n+k-1) x R^(n-k).

All homological statements downstream need only this validity; the
sufficient spectral conditions checked by ``tentacular_check`` (strong
tentacularity of the level set) are advisory metadata on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalError
from .hormander import NormalForm
from .symlin import (
    DEFAULT_TOL,
    Tolerances,
    imaginary_axis_eigenvalues,
    sym_matrix,
    symplectic_direct_sum,
)

__all__ = [
    "QuadraticHamiltonian",
    "ValidationReport",
    "validate",
    "BlockCheck",
    "TentacularVerdict",
    "tentacular_check",
    "SUFFICIENT_RE_M2",
    "SUFFICIENT_RE_DEEP",
]

# thresholds on |Re lambda| in the sufficient conditions, by Jordan size
SUFFICIENT_RE_M2 = 1.0 / np.sqrt(2.0)
SUFFICIENT_RE_DEEP = 2.0


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Defining data (n, k, A0, A1) of a split quadratic Hamiltonian.

    frequencies, when given, must list the k symplectic eigenvalues of A0
    ascending; they are checked against A0 by ``validate``.
    """

    n: int
    k: int
    a0: np.ndarray
    a1: np.ndarray
    frequencies: tuple | None = None

    def __post_init__(self):
        integer = (int, np.integer)  # a bool is an int, and no dimension
        if isinstance(self.n, bool) or not (isinstance(self.n, integer) and self.n >= 1):
            raise InputError(f"n must be a positive integer, got {self.n!r}")
        if isinstance(self.k, bool) or not (isinstance(self.k, integer) and 0 <= self.k <= self.n):
            raise InputError(f"k must lie in [0, n], got {self.k!r}")
        a0 = sym_matrix(self.a0, "A0")
        a1 = sym_matrix(self.a1, "A1")
        if a0.shape != (2 * self.k, 2 * self.k):
            raise InputError(f"A0 must be {2 * self.k}x{2 * self.k}, got {a0.shape}")
        if a1.shape != (2 * (self.n - self.k),) * 2:
            raise InputError(
                f"A1 must be {2 * (self.n - self.k)}x{2 * (self.n - self.k)}, got {a1.shape}")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)
        if self.frequencies is not None:
            freqs = tuple(float(f) for f in self.frequencies)
            if len(freqs) != self.k or any(f <= 0 for f in freqs):
                raise InputError("frequencies must be k positive numbers")
            object.__setattr__(self, "frequencies", tuple(sorted(freqs)))

    @classmethod
    def from_frequencies(cls, n: int, k: int, frequencies, a1) -> "QuadraticHamiltonian":
        freqs = sorted(float(f) for f in frequencies)
        a0 = np.diag(np.concatenate([freqs, freqs])) if freqs else np.zeros((0, 0))
        return cls(n, k, a0, np.asarray(a1, dtype=float), tuple(freqs))

    @property
    def full_matrix(self) -> np.ndarray:
        """A = A0 (+) A1 in ambient (q, p) coordinates on R^(2n)."""
        return symplectic_direct_sum(self.a0, self.a1)


@dataclass(frozen=True)
class ValidationReport:
    positive_definite: bool
    hyperbolic: bool
    k_in_range: bool
    offending: dict
    frequencies_match: bool | None = None

    @property
    def all_ok(self) -> bool:
        return (
            self.positive_definite
            and self.hyperbolic
            and self.k_in_range
            and self.frequencies_match in (None, True)
        )


def _williamson(a0: np.ndarray, tol: Tolerances) -> tuple:
    """(offending, mus, dmus) of a nonempty A0 by one eigh, A0 = Q diag(w) Q^T.

    offending lists the w at or below rank_cut * max|w|.  When none is,
    mus are the Williamson frequencies, the upper k eigenvalues of the
    Hermitian i K, K = L^T J L with L = Q diag(sqrt w), and dmus bound
    their errors: L L^T = A0 + E, and mu_j is monotone in the Loewner order
    and homogeneous (Bhatia & Jain 2015), so E moves it by at most
    mu_j |E|_2 |A0^-1|_2; forming K and its eigvalsh add a few eps max w.
    """
    w, Q = np.linalg.eigh(a0)
    cut = tol.rank_cut * float(np.abs(w).max())
    bad = [x for x in w.tolist() if x <= cut]
    if bad:
        return bad, None, None
    k = len(w) // 2
    L = Q * np.sqrt(w)
    mus = np.linalg.eigvalsh(1j * (L.T @ np.concatenate([L[k:], -L[:k]])))[k:]
    if mus[0] <= 0:
        raise InternalError("eigenvalues of J A0 did not split into k conjugate pairs")
    slack = 4 * len(w) * np.finfo(float).eps * w[-1]
    return bad, mus, mus * ((np.linalg.norm(L @ L.T - a0) + slack) / w[0]) + slack


def validate(H: QuadraticHamiltonian, tol: Tolerances = DEFAULT_TOL) -> ValidationReport:
    """Check the three defining conditions, reporting offenders.

    positive_definite : all eigenvalues of A0 above the rank cutoff
    hyperbolic        : no eigenvalue of J A1 on the imaginary axis by
                        backward error (symlin.imaginary_axis_eigenvalues)
    k_in_range        : 1 <= k <= n - 1
    """
    return _validate(H, tol)[0]


def _validate(H: QuadraticHamiltonian, tol: Tolerances) -> tuple:
    """``validate``'s report, with the Williamson frequencies of A0 and
    their error bounds from ``_williamson`` (None, None when A0 is empty
    or not positive definite): one eigh and one eigvalsh read A0 for
    validate, the census and the CLI's default window alike.  A1 is read
    by one eigvals of J A1, and by one eigvalsh for |A1|_2 only when an
    eigenvalue lies near the imaginary axis (``imaginary_axis_eigenvalues``)."""
    offending: dict = {}

    bad, mus, dmus = _williamson(H.a0, tol) if H.a0.size else ([], None, None)
    if bad:
        offending["a0_eigenvalues"] = bad
    if H.a1.size and (on_axis := imaginary_axis_eigenvalues(H.a1, tol)):
        offending["a1_flow_eigenvalues"] = on_axis
    if not 1 <= H.k <= H.n - 1:
        offending["k"] = [H.k]

    freq_ok = None
    if H.frequencies is not None and mus is not None:
        freq_ok = all(abs(a - b) <= 1e-8 * max(1.0, abs(b))
                      for a, b in zip(mus.tolist(), H.frequencies))
        if not freq_ok:
            offending["frequencies"] = mus.tolist()

    report = ValidationReport(not bad, "a1_flow_eigenvalues" not in offending,
                              "k" not in offending, offending, freq_ok)
    return report, mus, dmus


@dataclass(frozen=True)
class BlockCheck:
    kind: str
    m: int
    lam: complex
    case: str  # "m=1", "m=2", "m>2"
    passed: bool
    margin: float  # distance of |Re lam| above the relevant threshold


@dataclass(frozen=True)
class TentacularVerdict:
    sufficient: bool
    trace: tuple  # tuple[BlockCheck]

    @property
    def label(self) -> str:
        if self.sufficient:
            return "strongly tentacular (sufficient spectral conditions met)"
        return "sufficient conditions not met (tentacularity undecided)"


def tentacular_check(nf1: NormalForm) -> TentacularVerdict:
    """Sufficient per-block conditions for a strongly tentacular level set.

    For each block with eigenvalue lam and Jordan size m:
      m == 1 : |Re lam| > 0
      m == 2 : |Re lam| > 1/sqrt(2)
      m >  2 : |Re lam| > 2
    Failing blocks leave tentacularity undecided, never refuted; validity
    of the Hamiltonian itself is independent of this verdict.
    """
    checks = []
    for b in nf1.blocks:
        re = abs(b.lam.real)
        if b.m == 1:
            case, threshold = "m=1", 0.0
        elif b.m == 2:
            case, threshold = "m=2", SUFFICIENT_RE_M2
        else:
            case, threshold = "m>2", SUFFICIENT_RE_DEEP
        checks.append(
            BlockCheck(b.kind, b.m, b.lam, case, bool(re > threshold), float(re - threshold)))
    return TentacularVerdict(all(c.passed for c in checks), tuple(checks))
