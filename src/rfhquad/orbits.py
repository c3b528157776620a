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

The critical values are the crossing times of exp(t J A0), so the census
reads each |eta| and its m off the crossing enumeration of the index layer
(``czindex._Crossings``) at the Williamson frequencies of A0, over the
|eta| span of its window only, grades them all by the index layer's one
running signature sum (``czindex._Crossings.before``), and checks each m
by the phases eta * mu of the unmerged frequencies, with no matrix
exponential.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .czindex import _Crossings, _merged_frequencies
from .errors import CensusOverflow, InputError, ResonanceMismatch
from .symlin import DEFAULT_TOL, TWO_PI, Tolerances
from .tentacular import QuadraticHamiltonian, _validate

__all__ = [
    "ActionWindow",
    "OrbitFamily",
    "census",
    "DEFAULT_CENSUS_CAP",
]

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


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(self, eta, m, family_dim, topology, side, n, k, cz_transverse=None):
        # One slot setter call per field, each bound once below: the
        # generated frozen __init__ makes one object.__setattr__ call per
        # field, and a census builds thousands of families.
        _set_eta(self, eta)
        _set_m(self, m)
        _set_family_dim(self, family_dim)
        _set_topology(self, topology)
        _set_side(self, side)
        _set_n(self, n)
        _set_k(self, k)
        _set_cz_transverse(self, cz_transverse)

    @property
    def topology_name(self) -> str:
        if self.topology == "sphere":
            return f"S^{2 * self.m - 1}"
        if self.topology == "sigma0":
            return f"S^{2 * self.k - 1}"
        return f"S^{self.n + self.k - 1} x R^{self.n - self.k}"


_set_eta = OrbitFamily.eta.__set__
_set_m = OrbitFamily.m.__set__
_set_family_dim = OrbitFamily.family_dim.__set__
_set_topology = OrbitFamily.topology.__set__
_set_side = OrbitFamily.side.__set__
_set_n = OrbitFamily.n.__set__
_set_k = OrbitFamily.k.__set__
_set_cz_transverse = OrbitFamily.cz_transverse.__set__


def _sigma_doubled(family: OrbitFamily, pole: str) -> int:
    """Twice the signature index of the extremum ``pole`` on the family:
    -(2m - 1) at the minimum and 2m - 1 at the maximum of S^(2m-1) and of
    the stationary compact family (m = k); -(2n - 1) and 2k - 1 on the
    stationary noncompact family."""
    if pole not in ("min", "max"):
        raise InputError(f"pole must be 'min' or 'max', got {pole!r}")
    if family.topology in ("sphere", "sigma0"):
        return -(2 * family.m - 1) if pole == "min" else 2 * family.m - 1
    if family.topology == "sigma":
        return -(2 * family.n - 1) if pole == "min" else 2 * family.k - 1
    raise InputError(f"unknown topology {family.topology!r}")


def _lower_bound(freqs, window: ActionWindow) -> float:
    """A lower bound on the number of critical values in the window, from
    its ends alone: over all mu, the count of 2 pi j / mu in it (j in Z),
    less one at each end for rounding."""
    return max(np.floor(window.hi * mu / TWO_PI) - np.ceil(window.lo * mu / TWO_PI) - 1.0
               for mu, _ in freqs)


def census(H: QuadraticHamiltonian, window: ActionWindow,
           tol: Tolerances = DEFAULT_TOL) -> tuple:
    """All orbit families with action in the window, sorted by action.

    Every nonzero critical value carries a matched (H0-side, H-side) pair
    with identical (eta, m); eta = 0, when present, carries the two
    stationary families.  The family count is capped at DEFAULT_CENSUS_CAP;
    a window that exceeds it by a closed-form count is refused before any
    crossing is enumerated.

    The values are eta = +-t over the merged crossings t of exp(t J A0)
    at the Williamson frequencies of A0, and m is the summed multiplicity
    of the frequencies resonant at t.  Each m is checked against the count
    of frequencies whose phase t * mu is 0 modulo 2 pi, all t at once; a
    disagreement is an internal error, not a user error.
    """
    return _orbit_families(H, _census(H, window, tol)[1])


def _orbit_families(H: QuadraticHamiltonian, values) -> tuple:
    """The families of the census values ``_census`` returns, ungraded."""
    return tuple(fam for eta, m, _ in values for fam in _families(H, eta, m, None))


def _census(H: QuadraticHamiltonian, window, tol: Tolerances) -> tuple:
    """(window, values): (eta, m, cz) for each critical value in the window,
    ascending, cz the doubled transverse index (m None and cz 0 at eta = 0),
    off one crossing enumeration over the window's |eta| span.  A window of
    None is +-(4 pi / mu_min + 1e-6), mu_min the least declared frequency,
    or else the least of A0's, which ``_validate`` reads once for all.

    A0 is positive definite, so mu signs 2 mult_mu and cz at eta = +-t is
    +-(2k + R(t-) + R(t+)), R the pass's running signature sum
    (``_Crossings.before``); ``_check_resonance`` confirms each m."""
    report, mus, dmus = _validate(H, tol)
    if not report.all_ok:
        raise InputError(f"Hamiltonian fails validation: {report.offending}")
    if window is None:
        w = 2 * TWO_PI / min(H.frequencies or mus) + 1e-6
        window = ActionWindow(-w, w)
    freqs = _merged_frequencies([(mu, 1) for mu in mus.tolist()], max(1.0, mus[-1]), tol)
    least = 2 * _lower_bound(freqs, window)
    if least > DEFAULT_CENSUS_CAP:
        raise CensusOverflow(
            f"window yields at least {least:.0f} families, cap is {DEFAULT_CENSUS_CAP}")
    lo, hi = window.lo, window.hi
    start = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    path = _Crossings(H.a0, freqs, max(-lo, hi), tol, start)
    ms = [path.multiplicity(g) for g in range(len(path.times))]
    sums = path.before(lambda mu: 2 * path.multiplicities[mu], [2 * m for m in ms])
    cz = [len(H.a0) + r + s for r, s in pairwise(sums)]

    def span(t_lo, t_hi):  # the merged crossings with t_lo <= t <= t_hi
        return range(bisect_left(path.times, t_lo), bisect_right(path.times, t_hi))

    below, above = span(-hi, -lo), span(lo, hi)
    negative = [(-path.times[g], ms[g], -cz[g]) for g in reversed(below)]
    positive = [(path.times[g], ms[g], cz[g]) for g in above]
    values = negative + [(0.0, None, 0)] * (0.0 in window) + positive
    if 2 * len(values) > DEFAULT_CENSUS_CAP:
        raise CensusOverflow(
            f"window yields up to {2 * len(values)} families, cap is {DEFAULT_CENSUS_CAP}")
    c = max(below, above, key=len)  # holds the other: it is empty or starts at 0 too
    _check_resonance(path.times[c.start:c.stop], ms[c.start:c.stop], mus, dmus, tol)
    return window, values


def _check_resonance(times, ms, mus, dmus, tol: Tolerances) -> None:
    """Raise unless at each crossing time t, resonance count m, exactly m
    unmerged frequencies resonate, 2 |sin(t mu_j / 2)| < rank_cut * max(1,
    max_j 2 |sin(t mu_j / 2)|) + t dmus_j: the singular values of exp(t K) - Id,
    similar through L to exp(t J A0) - Id (``tentacular._williamson``),
    at kernel_dim's cut widened by how far dmus_j can move a phase."""
    times = np.asarray(times)
    phases = 2 * np.abs(np.sin(np.multiply.outer(times, mus) / 2))
    cuts = tol.rank_cut * np.maximum(phases.max(axis=1, keepdims=True), 1.0)
    counts = np.count_nonzero(phases < cuts + np.multiply.outer(times, dmus), axis=1)
    bad = np.flatnonzero(counts != ms)
    if bad.size:
        g = bad[0]
        raise ResonanceMismatch(f"{counts[g]} frequencies resonant != resonance count "
                                f"{ms[g]} at eta = +-{times[g]}")


def _families(H: QuadraticHamiltonian, eta: float, m, cz) -> tuple:
    """The (H0, H) families at one critical value of the census, each
    carrying the transverse index ``cz`` (a HalfInt, or None): the
    stationary pair at eta = 0, a pair of equal spheres elsewhere."""
    if eta == 0.0:
        return (OrbitFamily(0.0, H.k, 2 * H.k - 1, "sigma0", "H0", H.n, H.k, cz),
                OrbitFamily(0.0, H.n, 2 * H.n - 1, "sigma", "H", H.n, H.k, cz))
    return (OrbitFamily(eta, m, 2 * m - 1, "sphere", "H0", H.n, H.k, cz),
            OrbitFamily(eta, m, 2 * m - 1, "sphere", "H", H.n, H.k, cz))
