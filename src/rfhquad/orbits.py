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
exponential.  Each family is built once, with its transverse index, and
``generator_census`` caps it at its minimum and maximum: the two
generators of the Floer complex it contributes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .czindex import HalfInt, _Crossings, _merged_frequencies
from .errors import CensusOverflow, InputError, InternalError, ResonanceMismatch
from .symlin import DEFAULT_TOL, TWO_PI, Tolerances, _is_real
from .tentacular import QuadraticHamiltonian, _validate

__all__ = [
    "ActionWindow",
    "OrbitFamily",
    "Generator",
    "census",
    "generator_census",
    "DEFAULT_CENSUS_CAP",
]

DEFAULT_CENSUS_CAP = 10_000


@dataclass(frozen=True)
class ActionWindow:
    lo: float
    hi: float

    def __post_init__(self):
        if not (_is_real(self.lo) and _is_real(self.hi) and self.lo < self.hi):
            raise InputError(f"window ends must be finite real numbers with lo < hi, "
                             f"got [{self.lo!r}, {self.hi!r}]")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi  # endpoints inclusive


@dataclass(frozen=True, slots=True, init=False)
class OrbitFamily:
    """One Morse-Bott family of closed orbits at action eta, with its
    transverse index.

    m is half the kernel dimension of the linearized return map.  Off
    eta = 0 the H0 and H families are the same sphere S^(2m-1); at eta = 0
    they are the two level sets, the compact one (m = k) on H0 and the
    noncompact one (m = n) on H.
    """

    eta: float
    m: int
    side: str  # "H" | "H0"
    k: int
    cz_transverse: HalfInt

    def __init__(self, eta, m, side, k, cz_transverse):
        # One slot setter call per field, each bound once below: the
        # generated frozen __init__ makes one object.__setattr__ call per
        # field, and a census builds thousands of families.
        _set_eta(self, eta)
        _set_m(self, m)
        _set_side(self, side)
        _set_k(self, k)
        _set_cz_transverse(self, cz_transverse)

    @property
    def topology(self) -> str:
        if self.eta != 0.0:
            return "sphere"
        return "sigma0" if self.side == "H0" else "sigma"

    @property
    def family_dim(self) -> int:
        return 2 * self.m - 1

    @property
    def topology_name(self) -> str:
        if self.eta == 0.0 and self.side == "H":
            return f"S^{self.m + self.k - 1} x R^{self.m - self.k}"
        return f"S^{2 * self.m - 1}"


_set_eta = OrbitFamily.eta.__set__
_set_m = OrbitFamily.m.__set__
_set_side = OrbitFamily.side.__set__
_set_k = OrbitFamily.k.__set__
_set_cz_transverse = OrbitFamily.cz_transverse.__set__


def _sigmas_doubled(family: OrbitFamily) -> tuple:
    """Twice the signature index at the maximum and at the minimum of the
    family: 2m - 1 and -(2m - 1), but 2k - 1 at the maximum of the
    stationary noncompact family (m = n)."""
    if family.eta == 0.0 and family.side == "H":
        return 2 * family.k - 1, 1 - 2 * family.m
    return 2 * family.m - 1, 1 - 2 * family.m


def _sigma_doubled(family: OrbitFamily, pole: str) -> int:
    """Twice the signature index of the extremum ``pole`` on the family."""
    if pole not in ("min", "max"):
        raise InputError(f"pole must be 'min' or 'max', got {pole!r}")
    return _sigmas_doubled(family)[pole == "min"]


@dataclass(frozen=True, slots=True, init=False)
class Generator:
    """One Morse-Bott generator: an orbit family capped at one extremum."""

    family: OrbitFamily
    pole: str
    grading: HalfInt

    def __init__(self, family: OrbitFamily, pole: str, grading: HalfInt):
        _set_family(self, family)  # one slot setter call per field, as in OrbitFamily
        _set_pole(self, pole)
        _set_grading(self, grading)

    @property
    def action(self) -> float:
        return self.family.eta

    @property
    def sigma_index(self) -> HalfInt:
        return HalfInt(_sigma_doubled(self.family, self.pole))

    @property
    def label(self) -> str:
        side = "stationary" if self.family.eta == 0.0 else f"eta={self.family.eta:.6g}"
        return f"{self.family.side}/{side}/{self.pole}"


_new = object.__new__
_set_family = Generator.family.__set__
_set_pole = Generator.pole.__set__
_set_grading = Generator.grading.__set__


def _lower_bound(freqs, window: ActionWindow) -> float:
    """A lower bound on the number of critical values in the window, from
    its ends alone: over all mu, the count of 2 pi j / mu in it (j in Z),
    less one at each end for rounding.  An end times mu past the float
    range is inf, which numpy's floor and ceil keep and Python's refuse."""
    finite = math.isfinite(max(-window.lo, window.hi) * freqs[-1][0])
    floor, ceil = (math.floor, math.ceil) if finite else (np.floor, np.ceil)
    return max(floor(window.hi * mu / TWO_PI) - ceil(window.lo * mu / TWO_PI) - 1.0
               for mu, _ in freqs)


def census(H: QuadraticHamiltonian, window: ActionWindow,
           tol: Tolerances = DEFAULT_TOL) -> tuple:
    """All orbit families with action in the window, sorted by action.

    Every nonzero critical value carries a matched (H0-side, H-side) pair
    with identical eta, m and transverse index; eta = 0, when present,
    carries the two stationary families.  The family count is capped at
    DEFAULT_CENSUS_CAP; a window that exceeds it by a closed-form count is
    refused before any crossing is enumerated.

    The values are eta = +-t over the merged crossings t of exp(t J A0)
    at the Williamson frequencies of A0, and m is the summed multiplicity
    of the frequencies resonant at t.  Each m is checked against the count
    of frequencies whose phase t * mu is 0 modulo 2 pi, all t at once; a
    disagreement is an internal error, not a user error.
    """
    return tuple(_census(H, window, tol)[1])


def generator_census(H: QuadraticHamiltonian, window: ActionWindow,
                     tol: Tolerances = DEFAULT_TOL) -> list:
    """All generators with action in the window, two per orbit family, by
    action, then side (H before H0), then pole (max before min).

    One crossing enumeration over the window's |eta| span grades every
    critical value by a running crossing count, negated for eta < 0, so
    the cost follows the window's width, not its distance from 0.  Each
    value's doubled gradings, transverse index + signature index + 1/2,
    are summed once as integers and shared by its two sphere families
    (the stationary pair at eta = 0 differs); all four have the parity of
    the transverse index, checked once per value.
    """
    return _generators(_census(H, window, tol)[1])


def _generators(families) -> list:
    """The generators of the (H0, H) family pairs ``_census`` returns.

    Integer work only: one ``_sigmas_doubled`` call gives a value's two
    doubled signature indices, its doubled gradings are cz + sigma + 1,
    their parity is checked once, at the maximum, and at m = 1 the
    minimum's grading is the transverse index itself.  Each Generator is
    stored by its slot setters, with no ``__init__`` frame."""
    out = []
    append = out.append
    pairs = iter(families)
    for h0, h in zip(pairs, pairs):
        cz = h.cz_transverse
        top, bottom = _sigmas_doubled(h)
        top += cz.doubled + 1
        if top % 2:
            raise InternalError(f"non-integer grading {HalfInt(top)} for {h} at max")
        top, bottom = HalfInt(top), cz if h.m == 1 else HalfInt(cz.doubled + bottom + 1)
        for family in (h, h0):
            if family is h0 and h.eta == 0.0:  # the stationary pair: m = k on H0
                top, bottom = (HalfInt(cz.doubled + s + 1) for s in _sigmas_doubled(h0))
            g = _new(Generator)
            _set_family(g, family)
            _set_pole(g, "max")
            _set_grading(g, top)
            append(g)
            g = _new(Generator)
            _set_family(g, family)
            _set_pole(g, "min")
            _set_grading(g, bottom)
            append(g)
    return out


def _census(H: QuadraticHamiltonian, window, tol: Tolerances) -> tuple:
    """(window, families): the (H0, H) family pair at each critical value
    in the window, ascending, both carrying one transverse index, off one
    crossing enumeration over the window's |eta| span.  A window of
    None is +-(4 pi / mu_min + 1e-6), mu_min the least declared frequency,
    or else the least of A0's, which ``_validate`` reads once for all.

    A0 is positive definite, so mu signs 2 mult_mu and cz at eta = +-t is
    +-(2k + R(t-) + R(t+)), R the pass's running signature sum
    (``_Crossings.before``); ``_check_resonance`` confirms each m."""
    report, mus, dmus = _validate(H, tol)
    if not report.all_ok:
        raise InputError(f"Hamiltonian fails validation: {report.offending}")
    if window is None:
        w = 2 * TWO_PI / min(H.frequencies or mus.tolist()) + 1e-6  # inf past the float range
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

    k, times, families = H.k, path.times, []
    for g in reversed(below):  # the H0 and H spheres at -t, sharing one transverse index
        eta, m, index = -times[g], ms[g], HalfInt(-cz[g])
        families += (OrbitFamily(eta, m, "H0", k, index), OrbitFamily(eta, m, "H", k, index))
    if 0.0 in window:
        zero = HalfInt(0)
        families += (OrbitFamily(0.0, k, "H0", k, zero), OrbitFamily(0.0, H.n, "H", k, zero))
    for g in above:
        eta, m, index = times[g], ms[g], HalfInt(cz[g])
        families += (OrbitFamily(eta, m, "H0", k, index), OrbitFamily(eta, m, "H", k, index))
    if len(families) > DEFAULT_CENSUS_CAP:
        raise CensusOverflow(
            f"window yields up to {len(families)} families, cap is {DEFAULT_CENSUS_CAP}")
    c = max(below, above, key=len)  # holds the other: it is empty or starts at 0 too
    _check_resonance(path.times[c.start:c.stop], ms[c.start:c.stop], mus, dmus, tol)
    return window, families


def _check_resonance(times, ms, mus, dmus, tol: Tolerances) -> None:
    """Raise unless at each crossing time t, resonance count m, exactly m
    unmerged frequencies resonate, 2 |sin(t mu_j / 2)| < rank_cut * max(1,
    max_j 2 |sin(t mu_j / 2)|) + t dmus_j: the singular values of exp(t K) - Id,
    similar through L to exp(t J A0) - Id (``tentacular._williamson``),
    at kernel_dim's cut widened by how far dmus_j can move a phase."""
    t = np.asarray(times)[:, None]
    phases = 2 * np.abs(np.sin(t * mus / 2))
    cuts = tol.rank_cut * np.maximum(phases.max(axis=1, keepdims=True), 1.0)
    counts = np.count_nonzero(phases < cuts + t * dmus, axis=1).tolist()
    if counts != ms:
        g = next(g for g, (c, m) in enumerate(zip(counts, ms)) if c != m)
        raise ResonanceMismatch(f"{counts[g]} frequencies resonant != resonance count "
                                f"{ms[g]} at eta = +-{times[g]}")
