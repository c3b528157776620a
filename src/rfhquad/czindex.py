"""Conley-Zehnder indices and gradings of orbit-family generators.

The index of the symplectic path t |-> exp(t J S), t in [0, T], is computed
by the signature-weighted crossing count

    cz = sgn(S)/2 + sgn(S restricted to ker(exp(T J S) - Id))/2
         + sum over interior crossings of sgn(S restricted to the kernel),

with half-weight contributions at both endpoints t = 0 and t = T (this
endpoint convention is fixed here once and used consistently; all degree
formulas downstream depend on it).  Crossings are located analytically
from the purely imaginary eigenvalues of J S, so hyperbolic directions
contribute no crossings at all.

The crossings are enumerated in one pass up to a horizon, from one Jordan
spectrum of J S.  At a crossing t = 2 pi j / mu the kernel is the sum of
the mu i eigenspaces of J S over the frequencies resonant there, whatever
j is, so each resonant frequency set is signed once.  By catenation the
index on [0, T] for every T up to the horizon is then sgn(S)/2, plus the
endpoint term, plus a prefix sum of interior signatures: the generator
census grades all its critical values from a single pass.

Half-integers are kept exact as doubled integers; no index or grading is
ever computed in floating point.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import CrossingDegenerate, DegenerateRestriction, InputError, NonIntegerResult
from .orbits import TWO_PI, OrbitFamily
from .symlin import (
    DEFAULT_TOL,
    Tolerances,
    imaginary_eigenspace_basis,
    restricted_signature,
    signature,
    spectrum_with_jordan,
    standard_J,
    sym_matrix,
)

__all__ = [
    "HalfInt",
    "cz_index_path",
    "cz_index_data",
    "crossing_times",
    "sigma_index",
    "grading",
]


@dataclass(frozen=True, eq=False)
class HalfInt:
    """Exact element of (1/2) Z, stored as the doubled integer."""

    doubled: int

    def __post_init__(self):
        if type(self.doubled) is int:  # the common case, already normalized
            return
        if isinstance(self.doubled, bool) or not isinstance(self.doubled, (int, np.integer)):
            raise InputError(f"HalfInt needs an integer, got {self.doubled!r}")
        object.__setattr__(self, "doubled", int(self.doubled))

    @classmethod
    def from_int(cls, n: int) -> "HalfInt":
        return cls(2 * int(n))

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def as_int(self) -> int:
        if not self.is_integer:
            raise NonIntegerResult(f"{self} is not an integer")
        return self.doubled // 2

    def __float__(self) -> float:
        return self.doubled / 2.0

    @staticmethod
    def _coerce(other):
        if isinstance(other, HalfInt):
            return other.doubled
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (int, np.integer)):
            return 2 * int(other)
        return NotImplemented

    def __add__(self, other):
        d = self._coerce(other)
        return NotImplemented if d is NotImplemented else HalfInt(self.doubled + d)

    __radd__ = __add__

    def __sub__(self, other):
        d = self._coerce(other)
        return NotImplemented if d is NotImplemented else HalfInt(self.doubled - d)

    def __rsub__(self, other):
        d = self._coerce(other)
        return NotImplemented if d is NotImplemented else HalfInt(d - self.doubled)

    def __neg__(self):
        return HalfInt(-self.doubled)

    def __mul__(self, other):
        if isinstance(other, bool) or not isinstance(other, (int, np.integer)):
            return NotImplemented
        return HalfInt(self.doubled * int(other))

    __rmul__ = __mul__

    def __eq__(self, other):
        d = self._coerce(other)
        return NotImplemented if d is NotImplemented else self.doubled == d

    def __lt__(self, other):
        d = self._coerce(other)
        return NotImplemented if d is NotImplemented else self.doubled < d

    def __le__(self, other):
        d = self._coerce(other)
        return NotImplemented if d is NotImplemented else self.doubled <= d

    def __gt__(self, other):
        d = self._coerce(other)
        return NotImplemented if d is NotImplemented else self.doubled > d

    def __ge__(self, other):
        d = self._coerce(other)
        return NotImplemented if d is NotImplemented else self.doubled >= d

    def __hash__(self):
        return hash(Fraction(self.doubled, 2))

    def __str__(self):
        if self.is_integer:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"

    def __repr__(self):
        return f"HalfInt({self})"


# ---------------------------------------------------------------------------
# crossing enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CzPathData:
    sgn_start: int  # sgn(S), weighted 1/2
    interior: tuple  # tuple[(time, signature)], full weight
    endpoint: tuple | None  # (time, signature) at t = T, weighted 1/2

    @property
    def index(self) -> HalfInt:
        doubled = self.sgn_start + (self.endpoint[1] if self.endpoint else 0)
        doubled += 2 * sum(sig for _, sig in self.interior)
        return HalfInt(doubled)


def _imaginary_frequencies(JS, tol):
    """Distinct positive imaginary parts of imaginary eigenvalues of JS.

    Works from the clustered Jordan spectrum rather than raw eigenvalues:
    a defective imaginary pair scatters raw eigenvalues onto a ring of
    radius ~eps^(1/m), which a plain real-part filter misreads as
    off-axis, silently dropping the crossing.
    """
    spec = spectrum_with_jordan(JS, tol)
    vals = [it.eigenvalue for it in spec.items]
    scale = max(1.0, float(max(abs(z) for z in vals)))
    mus = sorted(z.imag for z in vals
                 if abs(z.real) <= tol.eig_cluster * scale
                 and z.imag > tol.eig_cluster * scale)
    distinct = []
    for mu in mus:
        if distinct and abs(mu - distinct[-1]) <= tol.eig_cluster * scale:
            continue
        distinct.append(float(mu))
    return distinct


class _Crossings:
    """The crossings of exp(t J S) on (0, horizon], enumerated once.

    Crossing times are 2 pi j / mu for the imaginary eigenvalue
    frequencies mu of J S; coincident times (within tol.crossing) are
    merged into a single crossing with the combined kernel.  With
    ``signed`` every merged crossing is signed in time order, each
    resonant frequency set once (its kernel does not depend on the time),
    and the index on [0, T] for any T up to the horizon is read off a
    prefix sum of the signatures (catenation of the crossing-form index).

    A query at T sees exactly what a pass with horizon T sees: the events
    up to T + tol.crossing, merged as they would be on their own.  Only
    the last merged crossing before that cut can lose members to it; it
    starts within tol.crossing of T, so it is never interior, and as the
    endpoint it is signed on the frequencies of the events it keeps.
    """

    def __init__(self, S, horizon: float, tol: Tolerances, signed: bool = True):
        S = sym_matrix(S)
        horizon = float(horizon)
        if not (np.isfinite(horizon) and horizon > 0):
            raise InputError(f"path length T must be positive, got {horizon!r}")
        self.S, self.horizon, self.tol = S, horizon, tol
        self.sgn_start = 0
        events = []  # (time, mu)
        if S.size:
            if S.shape[0] % 2 != 0:
                raise InputError("S must act on an even-dimensional space")
            if signed:
                self.sgn_start = signature(S, tol)  # raises DegenerateInput on a kernel
            self.JS = standard_J(S.shape[0] // 2) @ S
            for mu in _imaginary_frequencies(self.JS, tol):
                j = 1
                while True:
                    t = TWO_PI * j / mu
                    if t > horizon + tol.crossing:
                        break
                    events.append((t, mu))
                    j += 1
            events.sort()
        self.events = events
        self.event_times = [t for t, _ in events]
        self.starts = []  # index of the first event of each merged crossing
        for i, t in enumerate(self.event_times):
            if not self.starts or abs(t - self.event_times[self.starts[-1]]) > tol.crossing:
                self.starts.append(i)
        self.times = [self.event_times[i] for i in self.starts]
        self._bases = {}  # mu -> basis of the mu i eigenspace of J S
        self._signatures = {}  # resonant frequencies -> signature of S on their kernel
        if signed:
            sigs = [0 if t <= tol.crossing else self._signature(g, len(events))
                    for g, t in enumerate(self.times)]
            self.prefix = list(accumulate(sigs, initial=0))

    def _stop(self, g: int) -> int:
        return self.starts[g + 1] if g + 1 < len(self.starts) else len(self.events)

    def _signature(self, g: int, cut: int) -> int:
        """Signature of S on the kernel at merged crossing g, made of its
        events before index ``cut``.

        That kernel is the sum of the mu i eigenspaces of J S over the
        frequencies mu resonant there, whatever the time, so the signature
        is memoized by their ordered tuple.  A degenerate form raises at
        every crossing that meets it and is never cached.
        """
        mus = tuple(mu for _, mu in self.events[self.starts[g]:min(self._stop(g), cut)])
        sig = self._signatures.get(mus)
        if sig is None:
            bases = []
            for mu in mus:
                if mu not in self._bases:
                    self._bases[mu] = imaginary_eigenspace_basis(self.JS, mu, self.tol)
                bases.append(self._bases[mu])
            try:
                sig = restricted_signature(self.S, np.hstack(bases), self.tol)
            except DegenerateRestriction as exc:
                raise CrossingDegenerate(
                    f"degenerate crossing form at t = {self.times[g]}: {exc}") from exc
            self._signatures[mus] = sig
        return sig

    def _split(self, T: float) -> tuple:
        """(first, stop, end, cut) for the path on [0, T]: merged crossings
        first .. stop-1 are interior, crossing ``end`` (or None) is the
        endpoint, and the path sees the events before index ``cut``."""
        tol = self.tol.crossing
        cut = bisect_right(self.event_times, T + tol)
        last = bisect_right(self.starts, cut - 1)
        first = bisect_right(self.times, tol, 0, last)
        stop = bisect_left(self.times, True, first, last, key=lambda t: t - T >= -tol)
        end = bisect_left(self.times, True, stop, last, key=lambda t: t - T > tol)
        return first, stop, (end - 1 if end > stop else None), cut

    def _endpoint_signature(self, g: int, cut: int) -> int:
        if self._stop(g) <= cut:
            return self.prefix[g + 1] - self.prefix[g]
        return self._signature(g, cut)

    def index(self, T: float) -> HalfInt:
        first, stop, end, cut = self._split(T)
        doubled = self.sgn_start + 2 * (self.prefix[stop] - self.prefix[first])
        if end is not None:
            doubled += self._endpoint_signature(end, cut)
        return HalfInt(doubled)

    def data(self, T: float) -> CzPathData:
        first, stop, end, cut = self._split(T)
        interior = tuple((self.times[g], self.prefix[g + 1] - self.prefix[g])
                         for g in range(first, stop))
        endpoint = None if end is None else (self.times[end], self._endpoint_signature(end, cut))
        return CzPathData(self.sgn_start, interior, endpoint)

    def crossing_times(self, T: float) -> tuple:
        first, stop, end, _ = self._split(T)
        return tuple(self.times[first:stop]) + (() if end is None else (self.times[end],))


def cz_index_data(S, T: float, tol: Tolerances = DEFAULT_TOL) -> CzPathData:
    """Crossing data of the path exp(t J S) on [0, T], T > 0."""
    path = _Crossings(S, T, tol)
    return path.data(path.horizon)


def cz_index_path(S, T: float, tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Conley-Zehnder index of t |-> exp(t J S) on [0, T]."""
    return cz_index_data(S, T, tol).index


def crossing_times(S, T: float, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """All crossing times in (0, T], endpoint included when resonant.

    Only locates the crossings; no signature is computed.
    """
    path = _Crossings(S, T, tol, signed=False)
    return path.crossing_times(path.horizon)


# ---------------------------------------------------------------------------
# family-level indices
# ---------------------------------------------------------------------------


def sigma_index(family: OrbitFamily, pole: str) -> HalfInt:
    """Signature index of the Morse-Bott extremum on the family.

    Sphere families S^(2m-1): -(m - 1/2) at the minimum, m - 1/2 at the
    maximum.  The stationary compact family behaves like the sphere with
    m = k; the stationary noncompact family has -(n - 1/2) at the minimum
    and k - 1/2 at the maximum.
    """
    if pole not in ("min", "max"):
        raise InputError(f"pole must be 'min' or 'max', got {pole!r}")
    if family.topology in ("sphere", "sigma0"):
        m = family.m
        return HalfInt(-(2 * m - 1)) if pole == "min" else HalfInt(2 * m - 1)
    if family.topology == "sigma":
        if pole == "min":
            return HalfInt(-(2 * family.n - 1))
        return HalfInt(2 * family.k - 1)
    raise InputError(f"unknown topology {family.topology!r}")


def grading(family: OrbitFamily, pole: str) -> HalfInt:
    """Full grading: transverse index + signature index + 1/2, summed as
    doubled integers.

    A nonstationary family carries its transverse index from the census
    (``generator_census``); one without it is rejected.
    """
    if family.eta == 0.0:
        cz = 0
    elif family.cz_transverse is None:
        raise InputError(f"family at eta = {family.eta} carries no transverse index; "
                         "grade it through generator_census")
    else:
        cz = family.cz_transverse.doubled
    return HalfInt(cz + sigma_index(family, pole).doubled + 1)
