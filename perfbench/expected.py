"""Closed forms that every benchmark op is checked against.

All Hamiltonians the benchmark generates have a diagonal elliptic factor
A0 = diag(mu, mu), so the Conley-Zehnder index of exp(tJA0) on [0, T] is
known exactly (Long, Index Theory for Symplectic Paths, 2002):

    cz(T) = k + 2 * #{(i, j >= 1): 2 pi j / mu_i < T} + #{(i, j): 2 pi j / mu_i = T}

and the gradings of a sphere family of resonance count m at action eta
are sign(eta) cz(|eta|) - m + 1 (minimum) and sign(eta) cz(|eta|) + m
(maximum).  A check raises WrongAnswer; it never returns a verdict.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
EDGE = 1e-8  # crit values this close to a window end may fall either side
MATCH = 1e-7  # relative tolerance for matching an eta to its closed form
LAM_TOL = 1e-6  # relative tolerance on classified eigenvalues


class WrongAnswer(Exception):
    """An op returned an output that contradicts its closed form."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise WrongAnswer(msg)


def crit_values(freqs, lo: float, hi: float):
    """Nonzero critical actions in [lo, hi] that lie at least EDGE inside
    it, and those within EDGE of an end (allowed either way)."""
    vals = []
    for mu in freqs:
        step = TWO_PI / mu
        j = np.arange(math.floor(lo / step) - 1, math.ceil(hi / step) + 2)
        vals.extend(j * step)
    vals = np.unique(np.round(np.asarray(vals), 12))
    vals = vals[vals != 0.0]
    inside = vals[(vals >= lo + EDGE) & (vals <= hi - EDGE)]
    edge = vals[(np.abs(vals - lo) < EDGE) | (np.abs(vals - hi) < EDGE)]
    return inside, edge


def resonance(freqs, T: float):
    """(m, cz) at T > 0: resonant frequency count and the closed-form index."""
    x = T * np.asarray(freqs) / TWO_PI
    j = np.rint(x)
    resonant = (j >= 1) & (np.abs(x - j) * TWO_PI / np.asarray(freqs) <= 1e-9)
    below = np.where(resonant, j - 1, np.floor(x))
    m = int(resonant.sum())
    return m, len(freqs) + 2 * int(below.sum()) + m


def crossings(freqs, T: float) -> int:
    """Number of crossing times of exp(tJA0) in (0, T]."""
    x = T * np.asarray(freqs) / TWO_PI
    return int(np.floor(x + 1e-9).sum())


def _check_etas(etas, freqs, lo, hi):
    """etas: the distinct actions found, zero included when present."""
    _require((0.0 in etas) == (lo <= 0.0 <= hi), "stationary families missing or misplaced")
    etas = [e for e in etas if e != 0.0]
    inside, edge = crit_values(freqs, lo, hi)
    allowed = np.concatenate([inside, edge])
    for eta in etas:
        _require(allowed.size > 0 and np.abs(allowed - eta).min() <= MATCH * max(1.0, abs(eta)),
                 f"eta {eta!r} is not a critical value")
    hit = sum(1 for eta in etas if lo + EDGE <= eta <= hi - EDGE)
    _require(hit == inside.size,
             f"{hit} critical values inside the window, expected {inside.size}")


def check_census(gens, freqs, n: int, k: int, lo: float, hi: float) -> None:
    """gens: iterable of (side, eta, pole, grading) with integer gradings."""
    gens = list(gens)
    by_eta: dict = {}
    for side, eta, pole, g in gens:
        by_eta.setdefault(round(eta, 9), []).append((side, pole, g))
    _check_etas(list(by_eta), freqs, lo, hi)
    for eta, members in by_eta.items():
        if eta == 0.0:
            want = {("H0", "min", 1 - k), ("H0", "max", k), ("H", "min", 1 - n), ("H", "max", k)}
        else:
            m, cz = resonance(freqs, abs(eta))
            _require(m >= 1, f"eta {eta} has no resonant frequency")
            cz = cz if eta > 0 else -cz
            want = {(side, "min", cz - m + 1) for side in ("H", "H0")}
            want |= {(side, "max", cz + m) for side in ("H", "H0")}
        _require(len(members) == 4 and set(members) == want,
                 f"generators at eta {eta}: {sorted(members)} != {sorted(want)}")
    positive_h0 = [g for side, eta, pole, g in gens if side == "H0" and eta > 0]
    if positive_h0:
        _require(min(positive_h0) == k + 1,
                 f"lowest positive-action H0 degree {min(positive_h0)} != k+1 = {k + 1}")


def check_orbits(fams, freqs, n: int, k: int, lo: float, hi: float) -> None:
    """fams: iterable of (side, eta, m)."""
    by_eta: dict = {}
    for side, eta, m in fams:
        by_eta.setdefault(round(eta, 9), set()).add((side, m))
    _check_etas(list(by_eta), freqs, lo, hi)
    for eta, members in by_eta.items():
        want = ({("H0", k), ("H", n)} if eta == 0.0
                else {(side, resonance(freqs, abs(eta))[0]) for side in ("H", "H0")})
        _require(members == want, f"families at eta {eta}: {sorted(members)} != {sorted(want)}")


def expected_blocks(freqs, a1_blocks):
    """(kind, m, re, im, gamma) of the normal form: one Krein-positive
    elliptic block per frequency plus the sampler's hyperbolic blocks."""
    out = [("c", 1, 0.0, float(mu), 1) for mu in freqs]
    out += [(b.kind, b.m, b.lam.real, b.lam.imag, b.gamma) for b in a1_blocks]
    return out


def check_blocks(got, want) -> None:
    """Both are lists of (kind, m, re, im, gamma); eigenvalues match to LAM_TOL."""
    _require(len(got) == len(want), f"{len(got)} blocks, expected {len(want)}")
    left = list(want)
    for kind, m, re, im, gamma in got:
        lam = complex(re, im)
        best = None
        for i, (wk, wm, wre, wim, wg) in enumerate(left):
            d = abs(lam - complex(wre, wim))
            if (wk, wm, wg) == (kind, m, gamma) and d <= LAM_TOL * max(1.0, abs(lam)):
                if best is None or d < best[0]:
                    best = (d, i)
        _require(best is not None, f"block {(kind, m, re, im, gamma)} matches no sampler block")
        left.pop(best[1])


def rfh_full(n: int, k: int) -> dict:
    """RFH of the level set: Z2 in degrees 1-n and -k, merged when k = n-1."""
    out = {1 - n: 1}
    out[-k] = out.get(-k, 0) + 1
    return out
