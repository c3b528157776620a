"""Scaling sweeps for the traced run, each reduced to a log-log slope.

A slope of 1 is linear growth.  The seed census costs grow with the
square of the window width; over 2x-32x, where fixed costs still weigh
on the narrow end, its slope reads about 1.6 on a 2-vCPU machine.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import rfhquad
from rfhquad import samples

from expected import TWO_PI

REPS = 3


def _median_seconds(fn, reps: int = REPS) -> float:
    """Median wall time of fn(); a call that raises is timed as it ran."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        try:
            fn()
        except Exception:
            pass
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _fit(xs, ys) -> dict:
    slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    return {"slope": slope,
            "points": [[float(x), round(1e3 * y, 4)] for x, y in zip(xs, ys)]}


def census_over_window(rng) -> dict:
    """generator_census at window widths 2x .. 32x of 2 pi / mu_min, (n, k) = (4, 2)."""
    H = samples.random_hamiltonian(rng, 4, 2, 1.0, 1.5)
    mults = (2, 4, 8, 16, 32)
    ys = []
    for m in mults:
        w = m * TWO_PI / min(H.frequencies) + 1e-6
        ys.append(_median_seconds(
            lambda: rfhquad.generator_census(H, rfhquad.ActionWindow(-w, w))))
    return _fit(mults, ys)


def classify_over_n(rng) -> dict:
    """classify on sampler Hamiltonians at n = 6, 10, 20, 40; median of five draws."""
    ns = (6, 10, 20, 40)
    ys = []
    for n in ns:
        mats = [samples.random_hamiltonian(rng, n, int(rng.integers(1, n))).full_matrix
                for _ in range(5)]
        ys.append(statistics.median(_median_seconds(lambda: rfhquad.classify(A), 1)
                                    for A in mats))
    return _fit(ns, ys)


def index_over_horizon(rng) -> dict:
    """cz_index_data on one dof-3 elliptic form at T = 5 .. 80."""
    horizons = (5.0, 10.0, 20.0, 40.0, 80.0)
    S = samples.random_elliptic_form(rng, 3, horizon=horizons[-1] + 0.1)
    ys = [_median_seconds(lambda: rfhquad.cz_index_data(S, T), 5) for T in horizons]
    return _fit(horizons, ys)


def run_all(seed: int) -> dict:
    rng = np.random.default_rng([seed, 99])
    return {
        "czindex.census_growth_exponent": census_over_window(rng),
        "hormander.classify_growth_exponent": classify_over_n(rng),
        "czindex.horizon_growth_exponent": index_over_horizon(rng),
    }
