"""A fixed reference job that clocks how fast the machine runs right now.

On a shared host the speed of one vCPU drifts by a fifth or more over
minutes (neighbours' load, shared caches), and every op slows with it.
The timed loop runs this job between ops and divides each op's latency
by the job's speed in the same pass, so the end-to-end latencies read as
on a machine where the job takes REFERENCE_MS.  The job never touches
rfhquad and mixes what the ops spend their time on: single small SVDs
and eigensolves called from Python, a Pade expm, a batched SVD with an
einsum, and a JSON round trip.
"""

from __future__ import annotations

import json
import time

import numpy as np
from scipy.linalg import expm

# The job's median time over 6000 runs in 18 minutes on a shared 2-vCPU
# x86-64 VM (Python 3.11, numpy 2.4, OpenBLAS, one BLAS thread), where its
# quartiles were 1.96 and 3.02 ms.  A fixed unit, never measured per run.
REFERENCE_MS = 2.5

_rng = np.random.default_rng(20061683)
_SMALL = _rng.normal(size=(6, 6))
_SYM = _SMALL + _SMALL.T
_STACK = _rng.normal(size=(64, 6, 6))
_DOC = {"n": 6, "k": 3, "a0": {"matrix": _SYM.tolist()}, "a1": {"matrix": _SYM.tolist()}}


def job() -> float:
    """Run the reference job once; return a checksum so none of it is dead."""
    acc = 0.0
    for _ in range(40):
        acc += float(np.linalg.svd(_SMALL, compute_uv=False)[0])
        acc += float(np.linalg.eigvalsh(_SYM)[0])
    acc += float(expm(0.1 * _SMALL)[0, 0])
    s = np.linalg.svd(_STACK, compute_uv=False)
    acc += float(np.einsum("ij,ij->", s, s))
    for _ in range(5):
        acc += len(json.dumps(json.loads(json.dumps(_DOC))))
    return acc


def time_job() -> float:
    """Seconds one run of the job takes now."""
    t0 = time.perf_counter()
    job()
    return time.perf_counter() - t0
