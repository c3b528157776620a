"""Command-line front end.

Input is a single JSON document describing the Hamiltonian:

    {
      "n": 3, "k": 1,
      "a0": {"frequencies": [1.0]},            // or {"matrix": [[...], ...]}
      "a1": {"blocks": [{"kind": "a", "m": 1, "re": 1.0}]},   // or matrix
      "tolerances": {"eig_cluster": 1e-9}      // optional overrides
    }

Exit codes: 0 success, 1 input error, 2 numerical failure, 3 internal
inconsistency (including acceptance self-test failures).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .czindex import HalfInt
from .errors import (
    Inconsistent,
    InputError,
    InternalError,
    NumericalError,
    RfhquadError,
    Underdetermined,
)
from .hormander import NormalForm, block_signature, build_block, classify, normal_form
from .orbits import ActionWindow, _census, _orbit_families
from .rfh import _generators, rfh_report
from .selftest import BASE_SEED, run_all
from .symlin import DEFAULT_TOL, Tolerances
from .tentacular import (
    QuadraticHamiltonian,
    TentacularVerdict,
    tentacular_check,
    validate,
)

TOL_ENV = "RFHQUAD_TOLERANCES"

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse's default error() exits with status 2, which this tool
    # reserves for numerical failures
    def error(self, message):
        raise InputError(message)


@dataclasses.dataclass
class _ParsedSpec:
    H: QuadraticHamiltonian
    tol: Tolerances
    echo: dict
    a1_blocks: NormalForm | None  # present when a1 came in as blocks


def _load_tolerances(doc_tol) -> Tolerances:
    sources = []
    env = os.environ.get(TOL_ENV)
    if env:
        try:
            sources.append((TOL_ENV, json.loads(env)))
        except json.JSONDecodeError as exc:
            raise InputError(f"{TOL_ENV} is not valid JSON: {exc}") from exc
    if doc_tol is not None:
        sources.append(("tolerances", doc_tol))
    merged = {}
    for source, overrides in sources:
        if not isinstance(overrides, dict):
            raise InputError(f"{source} must be a JSON object")
        merged.update(overrides)
    names = {f.name for f in dataclasses.fields(Tolerances)}
    unknown = set(merged) - names
    if unknown:
        raise InputError(f"unknown tolerance fields: {sorted(unknown)}; knowns: {sorted(names)}")
    try:
        values = {k: float(v) for k, v in merged.items()}
    except (TypeError, ValueError) as exc:
        raise InputError(f"tolerances must be numbers: {exc}") from exc
    return dataclasses.replace(DEFAULT_TOL, **values)


def _matrix_from(rows, name) -> np.ndarray:
    try:
        M = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} matrix is not numeric: {exc}") from exc
    if M.size == 0:
        return np.zeros((0, 0))
    if M.ndim != 2:
        raise InputError(f"{name} matrix must be two-dimensional")
    return M


def _parse_spec(doc: dict) -> _ParsedSpec:
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    for key in ("n", "k", "a0"):
        if key not in doc:
            raise InputError(f"missing required field {key!r}")
    n, k = doc["n"], doc["k"]
    for key, value in (("n", n), ("k", k)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"{key} must be an integer, got {json.dumps(value)}")
    tol = _load_tolerances(doc.get("tolerances"))

    a0_doc = doc["a0"]
    a1_doc = doc.get("a1")
    frequencies = None
    block_args = None
    field = "a0 frequencies"
    try:
        if isinstance(a0_doc, dict) and "frequencies" in a0_doc:
            frequencies = sorted(float(f) for f in _array(a0_doc["frequencies"]))
        if isinstance(a1_doc, dict) and "blocks" in a1_doc:
            field = "a1 blocks"
            block_args = []
            for i, item in enumerate(_array(a1_doc["blocks"])):
                field = f"a1 block {i}"
                kind, m = item["kind"], _integer(item["m"], "m")
                lam = complex(float(item.get("re", 0.0)), float(item.get("im", 0.0)))
                gamma = item.get("gamma")
                if gamma is not None:
                    gamma = _integer(gamma, "gamma")
                block_args.append((kind, m, lam, gamma))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{field}: {exc}") from exc

    if frequencies is not None:
        a0 = (np.diag(np.concatenate([frequencies] * 2))
              if frequencies else np.zeros((0, 0)))
        echo_a0 = {"frequencies": frequencies}
    elif isinstance(a0_doc, dict) and "matrix" in a0_doc:
        a0 = _matrix_from(a0_doc["matrix"], "a0")
        echo_a0 = {"matrix": a0.tolist()}
    else:
        raise InputError("a0 must carry either 'frequencies' or 'matrix'")

    nf1 = None
    if a1_doc is None:
        if n != k:
            raise InputError("a1 is required when k < n")
        a1 = np.zeros((0, 0))
        echo_a1 = {"matrix": []}
    elif block_args is not None:
        nf1 = normal_form([build_block(kind, m, lam, gamma=gamma)
                           for kind, m, lam, gamma in block_args])
        if nf1.total_dim != 2 * (n - k):
            raise InputError(
                f"a1 blocks span dimension {nf1.total_dim}, expected {2 * (n - k)}")
        a1 = nf1.matrix
        echo_a1 = {"blocks": [_block_echo(b) for b in nf1.blocks]}
    elif isinstance(a1_doc, dict) and "matrix" in a1_doc:
        a1 = _matrix_from(a1_doc["matrix"], "a1")
        echo_a1 = {"matrix": a1.tolist()}
    else:
        raise InputError("a1 must carry either 'blocks' or 'matrix'")

    H = QuadraticHamiltonian(n, k, a0, a1,
                             tuple(frequencies) if frequencies is not None else None)
    echo = {"n": n, "k": k, "a0": echo_a0, "a1": echo_a1,
            "tolerances": dataclasses.asdict(tol)}
    return _ParsedSpec(H, tol, echo, nf1)


def _array(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON array, got {json.dumps(value)}")
    return value


def _integer(value, name: str) -> int:
    """A JSON integer; booleans, fractions and strings are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


def _block_echo(b) -> dict:
    out = {"kind": b.kind, "m": b.m, "re": b.lam.real, "im": b.lam.imag}
    if b.gamma is not None:
        out["gamma"] = b.gamma
    return out


def _read_doc(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc


def _num(h):
    """JSON-friendly exact value of a HalfInt: int when integral,
    else a float (halves are exact in binary)."""
    if isinstance(h, HalfInt):
        return h.as_int() if h.is_integer else float(h)
    return h


def _write_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")  # one write, not one per token


def _emit(args, human_lines, json_obj, echo=None):
    """Print ``json_obj`` (with the input echo) under --json, else the
    human lines; these may be a generator, consumed only without --json."""
    if args.json:
        doc = dict(json_obj)
        if echo is not None:
            doc["input_echo"] = echo
        _write_json(doc)
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> int:
    spec = _parse_spec(_read_doc(args.spec))
    nf = classify(spec.H.full_matrix, spec.tol)
    rows = []
    jblocks = []
    for b in nf.blocks:
        p, q = block_signature(b, spec.tol)
        rows.append(f"  {b.kind}  m={b.m}  lambda={b.lam.real:.9g}{b.lam.imag:+.9g}i"
                    + (f"  gamma={b.gamma:+d}" if b.gamma is not None else "")
                    + f"  dim={b.dim}  signature=({p},{q})")
        jb = _block_echo(b)
        jb.update({"dim": b.dim, "signature": [p, q]})
        jblocks.append(jb)
    lines = [f"normal form of A ({nf.total_dim}x{nf.total_dim}): {len(nf.blocks)} blocks"]
    lines += rows
    _emit(args, lines, {"total_dim": nf.total_dim, "blocks": jblocks}, spec.echo)
    return 0


def _cmd_check(args) -> int:
    spec = _parse_spec(_read_doc(args.spec))
    report = validate(spec.H, spec.tol)
    if spec.H.a1.size == 0:
        verdict = TentacularVerdict(True, ())
    else:
        nf1 = spec.a1_blocks if spec.a1_blocks is not None else classify(spec.H.a1, spec.tol)
        verdict = tentacular_check(nf1)
    lines = [
        f"A0 positive definite: {report.positive_definite}",
        f"J A1 hyperbolic:      {report.hyperbolic}",
        f"1 <= k <= n-1:        {report.k_in_range}",
    ]
    if report.frequencies_match is not None:
        lines.append(f"frequencies match A0: {report.frequencies_match}")
    for c in verdict.trace:
        lines.append(f"  block {c.kind} m={c.m} lambda={c.lam.real:.6g}{c.lam.imag:+.6g}i: "
                     f"{c.case}, margin {c.margin:+.4g} -> {'ok' if c.passed else 'not met'}")
    lines.append(verdict.label)
    jtrace = [{"kind": c.kind, "m": c.m, "re": c.lam.real, "im": c.lam.imag,
               "case": c.case, "passed": c.passed, "margin": c.margin}
              for c in verdict.trace]
    _emit(args, lines, {
        "validation": {
            "positive_definite": report.positive_definite,
            "hyperbolic": report.hyperbolic,
            "k_in_range": report.k_in_range,
            "frequencies_match": report.frequencies_match,
            "all_ok": report.all_ok,
        },
        "tentacular": {"sufficient": verdict.sufficient, "label": verdict.label,
                       "trace": jtrace},
    }, spec.echo)
    return 0


def _window(args) -> ActionWindow | None:
    """The window --lo and --hi give, or None for the census's default."""
    if (args.lo is None) != (args.hi is None):
        raise InputError("--lo and --hi must be given together")
    return None if args.lo is None else ActionWindow(args.lo, args.hi)


def _cmd_orbits(args) -> int:
    spec = _parse_spec(_read_doc(args.spec))
    w, values = _census(spec.H, _window(args), spec.tol)
    fams = _orbit_families(spec.H, values)

    def table():
        yield f"orbit families with action in [{w.lo:.9g}, {w.hi:.9g}]: {len(fams)}"
        yield f"  {'eta':>14}  {'side':<4} {'m':>2}  {'topology':<22} dim"
        for f in fams:
            yield (f"  {f.eta:>14.9g}  {f.side:<4} {f.m:>2}  {f.topology_name:<22} "
                   f"{f.family_dim}")

    jfams = [{"eta": f.eta, "side": f.side, "m": f.m,
              "topology": f.topology_name, "family_dim": f.family_dim} for f in fams]
    _emit(args, table(), {"window": [w.lo, w.hi], "families": jfams}, spec.echo)
    return 0


def _cmd_census(args) -> int:
    spec = _parse_spec(_read_doc(args.spec))
    w, values = _census(spec.H, _window(args), spec.tol)
    gens = _generators(spec.H, values)

    def table():
        yield f"generators with action in [{w.lo:.9g}, {w.hi:.9g}]: {len(gens)}"
        yield f"  {'side':<4} {'eta':>14}  {'pole':<4} {'mu_sigma':>9} {'mu_cz':>6} {'mu':>5}"
        for g in gens:
            yield (f"  {g.family.side:<4} {g.action:>14.9g}  {g.pole:<4} "
                   f"{str(g.sigma_index):>9} {str(g.family.cz_transverse):>6} "
                   f"{str(g.grading):>5}")

    jgens = [{"side": g.family.side, "eta": g.action, "pole": g.pole,
              "m": g.family.m, "sigma_index": _num(g.sigma_index),
              "cz_transverse": _num(g.family.cz_transverse), "grading": _num(g.grading)}
             for g in gens]
    _emit(args, table(), {"window": [w.lo, w.hi], "generators": jgens}, spec.echo)
    return 0


def _cmd_rfh(args) -> int:
    spec = _parse_spec(_read_doc(args.spec))
    report = validate(spec.H, spec.tol)
    if not report.all_ok:
        raise InputError(f"Hamiltonian fails validation: {report.offending}")
    r = rfh_report(spec.H)

    def fmt(space):
        if not space:
            return "0"
        return ", ".join(f"Z2^{d} at {deg}" if d > 1 else f"Z2 at {deg}"
                         for deg, d in space.as_dict().items())

    lines = [
        f"RFH+   : {fmt(r.plus)}",
        f"RFH-   : {fmt(r.minus)}",
        f"RFH>=0 : {fmt(r.geq0)}",
        f"RFH    : {fmt(r.full)}",
    ]
    jnum = {name: {str(deg): d for deg, d in space.as_dict().items()}
            for name, space in (("plus", r.plus), ("minus", r.minus),
                                ("geq0", r.geq0), ("full", r.full))}
    _emit(args, lines, jnum, spec.echo)
    return 0


def _cmd_selftest(args) -> int:
    numbers = None
    if args.criteria:
        try:
            numbers = sorted({int(c) for c in args.criteria.split(",")})
        except ValueError as exc:
            raise InputError(f"--criteria wants comma-separated integers: {exc}") from exc
    stream = sys.stderr if args.json else sys.stdout
    results = run_all(numbers, stream=stream, seed=args.seed)
    if args.json:
        _write_json([dataclasses.asdict(r) for r in results])
    return 0 if all(r.passed for r in results) else 3


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="rfhquad",
        description="Rabinowitz Floer homology of split quadratic Hamiltonians.",
        epilog=(f"Default tolerances can be overridden by the {TOL_ENV} environment "
                'variable (JSON, e.g. {"eig_cluster": 1e-8}) and, with higher '
                "precedence, by a 'tolerances' object in the input document."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, window=False, needs_spec=True):
        p = sub.add_parser(name, help=help_text, description=help_text)
        if needs_spec:
            p.add_argument("spec", help="path to the JSON input document, or - for stdin")
        if window:
            p.add_argument("--lo", type=float, default=None, help="action window lower end")
            p.add_argument("--hi", type=float, default=None, help="action window upper end")
        p.add_argument("--json", action="store_true", help="emit structured JSON output")
        p.set_defaults(fn=fn)
        return p

    add("classify", _cmd_classify, "block normal form of the full quadratic form")
    add("check", _cmd_check, "validate the Hamiltonian and report the tentacular verdict")
    add("orbits", _cmd_orbits, "orbit families with action in a window", window=True)
    add("census", _cmd_census, "graded generator census over a window", window=True)
    add("rfh", _cmd_rfh, "graded homology with all intermediate theories")
    st = add("selftest", _cmd_selftest, "run the acceptance criteria suite", needs_spec=False)
    st.add_argument("--criteria", default=None,
                    help="comma-separated criterion numbers (default: all)")
    st.add_argument("--seed", type=int, default=BASE_SEED)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (InternalError, Underdetermined, Inconsistent) as exc:
        print(f"internal inconsistency: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except RfhquadError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
