"""Command-line front end.

Input is a single JSON document describing the Hamiltonian:

    {
      "n": 3, "k": 1,                          // JSON integers, as are m and gamma
      "a0": {"frequencies": [1.0]},            // or {"matrix": [[...], ...]}
      "a1": {"blocks": [{"kind": "a", "m": 1, "re": 1.0}]},   // or matrix
      "tolerances": {"eig_cluster": 1e-9}      // optional; crossing > 0, the others in (0, 1)
    }

Every other number is a finite JSON number: a string, a bool or an integer
past the float range is refused, never read as one.

Exit codes: 0 success, 1 input error, 2 numerical failure, 3 internal
inconsistency (including acceptance self-test failures).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
from itertools import chain, repeat
import json
import os
import sys

import numpy as np

from .errors import (
    Inconsistent,
    InputError,
    InternalError,
    NumericalError,
    RfhquadError,
    Underdetermined,
)
from .hormander import NormalForm, _block_dim, block_signatures, build_block, classify, normal_form
from .orbits import ActionWindow, _census, _generators, _sigma_doubled
from .rfh import rfh_report
from .selftest import BASE_SEED, run_all
from .symlin import DEFAULT_TOL, Tolerances, _is_integer, _is_real
from .tentacular import (
    QuadraticHamiltonian,
    TentacularVerdict,
    tentacular_check,
    validate,
)

TOL_ENV = "RFHQUAD_TOLERANCES"
_TOL_FIELDS = tuple(f.name for f in dataclasses.fields(Tolerances))

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
    if not merged:
        return DEFAULT_TOL
    unknown = set(merged).difference(_TOL_FIELDS)
    if unknown:
        raise InputError(
            f"unknown tolerance fields: {sorted(unknown)}; knowns: {sorted(_TOL_FIELDS)}")
    return dataclasses.replace(
        DEFAULT_TOL, **{name: _number(v, f"tolerance {name}") for name, v in merged.items()})


def _matrix_from(rows, name) -> np.ndarray:
    """The matrix of a JSON array of rows.  Rows of floats alone are taken
    whole, their entry types checked at once (NaN and inf are for
    ``symlin._as_square`` to refuse); else each entry is read by ``_number``."""
    field = f"{name} matrix"
    rows = _array(rows, field)
    if not (all(type(r) is list for r in rows)
            and {float}.issuperset(map(type, chain.from_iterable(rows)))):
        rows = [[_number(x, f"{field} entry") for x in _array(r, f"{field} row")] for r in rows]
    try:
        M = np.array(rows, dtype=float)
    except ValueError as exc:  # rows of unequal length
        raise InputError(f"{field} is not rectangular: {exc}") from exc
    return M if M.size else np.zeros((0, 0))


def _parse_spec(doc: dict) -> _ParsedSpec:
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    for key in ("n", "k", "a0"):
        if key not in doc:
            raise InputError(f"missing required field {key!r}")
    n, k = _integer(doc["n"], "n"), _integer(doc["k"], "k")
    tol = _load_tolerances(doc.get("tolerances"))

    a0_doc = doc["a0"]
    a1_doc = doc.get("a1")
    frequencies = None
    if isinstance(a0_doc, dict) and "frequencies" in a0_doc:
        frequencies = sorted(_number(f, "a0 frequency")
                             for f in _array(a0_doc["frequencies"], "a0 frequencies"))
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
    elif isinstance(a1_doc, dict) and "blocks" in a1_doc:
        block_args = []
        for i, item in enumerate(_array(a1_doc["blocks"], "a1 blocks")):
            field = f"a1 block {i}"
            if not isinstance(item, dict) or "kind" not in item or "m" not in item:
                raise InputError(f"{field} needs 'kind' and 'm', got {json.dumps(item)}")
            gamma = item.get("gamma")
            block_args.append((item["kind"], _integer(item["m"], f"{field} m"),
                               complex(_number(item.get("re", 0.0), f"{field} re"),
                                       _number(item.get("im", 0.0), f"{field} im")),
                               None if gamma is None else _integer(gamma, f"{field} gamma")))
        dim = sum(_block_dim(kind, m) for kind, m, _, _ in block_args)  # nothing built yet
        if dim != 2 * (n - k):
            raise InputError(f"a1 blocks span dimension {dim}, expected {2 * (n - k)}")
        nf1 = normal_form([build_block(kind, m, lam, gamma=gamma)
                           for kind, m, lam, gamma in block_args])
        a1 = nf1.matrix
        echo_a1 = {"blocks": [_block_echo(b) for b in nf1.blocks]}
    elif isinstance(a1_doc, dict) and "matrix" in a1_doc:
        a1 = _matrix_from(a1_doc["matrix"], "a1")
        echo_a1 = {"matrix": a1.tolist()}
    else:
        raise InputError("a1 must carry either 'blocks' or 'matrix'")

    H = (QuadraticHamiltonian(n, k, a0, a1) if frequencies is None
         else QuadraticHamiltonian.from_frequencies(n, k, frequencies, a1))
    echo = {"n": n, "k": k, "a0": echo_a0, "a1": echo_a1,
            "tolerances": {name: getattr(tol, name) for name in _TOL_FIELDS}}
    return _ParsedSpec(H, tol, echo, nf1)


def _array(value, field: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{field} must be a JSON array, got {json.dumps(value)}")
    return value


def _number(value, field: str) -> float:
    """A finite JSON number as a float, by ``symlin._is_real``; nothing else is converted."""
    if not _is_real(value):
        finite = "finite " if type(value) in (int, float) else ""  # a JSON number, yet no float
        raise InputError(f"{field} must be a {finite}number, got {json.dumps(value)}")
    return float(value)


def _integer(value, field: str) -> int:
    """A JSON integer; booleans, fractions and strings are refused, not truncated."""
    if not _is_integer(value):
        raise InputError(f"{field} must be an integer, got {json.dumps(value)}")
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


def _half(doubled: int):
    """JSON-friendly exact value of the half-integer doubled / 2: int when
    integral, else a float (halves are exact in binary)."""
    return doubled / 2 if doubled % 2 else doubled // 2


_CONTAINERS = (dict, list, tuple)


def _holds_no_container(values) -> bool:
    return not any(map(isinstance, values, repeat(_CONTAINERS)))


def _flat(o) -> bool:
    """Whether o is a dict, list or tuple of exact type holding no container."""
    t = type(o)
    if t is dict:
        return _holds_no_container(o.values())
    return (t is list or t is tuple) and _holds_no_container(o)


def _rows(o) -> bool:
    """Whether o is a list or tuple of exact type holding only non-empty
    flat containers, all dicts or all lists and tuples."""
    if type(o) is not list and type(o) is not tuple:
        return False
    kinds = set(map(type, o))
    if kinds == {dict}:
        values = chain.from_iterable(map(dict.values, o))
    elif kinds <= {list, tuple}:
        values = chain.from_iterable(o)
    else:
        return False
    return all(o) and _holds_no_container(values)


def _indented_json(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, at the speed of json's
    C encoder, which on its own serves only ``indent=None``.

    Python walks only the containers that hold containers.  A flat one (a
    dict, list or tuple of exact type holding no container) is one call
    of the C encoder, with ",\\n" and its items' indentation as item
    separator; the newlines after its opening and before its closing
    bracket are added here.  A list or tuple of non-empty flat containers,
    all dicts or all lists and tuples, is one call too, at the indentation
    of its items' items, and the joins between its items are re-indented
    by ``str.replace``.  That is safe because the encoder escapes control
    characters in strings, so a raw ",\\n" is a separator asked for here.
    Subclasses of dict, list and tuple are walked, so each is iterated as
    json iterates it.  A flat dict may hold int, float, bool and None keys,
    which the C encoder writes as json does.  No circular reference is
    looked for: the CLI's documents are trees.
    """
    default = json.JSONEncoder().default
    encoders = {}
    out = []

    def encode(o, depth: int) -> str:
        # the C encoding of o, each item separator ending in depth's indentation
        enc = encoders.get(depth)
        if enc is None:
            enc = encoders[depth] = json.encoder.c_make_encoder(
                None, default, json.encoder.encode_basestring_ascii, None,
                ": ", ",\n" + "  " * depth, False, False, True)
        return "".join(enc(o, 0))

    def member(head: str, o, depth: int) -> None:
        # head, then o, which starts on a line indented to depth
        if not isinstance(o, _CONTAINERS):
            out.append(head + encode(o, 0))
            return
        if not o:
            out.append(head + ("{}" if isinstance(o, dict) else "[]"))
            return
        pad, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
        if _flat(o):
            text = encode(o, depth + 1)
            out.append(head + text[0] + inner + text[1:-1] + pad + text[-1])
        elif _rows(o):
            deep = "\n" + "  " * (depth + 2)
            text = encode(o, depth + 2)
            opening, closing = text[1], text[-2]
            rows = text[2:-2].replace(closing + "," + deep + opening,
                                      inner + closing + "," + inner + opening + deep)
            out.append(head + text[0] + inner + opening + deep + rows
                       + inner + closing + pad + text[-1])
        elif isinstance(o, dict):
            out.append(head + "{")
            sep = inner
            for key, value in o.items():
                if not isinstance(key, str):
                    if key is not None and not isinstance(key, (int, float)):
                        raise TypeError("keys must be str, int, float, bool or None, "
                                        f"not {key.__class__.__name__}")
                    key = encode(key, 0)
                member(sep + json.encoder.encode_basestring_ascii(key) + ": ", value, depth + 1)
                sep = "," + inner
            out.append(pad + "}")
        else:
            out.append(head + "[")
            sep = inner
            for value in o:
                member(sep, value, depth + 1)
                sep = "," + inner
            out.append(pad + "]")

    member("", obj, 0)
    return "".join(out)


def _write_json(doc) -> None:
    sys.stdout.write(_indented_json(doc) + "\n")  # one write, not one per token


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
    for b, (p, q) in zip(nf.blocks, block_signatures(nf.blocks, spec.tol)):
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
    w, fams = _census(spec.H, _window(args), spec.tol)

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
    w, fams = _census(spec.H, _window(args), spec.tol)
    gens = _generators(fams)

    def table():
        yield f"generators with action in [{w.lo:.9g}, {w.hi:.9g}]: {len(gens)}"
        yield f"  {'side':<4} {'eta':>14}  {'pole':<4} {'mu_sigma':>9} {'mu_cz':>6} {'mu':>5}"
        for g in gens:
            yield (f"  {g.family.side:<4} {g.action:>14.9g}  {g.pole:<4} "
                   f"{str(g.sigma_index):>9} {str(g.family.cz_transverse):>6} "
                   f"{str(g.grading):>5}")

    jgens = [{"side": (f := g.family).side, "eta": f.eta, "pole": g.pole, "m": f.m,
              "sigma_index": _half(_sigma_doubled(f, g.pole)),
              "cz_transverse": _half(f.cz_transverse.doubled), "grading": _half(g.grading.doubled)}
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
    except (NumericalError, np.linalg.LinAlgError) as exc:
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
