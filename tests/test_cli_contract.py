"""The CLI's contract on any document: a spec subcommand ends in exit 0, 1
or 2, never in a traceback; a non-zero exit says why on stderr, and exit 0
under ``--json`` writes JSON.

Documents come from the spec grammar.  A valid one is drawn first: n, k,
A0 as frequencies or as a matrix, A1 as normal-form blocks or as a matrix,
and some tolerances.  Then one or two of its nodes are replaced by a leaf
from a fixed list of values that a reader of numbers can get wrong (bools,
null, numeric strings, 0, -1, 10**400, +-1e308, 1e-320, NaN, inf, [], {},
3.5, 40), or removed.  Exit 3 means a bug, so it fails the test; the one
known class, a coarse crossing tolerance (ROADMAP item 3), is a strict
xfail below.
"""

import contextlib
import copy
import io
import json
import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rfhquad import build_block, normal_form
from rfhquad.cli import main

SUBCOMMANDS = ("check", "classify", "orbits", "census", "rfh")
LEAVES = (True, False, None, "2", "1e-8", 0, -1, 10**400, 1e308, -1e308, 1e-320,
          math.nan, math.inf, [], {}, 3.5, 40)
_DELETE = object()
BLOCKS = {  # one-block fillings of a hyperbolic factor, by its dof
    1: [{"kind": "a", "m": 1, "re": 0.7}, {"kind": "c", "m": 1, "im": 1.3, "gamma": 1}],
    2: [{"kind": "a", "m": 2, "re": 1.5}, {"kind": "b", "m": 1, "re": 0.5, "im": 2.0}],
}


def run(argv, doc) -> tuple:
    """(exit, stdout, stderr) of ``main(argv)`` with ``doc`` on stdin."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@st.composite
def valid_documents(draw) -> dict:
    """A well-formed document of the spec grammar: k elliptic and h other
    dof, A0 and A1 each in one of their two forms.  A kind 'c' block makes
    A1 no hyperbolic factor, which check reports and rfh refuses."""
    k, h = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    freqs = draw(st.lists(st.sampled_from([1.0, 1.3, 2.8, 4.7]), min_size=k, max_size=k,
                          unique=True))
    fillings = [[b] for b in BLOCKS[h]]
    if h == 2:
        fillings.append([BLOCKS[1][0], dict(BLOCKS[1][0], re=2.0)])
    blocks = [dict(b) for b in draw(st.sampled_from(fillings))]
    doc = {"n": k + h, "k": k}
    doc["a0"] = (
        {"frequencies": freqs} if draw(st.booleans())
        else {"matrix": [[f if i == j else 0.0 for j, f in enumerate(freqs + freqs)]
                         for i in range(2 * k)]})
    if draw(st.booleans()):
        doc["a1"] = {"blocks": blocks}
    else:
        nf = normal_form([build_block(b["kind"], b["m"], complex(b.get("re", 0), b.get("im", 0)),
                                      b.get("gamma")) for b in blocks])
        doc["a1"] = {"matrix": nf.matrix.tolist()}
    tol = {"eig_cluster": 1e-9, "rank_cut": 1e-10, "crossing": 1e-10}
    doc["tolerances"] = {name: tol[name] for name in draw(st.sets(st.sampled_from(sorted(tol))))}
    return doc


def _paths(node, prefix=()):
    """Every path into node, the root excepted, containers before their items."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def documents(draw) -> dict:
    """A valid document with one or two nodes replaced or removed."""
    doc = draw(valid_documents())
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        leaf = draw(st.sampled_from(LEAVES + (_DELETE,)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if leaf is _DELETE:
            del parent[path[-1]]
            continue
        parent[path[-1]] = copy.deepcopy(leaf)
        if len(path) == 4 and path[1] == "matrix":  # an entry: keep the matrix symmetric
            with contextlib.suppress(LookupError, TypeError):  # unless a row is gone
                doc[path[0]]["matrix"][path[3]][path[2]] = copy.deepcopy(leaf)
    return doc


def check_contract(doc, sub: str, as_json: bool) -> int:
    """Run one subcommand on doc and assert the contract; returns the exit."""
    code, out, err = run([sub, "-"] + ["--json"] * as_json, doc)
    assert code in (0, 1, 2), (code, err)
    if code:
        assert err.strip(), code
    elif as_json:
        json.loads(out)
    return code


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(documents())
def test_every_document_meets_the_contract(doc):
    for sub in SUBCOMMANDS:
        for as_json in (False, True):
            check_contract(doc, sub, as_json)


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_valid_documents_exit_zero(sub):
    """The unmutated documents are valid: every subcommand answers them."""
    for doc in (
        {"n": 3, "k": 2, "a0": {"frequencies": [2.8, 4.7]}, "a1": {"blocks": [BLOCKS[1][0]]}},
        {"n": 3, "k": 1, "a0": {"matrix": [[1.3, 0.0], [0.0, 1.3]]},
         "a1": {"matrix": normal_form([build_block("a", 2, 1.5)]).matrix.tolist()}},
    ):
        assert check_contract(doc, sub, True) == 0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: an absolute crossing tolerance merges the crossings of two "
    "frequencies that lie within it, and the census's phase test then counts one "
    "resonant frequency where the merge gave two (ResonanceMismatch, exit 3)"))
@pytest.mark.parametrize("freqs, crossing", [([2.8, 4.7], 0.5), ([1.0, 1.3], 3.5)],
                         ids=["2.8-4.7-crossing-0.5", "1.0-1.3-crossing-3.5"])
def test_a_coarse_crossing_tolerance_is_no_internal_inconsistency(freqs, crossing):
    doc = {"n": 3, "k": 2, "a0": {"frequencies": freqs},
           "a1": {"blocks": [BLOCKS[1][0]]}, "tolerances": {"crossing": crossing}}
    check_contract(doc, "census", True)
