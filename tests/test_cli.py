import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfhquad
from rfhquad.cli import _indented_json, main
from rfhquad.samples import random_orthosymplectic, random_symplectic

SPEC31 = {
    "n": 3,
    "k": 1,
    "a0": {"frequencies": [1.0]},
    "a1": {"blocks": [
        {"kind": "a", "m": 1, "re": 1.0},
        {"kind": "a", "m": 1, "re": 0.7},
    ]},
}


@pytest.fixture
def spec31(tmp_path):
    path = tmp_path / "spec31.json"
    path.write_text(json.dumps(SPEC31))
    return str(path)


def write_spec(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_rfh_table(spec31, capsys):
    assert main(["rfh", spec31]) == 0
    out = capsys.readouterr().out
    assert "Z2 at -2" in out
    assert "Z2 at -1" in out


def test_rfh_json(spec31, capsys):
    assert main(["rfh", spec31, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["full"] == {"-2": 1, "-1": 1}
    assert doc["geq0"] == {"-2": 1}
    assert doc["plus"] == {"2": 1} and doc["minus"] == {"-1": 1}
    assert doc["input_echo"]["n"] == 3


def test_check_reports_verdict(spec31, capsys):
    assert main(["check", spec31]) == 0
    out = capsys.readouterr().out
    assert "sufficient" in out


def test_check_undecided_still_exits_zero(tmp_path, capsys):
    doc = {"n": 3, "k": 1, "a0": {"frequencies": [1.0]},
           "a1": {"blocks": [{"kind": "a", "m": 2, "re": 0.5}]}}
    assert main(["check", write_spec(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "not met" in out


@pytest.mark.parametrize("n,m,re", [(3, 2, 1.0), (3, 2, 0.5), (4, 3, 2.5), (4, 3, 1.0)])
def test_check_json_jordan_blocks(tmp_path, capsys, n, m, re):
    """Blocks of Jordan size 2 and 3 report plain JSON booleans and numbers."""
    doc = {"n": n, "k": 1, "a0": {"frequencies": [1.0]},
           "a1": {"blocks": [{"kind": "a", "m": m, "re": re}]}}
    assert main(["check", write_spec(tmp_path, doc), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    (block,) = out["tentacular"]["trace"]
    assert block["m"] == m
    assert type(block["passed"]) is bool
    assert type(block["margin"]) is float
    assert type(out["tentacular"]["sufficient"]) is bool
    threshold = 2 ** -0.5 if m == 2 else 2.0
    assert block["passed"] is (re > threshold)

def test_classify_lists_blocks(spec31, capsys):
    assert main(["classify", spec31, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    kinds = sorted(b["kind"] for b in doc["blocks"])
    assert kinds == ["a", "a", "c"]
    sig = [0, 0]
    for b in doc["blocks"]:
        sig[0] += b["signature"][0]
        sig[1] += b["signature"][1]
        assert b["dim"] in (2, 4)
    assert sig == [4, 2]  # definite 2x2 plus two split pairs


def test_orbits_window(spec31, capsys):
    assert main(["orbits", spec31, "--lo", "-7", "--hi", "7"]) == 0
    out = capsys.readouterr().out
    assert "-6.28" in out and "6.28" in out


def test_census_json_round_trips(spec31, capsys, tmp_path):
    assert main(["census", spec31, "--lo", "0.1", "--hi", "7", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    echoed = write_spec(tmp_path, first["input_echo"], "echo.json")
    assert main(["census", echoed, "--lo", "0.1", "--hi", "7", "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["generators"] == second["generators"]
    for g in first["generators"]:
        assert isinstance(g["grading"], int)


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SPEC31)))
    assert main(["rfh", "-"]) == 0
    assert "Z2" in capsys.readouterr().out


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["rfh", str(path)]) == 1


def test_missing_field_is_input_error(tmp_path):
    assert main(["rfh", write_spec(tmp_path, {"n": 2})]) == 1


def test_wrong_a1_dimension_is_input_error(tmp_path):
    doc = {"n": 3, "k": 1, "a0": {"frequencies": [1.0]},
           "a1": {"blocks": [{"kind": "a", "m": 1, "re": 1.0}]}}
    assert main(["rfh", write_spec(tmp_path, doc)]) == 1


def test_unknown_tolerance_is_input_error(tmp_path):
    doc = dict(SPEC31, tolerances={"wat": 1e-9})
    assert main(["rfh", write_spec(tmp_path, doc)]) == 1


def test_half_window_is_input_error(spec31):
    assert main(["orbits", spec31, "--lo", "-1"]) == 1


def test_unknown_subcommand_is_input_error(capsys):
    assert main(["frobnicate"]) == 1


def test_invalid_hamiltonian_is_input_error(tmp_path):
    doc = {"n": 2, "k": 1, "a0": {"frequencies": [1.0]},
           "a1": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}
    assert main(["rfh", write_spec(tmp_path, doc)]) == 1


NAN, INF = float("nan"), float("inf")
A1_PAIR = {"blocks": [{"kind": "a", "m": 1, "re": 1.0}]}


@pytest.mark.parametrize("cmd, a0, a1", [
    (["check"], {"frequencies": [1.0]}, {"blocks": [{"kind": "a", "m": 1, "re": NAN}]}),
    (["census"], {"frequencies": [INF]}, A1_PAIR),
    (["check", "--json"], {"matrix": [[NAN, 0.0], [0.0, 1.0]]}, A1_PAIR),
])
def test_non_finite_input_is_input_error(tmp_path, capsys, cmd, a0, a1):
    """JSON's NaN and Infinity literals are rejected, not computed with."""
    doc = {"n": 2, "k": 1, "a0": a0, "a1": a1}
    assert main([cmd[0], write_spec(tmp_path, doc), *cmd[1:]]) == 1
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("conjugation", ["orthosymplectic", "symplectic"])
def test_check_json_conjugated_jordan_two_matrix(tmp_path, capsys, conjugation):
    """An m = 2 hyperbolic block given as a conjugated matrix is classified
    as built, so check answers with the m = 2 threshold."""
    rng = np.random.default_rng(3)
    A = rfhquad.build_block("a", 2, 1.0).matrix
    for draw in range(10):
        if conjugation == "orthosymplectic":
            P = random_orthosymplectic(rng, 2)
        else:
            P = random_symplectic(rng, 2, magnitude=0.1)
        doc = {"n": 3, "k": 1, "a0": {"frequencies": [1.0]},
               "a1": {"matrix": (P.T @ A @ P).tolist()}}
        assert main(["check", write_spec(tmp_path, doc), "--json"]) == 0, draw
        out = json.loads(capsys.readouterr().out)
        (block,) = out["tentacular"]["trace"]
        assert (block["m"], block["case"]) == (2, "m=2"), draw


def test_rfh_refuses_a_conjugated_defective_imaginary_a1(tmp_path, capsys):
    """J A1 with an imaginary Jordan block of size 2 or 5, given as a
    conjugated matrix (U B U^T and U^T B U), is not hyperbolic: rfh --json
    exits 1 and names the flow eigenvalues.  The size-5 draw scatters them
    up to 2e-4 off the axis, where a rule by distance called A1 hyperbolic."""
    for m, seed in ((2, 0), (5, 2)):
        U = random_orthosymplectic(np.random.default_rng(seed), m)
        B = rfhquad.build_block("c", m, 1j, 1).matrix
        A1 = U @ B @ U.T if m == 2 else U.T @ B @ U
        doc = {"n": m + 1, "k": 1, "a0": {"matrix": np.eye(2).tolist()},
               "a1": {"matrix": A1.tolist()}}
        assert main(["rfh", write_spec(tmp_path, doc), "--json"]) == 1, m
        assert "a1_flow_eigenvalues" in capsys.readouterr().err, m


COLLIDING = {
    "n": 3, "k": 1,
    "a0": {"frequencies": [1.0]},
    "a1": {"blocks": [{"kind": "a", "m": 1, "re": 1.0},
                      {"kind": "a", "m": 1, "re": 1.3}]},
}


def test_cluster_collision_is_numerical_failure(tmp_path):
    doc = dict(COLLIDING, tolerances={"eig_cluster": 0.5})
    assert main(["classify", write_spec(tmp_path, doc)]) == 2


def test_env_tolerances_apply(tmp_path, monkeypatch):
    doc = dict(COLLIDING)
    path = write_spec(tmp_path, doc)
    assert main(["classify", path]) == 0
    monkeypatch.setenv("RFHQUAD_TOLERANCES", json.dumps({"eig_cluster": 0.5}))
    assert main(["classify", path]) == 2
    # document override outranks the environment
    doc["tolerances"] = {"eig_cluster": 1e-9}
    assert main(["classify", write_spec(tmp_path, doc, "fixed.json")]) == 0


def test_selftest_subset(capsys):
    assert main(["selftest", "--criteria", "3,8"]) == 0
    out = capsys.readouterr().out
    assert "criterion  3 PASS" in out
    assert "criterion  8 PASS" in out


def test_selftest_json(capsys):
    assert main(["selftest", "--criteria", "3", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)
    assert len(results) == 1 and results[0]["passed"] is True


def test_successive_calls_share_no_state(spec31, capsys):
    """The parser is built once per process; no flag of one call leaks into the next."""
    assert main(["rfh", spec31, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["full"] == {"-2": 1, "-1": 1}
    assert main(["rfh", spec31]) == 0
    assert capsys.readouterr().out.startswith("RFH+   :")
    assert main(["selftest", "--criteria", "3"]) == 0
    out = capsys.readouterr().out
    assert "criterion  3 PASS" in out and "criterion  8" not in out
    assert main(["orbits", spec31, "--lo", "-7", "--hi", "7", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["window"] == [-7.0, 7.0]
    assert main(["orbits", spec31]) == 0
    assert "12.566" in capsys.readouterr().out  # default window 4 pi / mu_min
    assert main(["census", spec31, "--criteria", "3"]) == 1


@pytest.mark.parametrize("patch", [
    {"tolerances": {"eig_cluster": "abc"}},
    {"tolerances": [1, 2]},
    {"tolerances": {"eig_cluster": None}},
    {"a0": {"frequencies": ["x"]}},
    {"a0": {"frequencies": 1.0}},
    {"a1": {"blocks": 5}},
    {"a1": {"blocks": [{"kind": "a", "m": 1, "re": 1.0, "gamma": "x"},
                       {"kind": "a", "m": 1, "re": 0.7}]}},
    # Jordan data must be JSON integers: never truncated, parsed or read as booleans
    {"a1": {"blocks": [{"kind": "a", "m": 1.9, "re": 1.0}, {"kind": "a", "m": 1, "re": 0.7}]}},
    {"a1": {"blocks": [{"kind": "a", "m": True, "re": 1.0}, {"kind": "a", "m": 1, "re": 0.7}]}},
    {"a1": {"blocks": [{"kind": "a", "m": 1.0, "re": 1.0}, {"kind": "a", "m": 1, "re": 0.7}]}},
    {"a1": {"blocks": [{"kind": "a", "m": "2", "re": 1.0}]}},
    {"a1": {"blocks": [{"kind": "c", "m": 1, "im": 1.3, "gamma": 1.7},
                       {"kind": "a", "m": 1, "re": 0.7}]}},
    {"a1": {"blocks": [{"kind": "c", "m": 1, "im": 1.3, "gamma": True},
                       {"kind": "a", "m": 1, "re": 0.7}]}},
], ids=lambda patch: json.dumps(patch))
def test_malformed_document_is_input_error(tmp_path, capsys, patch):
    path = write_spec(tmp_path, dict(SPEC31, **patch))
    for sub in ("check", "rfh"):
        assert main([sub, path]) == 1
        assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("key", ["n", "k"])
def test_boolean_dimension_is_input_error(tmp_path, capsys, key):
    assert main(["rfh", write_spec(tmp_path, dict(SPEC31, **{key: True}))]) == 1
    assert capsys.readouterr().err == f"input error: {key} must be an integer, got true\n"


def test_non_object_env_tolerances_is_input_error(spec31, capsys, monkeypatch):
    monkeypatch.setenv("RFHQUAD_TOLERANCES", "[1e-8]")
    assert main(["rfh", spec31]) == 1
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("value", [True, "1e-8"], ids=["true", "string"])
def test_non_number_tolerance_is_input_error(tmp_path, capsys, monkeypatch, value):
    """A tolerance given as a JSON true or as a numeric string is refused,
    naming its field, in the document and in RFHQUAD_TOLERANCES alike; it
    is not read as 1.0 or as the number the string spells."""
    path = write_spec(tmp_path, dict(SPEC31, tolerances={"crossing": value}))
    assert main(["census", path, "--json"]) == 1
    assert capsys.readouterr().err == (
        f"input error: tolerance crossing must be a number, got {json.dumps(value)}\n")
    monkeypatch.setenv("RFHQUAD_TOLERANCES", json.dumps({"rank_cut": value}))
    assert main(["census", write_spec(tmp_path, SPEC31, "plain.json"), "--json"]) == 1
    assert capsys.readouterr().err == (
        f"input error: tolerance rank_cut must be a number, got {json.dumps(value)}\n")


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script_env() -> dict:
    """The environment, with the package under test first on the path."""
    src = str(Path(rfhquad.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def test_rfh_grid_script():
    out = subprocess.run([sys.executable, str(SCRIPTS / "rfh_grid.py"), "--n-max", "4"],
                         capture_output=True, text=True, env=_script_env(), timeout=120)
    assert out.returncode == 0, out.stderr
    rows = {tuple(line.split()[:2]): line for line in out.stdout.splitlines()[1:]}
    assert len(rows) == 6
    assert rows["4", "3"].split()[2] == "Z2^2@-3"


def test_random_spec_script_feeds_the_cli():
    env = _script_env()
    spec = subprocess.run([sys.executable, str(SCRIPTS / "random_spec.py"),
                           "--seed", "7", "--n", "4", "--k", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert spec.returncode == 0, spec.stderr
    out = subprocess.run([sys.executable, "-m", "rfhquad.cli", "rfh", "-"], input=spec.stdout,
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "RFH    :" in out.stdout


COLD_START = """
import contextlib, io, json, sys
import numpy as np
from rfhquad import ExpEvaluator, build_block, classify
from rfhquad.cli import main
from rfhquad.samples import random_orthosymplectic

codes = []
for path in sys.argv[1:]:
    for sub in ("check", "classify", "orbits", "census", "rfh"):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main([sub, path, "--json"]))
loaded = ["scipy" in sys.modules]
U = random_orthosymplectic(np.random.default_rng(0), 2)
nf = classify(U @ build_block("a", 2, 1.5).matrix @ U.T)
loaded.append("scipy" in sys.modules)
E = ExpEvaluator(np.array([[0.0, 1.0], [0.0, 0.0]])).at([2.0])[0]
print(json.dumps({"codes": codes, "loaded": loaded, "exp": E.tolist(),
                  "blocks": [[b.kind, b.m, b.lam.real] for b in nf.blocks]}))
"""


def test_cli_cold_start_leaves_scipy_unloaded(tmp_path):
    """A fresh interpreter runs every --json subcommand on a block document
    and on a conjugated-matrix one without loading scipy (conftest has it
    loaded here).  A conjugated ('a', 2) block's Schur form and the Pade
    exponential of a Jordan block then load it where they need it."""
    U = random_orthosymplectic(np.random.default_rng(1), 2)
    a1 = rfhquad.normal_form([rfhquad.build_block("a", 1, 1.0),
                              rfhquad.build_block("a", 1, 0.7)]).matrix
    conjugated = {"n": 3, "k": 1, "a0": {"matrix": [[1.2, 0.3], [0.3, 0.9]]},
                  "a1": {"matrix": (U @ a1 @ U.T).tolist()}}
    paths = [write_spec(tmp_path, SPEC31, "blocks.json"),
             write_spec(tmp_path, conjugated, "matrices.json")]
    out = subprocess.run([sys.executable, "-c", COLD_START, *paths],
                         capture_output=True, text=True, env=_script_env(), timeout=120)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["codes"] == [0] * 10
    assert doc["loaded"] == [False, True]
    assert doc["blocks"] == [["a", 2, pytest.approx(1.5, abs=1e-9)]]
    assert np.allclose(doc["exp"], [[1.0, 2.0], [0.0, 1.0]], rtol=0, atol=1e-12)


@pytest.mark.parametrize("sub", ["census", "orbits"])
def test_default_window_reads_a0_once(sub, capsys, monkeypatch):
    """On a matrix document with no window, the default window comes from
    the census's own frequencies: A0 (2x2; A1 is 6x6) is decomposed by one
    eigh and one complex eigvalsh, and by no eigvals, in the whole call."""
    calls = Counter()
    for name in ("eigvals", "eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            if np.shape(a) == (2, 2):
                calls[_name, np.asarray(a).dtype.kind] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    a0 = [[1.2, 0.3], [0.3, 0.9]]  # frequency sqrt(1.2 * 0.9 - 0.09)
    d, zero = np.diag([1.0, 0.7, 0.4]), np.zeros((3, 3))
    a1 = np.block([[zero, d], [d, zero]])  # J A1 = diag(d, -d)
    doc = {"n": 4, "k": 1, "a0": {"matrix": a0}, "a1": {"matrix": a1.tolist()}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main([sub, "-", "--json"]) == 0
    assert calls == {("eigh", "f"): 1, ("eigvalsh", "c"): 1}
    out = json.loads(capsys.readouterr().out)
    w = 4 * np.pi / np.sqrt(1.2 * 0.9 - 0.09) + 1e-6
    assert out["window"] == pytest.approx([-w, w], rel=1e-14)


def test_classify_signs_blocks_by_one_eigvalsh_per_dimension(capsys, monkeypatch):
    """Guard against a return to one inertia per block: at n = 6, the
    three 'c' and one 'a' blocks (2 x 2) and one 'b' block (4 x 4) are
    signed by two real eigvalsh calls, one on each stack; the only other
    eigvalsh of classify, the Krein signer's, is complex."""
    calls = Counter()
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        a = np.asarray(a)
        calls[a.dtype.kind, a.shape[1:]] += 1
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    doc = {"n": 6, "k": 3, "a0": {"frequencies": [1.0, 1.3, 1.7]},
           "a1": {"blocks": [{"kind": "a", "m": 1, "re": 0.8},
                             {"kind": "b", "m": 1, "re": 0.5, "im": 1.1}]}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["classify", "-", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(b["dim"] for b in out["blocks"]) == [2, 2, 2, 2, 4]
    assert {key: n for key, n in calls.items() if key[0] == "f"} == {
        ("f", (2, 2)): 1, ("f", (4, 4)): 1}


@pytest.mark.parametrize("fixture", ["h32", "h42"])
def test_census_rows_match_the_half_int_route(fixture, request, capsys, monkeypatch):
    """census --json writes sigma_index, cz_transverse and grading from the
    doubled integers; each equals the public HalfInt value, written as an
    int when integral and else as a float."""
    H = request.getfixturevalue(fixture)

    def num(h):
        return h.as_int() if h.is_integer else h.doubled / 2

    doc = {"n": H.n, "k": H.k, "a0": {"frequencies": list(H.frequencies)},
           "a1": {"matrix": H.a1.tolist()}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["census", "-", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    gens = rfhquad.generator_census(H, rfhquad.ActionWindow(*out["window"]))
    want = [(g.family.side, g.action, g.pole, g.family.m, num(g.sigma_index),
             num(g.family.cz_transverse), num(g.grading)) for g in gens]
    got = [(r["side"], r["eta"], r["pole"], r["m"], r["sigma_index"], r["cz_transverse"],
            r["grading"]) for r in out["generators"]]
    assert got == want
    assert [tuple(map(type, row)) for row in got] == [tuple(map(type, row)) for row in want]
    assert {type(r["sigma_index"]) for r in out["generators"]} == {float}
    assert {type(r["grading"]) for r in out["generators"]} == {int}


class _Dict(dict):
    pass


class _List(list):
    pass


# strings that break a naive writer: quotes, backslashes, control
# characters, non-ASCII text, and the separators and joins it emits
_TEXT = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\n", "\x00\x1f\x7f", "\u2028", "\u00e9\u4e2d\U0001f600",
     '"},\n    {"', "},\n    {", "],\n      [", ",\n  ", ": "])
_KEYS = _TEXT | st.integers() | st.floats() | st.booleans() | st.none()
_SCALARS = (st.none() | st.booleans() | _TEXT | st.floats().map(np.float64)
            | st.integers() | st.integers(2 ** 63, 2 ** 200).map(lambda i: -i if i % 2 else i)
            | st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]))
_EMPTY = st.sampled_from([{}, [], (), _Dict(), _List()])
# lists of flat dicts or lists, in one call when none is empty
_ROWS = st.one_of([st.lists(st.dictionaries(_KEYS, _SCALARS, min_size=size, max_size=3)
                            | st.lists(_SCALARS, min_size=size, max_size=3).map(tuple)
                            | st.lists(_SCALARS, min_size=size, max_size=3), min_size=1, max_size=3)
                   for size in (1, 0)])
_SIDE = _SCALARS | _EMPTY | _ROWS | _ROWS.map(tuple)


def _trees(depth: int):
    """JSON trees with containers nested ``depth`` levels deep along one
    spine: dicts, lists and tuples, a dict or list subclass too, whose
    other items are scalars, empty containers, or lists of flat dicts or
    lists (the shape the writer encodes in one call when none is empty)."""
    if depth == 0:
        return _SCALARS
    spine = _trees(depth - 1)
    items = st.tuples(st.lists(_SIDE, max_size=2), spine, st.lists(_SIDE, max_size=2)).map(
        lambda t: [*t[0], t[1], *t[2]])
    pairs = st.tuples(st.dictionaries(_KEYS, _SIDE, max_size=2), _KEYS, spine).map(
        lambda t: {**t[0], t[1]: t[2]})
    return (items | items.map(tuple) | items.map(_List) | pairs | pairs.map(_Dict)
            | st.lists(spine, min_size=2, max_size=3) | st.dictionaries(_KEYS, spine, max_size=3))


@settings(max_examples=100)
@given(st.integers(0, 6).flatmap(_trees))
def test_writer_is_json_dumps_indent_2(tree):
    assert _indented_json(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(3)], ids=["bool_", "int64"])
@pytest.mark.parametrize("place", [
    lambda v: v, lambda v: [1, v], lambda v: {"a": v}, lambda v: [{"a": 1}, {"b": v}],
    lambda v: {"a": [[1], [v]]}, lambda v: _List([v]), lambda v: _Dict(a=[2, {"b": v}]),
], ids=["bare", "flat list", "flat dict", "rows", "nested", "list subclass", "dict subclass"])
def test_writer_refuses_numpy_scalars_as_json_does(value, place):
    """A numpy bool or integer is no JSON value: the writer raises
    json.dumps's TypeError, wherever it sits."""
    doc = place(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as ours:
        _indented_json(doc)
    assert str(ours.value) == str(theirs.value)


def test_writer_refuses_a_tuple_key_as_json_does():
    doc = {"a": [1], (1, 2): 3}
    with pytest.raises(TypeError) as theirs:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as ours:
        _indented_json(doc)
    assert str(ours.value) == str(theirs.value)


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("sub", ["check", "classify", "orbits", "census", "rfh"])
def test_json_output_is_indented_json_in_one_write(sub, tmp_path, monkeypatch):
    """--json writes json.dumps(doc, indent=2) and a newline, byte for
    byte, in one write, on a block document and on a conjugated-matrix one."""
    U = random_orthosymplectic(np.random.default_rng(4), 2)
    a1 = rfhquad.normal_form([rfhquad.build_block("a", 1, 1.0),
                              rfhquad.build_block("a", 1, 0.7)]).matrix
    conjugated = {"n": 3, "k": 1, "a0": {"matrix": [[1.2, 0.3], [0.3, 0.9]]},
                  "a1": {"matrix": (U @ a1 @ U.T).tolist()}}
    for doc in (SPEC31, conjugated):
        stdout = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main([sub, write_spec(tmp_path, doc), "--json"]) == 0
        out = stdout.getvalue()
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert stdout.writes == 1


def test_selftest_json_is_indented_json_in_one_write(monkeypatch):
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["selftest", "--criteria", "1", "--json"]) == 0
    out = stdout.getvalue()
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert stdout.writes == 1
