import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import rfhquad
from rfhquad.cli import main
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
