"""CLI surface: outputs, JSON determinism, exit-code contract."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import taufp.cli as cli
import taufp.preproj

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_quiver_rho(capsys):
    code, out, _ = run(capsys, "quiver", "rho", "--file", FIXTURES / "allones2.json")
    assert code == 0
    assert "rho = 2.000000000000" in out


def test_quiver_rho_empty(capsys):
    code, out, _ = run(capsys, "quiver", "rho", "--file", FIXTURES / "empty.json")
    assert code == 0 and "rho = 0.000000000000" in out


def test_quiver_classify_and_dot(capsys):
    code, out, _ = run(capsys, "quiver", "classify", "--file", FIXTURES / "path4.json")
    assert code == 0 and out.splitlines()[0] == "A4"
    code, out, _ = run(capsys, "quiver", "dot", "--file", FIXTURES / "b2_quiver.json")
    assert code == 0 and "1 -> 1" in out and "1 -> 2" in out
    code, out, _ = run(capsys, "quiver", "charpoly", "--file", FIXTURES / "b2_quiver.json")
    assert code == 0 and "charpoly:" in out
    code, out, _ = run(capsys, "quiver", "separated", "--file", FIXTURES / "twocycle.json")
    assert code == 0 and "1+" in out


def test_quiver_verify_flag(capsys):
    code, out, _ = run(capsys, "quiver", "rho", "--verify", "--file",
                       FIXTURES / "b2_quiver.json")
    assert code == 0


def test_quiver_verify_tiny_tol_terminates(capsys):
    # 1e-20 rounds to 0 at denominator 10**18; the Sturm bisection must still stop
    code, out, _ = run(capsys, "quiver", "rho", "--file", FIXTURES / "b2_quiver.json",
                       "--verify", "--tol", "1e-20")
    assert code == 0 and "rho = 1.618033988750" in out


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_quiver_rho_rejects_non_finite_tol(capsys, tol):
    # an infinite tol stopped the power iteration after one step and made the
    # verify check vacuous; a nan tol ran every iteration before failing
    code, out, err = run(capsys, "quiver", "rho", "--file", FIXTURES / "b2_quiver.json",
                         "--tol", tol, "--verify")
    assert code == 2 and out == ""
    assert "tol must be positive and finite" in err


def test_lattice_commands(capsys):
    code, out, _ = run(capsys, "lattice", "fpdim", "--file", FIXTURES / "example31.json")
    assert code == 0 and "fpdim = 2.000000000000" in out and "witness: x" in out
    code, out, _ = run(capsys, "lattice", "fpdim", "--file", FIXTURES / "chain5.json")
    assert code == 0 and "fpdim = 0.000000000000" in out
    code, out, _ = run(capsys, "lattice", "qu", "--file", FIXTURES / "hexagon.json",
                       "--element", "e")
    assert code == 0 and '"arrows"' in out
    code, out, _ = run(capsys, "lattice", "check", "--file", FIXTURES / "hexagon.json")
    assert code == 0 and "PASS" in out


def test_lattice_bowtie_exit2(capsys):
    code, _, err = run(capsys, "lattice", "check", "--file", FIXTURES / "bowtie.json")
    assert code == 2
    assert "no join for (a, b)" in err


def test_invalid_json_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "quiver", "rho", "--file", bad)
    assert code == 2 and "invalid" in err
    code, _, err = run(capsys, "quiver", "rho", "--file", tmp_path / "missing.json")
    assert code == 2
    # well-formed JSON of the wrong shape is invalid input too, not a traceback
    for command, text in [
        ("lattice", '{"elements": ["a"], "covers": [5]}'),
        ("lattice", '{"elements": ["a"], "covers": 5}'),
        ("lattice", '{"elements": "ab", "covers": []}'),
        ("lattice", '{"elements": ["a", "b"], "covers": [["a", "b", "a"]]}'),
        ("quiver", '{"vertices": ["1"], "arrows": [5]}'),
        ("quiver", '{"vertices": ["1"], "arrows": 5}'),
        ("quiver", '{"vertices": "12", "arrows": []}'),
        ("quiver", '{"vertices": ["1"], "arrows": [["1", "1"]]}'),
        ("quiver", '{"vertices": ["1"], "arrows": [["1", "1", 1e30]]}'),
        ("quiver", '{"vertices": ["1"], "arrows": [["1", "1", 1.5]]}'),
        ("quiver", '{"vertices": ["1"], "arrows": [["1", "1", %d]]}' % 10**30),
        ("quiver", '{"vertices": ["1"], "arrows": [["1", "1", %d], ["1", "1", %d]]}'
         % (2**62, 2**62)),
        # names are strings or integers; nothing else is stringified
        ("lattice", '{"elements": [null, [1], {"a": 1}], '
                    '"covers": [[null, [1]], [[1], {"a": 1}]]}'),
        ("lattice", '{"elements": [true, false], "covers": [[true, false]]}'),
        ("lattice", '{"elements": ["a", 1.5], "covers": [["a", 1.5]]}'),
        ("lattice", '{"elements": ["a", "b"], "covers": [["a", null]]}'),
        ("quiver", '{"vertices": [null, true], "arrows": []}'),
        ("quiver", '{"vertices": [[1], {"a": 1}], "arrows": []}'),
        ("quiver", '{"vertices": ["1"], "arrows": [[true, "1", 1]]}'),
        ("quiver", '{"vertices": ["1"], "arrows": [["1", null, 1]]}'),
    ]:
        bad.write_text(text)
        sub = "check" if command == "lattice" else "rho"
        code, _, err = run(capsys, command, sub, "--file", bad)
        assert code == 2 and "invalid input" in err, text
    # integer names stay accepted
    bad.write_text('{"elements": [1, 2], "covers": [[2, 1]]}')
    assert run(capsys, "lattice", "check", "--file", bad)[0] == 0
    bad.write_text('{"vertices": [1, 2], "arrows": [[1, 2, 1], [2, 1, 1]]}')
    code, out, _ = run(capsys, "quiver", "rho", "--file", bad)
    assert code == 0 and "rho = 1.000000000000" in out


def test_python_m_taufp_exit_codes(tmp_path):
    # the module entry point passes main()'s exit code to the shell
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def taufp(*argv):
        return subprocess.run([sys.executable, "-m", "taufp", *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=120)

    done = taufp("lattice", "fpdim", "--file", FIXTURES / "example31.json", "--json")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["values"] == {"fpdim": 2.0, "witness": "x"}
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    done = taufp("lattice", "check", "--file", bad, "--json")
    assert done.returncode == 2 and "invalid JSON" in done.stderr and not done.stdout


def test_coxeter_commands(capsys):
    code, out, _ = run(capsys, "coxeter", "order", "--type", "A", "--rank", 3)
    assert code == 0 and "order: 24" in out
    code, out, _ = run(capsys, "coxeter", "fpdim", "--type", "A", "--rank", 2)
    assert code == 0 and "fpdim = 1.000000000000" in out
    code, out, _ = run(capsys, "coxeter", "longest", "--type", "G", "--rank", 2)
    assert code == 0 and "length: 6" in out
    code, out, _ = run(capsys, "coxeter", "lattice", "--type", "A", "--rank", 2)
    assert code == 0 and '"covers"' in out


def test_coxeter_budget_exit3(capsys):
    code, _, err = run(capsys, "coxeter", "order", "--type", "E", "--rank", 7)
    assert code == 3 and "budget" in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("TAUFP_BUDGET", "5")
    code, _, err = run(capsys, "coxeter", "order", "--type", "A", "--rank", 2)
    assert code == 3
    monkeypatch.setenv("TAUFP_BUDGET", "6")
    code, out, _ = run(capsys, "coxeter", "order", "--type", "A", "--rank", 2)
    assert code == 0 and "order: 6" in out


def test_preproj_commands(capsys):
    code, out, _ = run(capsys, "preproj", "rho", "--type", "B", "--rank", 3)
    assert code == 0 and "rho = 2.246979603717" in out and "PASS" in out
    code, out, _ = run(capsys, "preproj", "rho", "--type", "A", "--rank", 3,
                       "--multiplier", 2)
    assert code == 0 and "rho = 2.414213562373" in out
    code, out, _ = run(capsys, "preproj", "quiver", "--type", "G", "--rank", 2)
    assert code == 0 and "loops at: 1" in out
    code, out, _ = run(capsys, "preproj", "table")
    assert code == 0
    assert out.count("PASS") == 35  # 17 types x 2 symmetrizers + total verdict


def test_preproj_verdict_failure_exit1(capsys, monkeypatch):
    monkeypatch.setattr(taufp.preproj, "dynkin_rho", lambda *a, **k: 99.0)
    monkeypatch.setattr(cli.preproj, "dynkin_rho", lambda *a, **k: 99.0)
    code, out, _ = run(capsys, "preproj", "rho", "--type", "A", "--rank", 2)
    assert code == 1 and "FAIL" in out


def test_nakayama_commands(capsys):
    code, out, _ = run(capsys, "nakayama", "fpdim", "--shape", "cyclic",
                       "--kupisch", "2,2,2")
    assert code == 0 and "fpdim = 1.000000000000" in out
    code, out, _ = run(capsys, "nakayama", "fpdim", "--shape", "linear",
                       "--kupisch", "1,2,3")
    assert code == 0 and "fpdim = 0.000000000000" in out
    code, out, _ = run(capsys, "nakayama", "sandwich", "--shape", "cyclic",
                       "--kupisch", "3,3,3")
    assert code == 0 and "sandwich: PASS" in out
    assert "fpdim_lattice = 1.000000000000" in out and "d_b: 0" in out
    code, out, _ = run(capsys, "nakayama", "pairs", "--shape", "linear",
                       "--kupisch", "1,2")
    assert code == 0 and "count: 5" in out
    code, out, _ = run(capsys, "nakayama", "report", "--shape", "cyclic",
                       "--kupisch", "2,2")
    assert code == 0 and "bijection: PASS" in out


def test_nakayama_invalid_series_exit2(capsys):
    code, _, err = run(capsys, "nakayama", "fpdim", "--shape", "cyclic",
                       "--kupisch", "1,2,2")
    assert code == 2 and "Kupisch" in err
    code, _, err = run(capsys, "nakayama", "fpdim", "--shape", "cyclic",
                       "--kupisch", "2;2")
    assert code == 2


def test_nakayama_budget_exit3(capsys):
    code, _, err = run(capsys, "nakayama", "fpdim", "--shape", "cyclic",
                       "--kupisch", "2,2,2,2,2,2,2,2")
    assert code == 3


def test_json_reports_are_byte_identical(capsys):
    argsets = [
        ("quiver", "rho", "--file", str(FIXTURES / "allones2.json"), "--json"),
        ("lattice", "fpdim", "--file", str(FIXTURES / "example31.json"), "--json"),
        ("coxeter", "fpdim", "--type", "B", "--rank", "2", "--json"),
        ("preproj", "rho", "--type", "G", "--rank", "2", "--json"),
        ("nakayama", "sandwich", "--shape", "cyclic", "--kupisch", "3,3,3", "--json"),
    ]
    for argv in argsets:
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["schema"] == 1
        assert "timing" not in doc


def test_json_schema_content(capsys):
    _, out, _ = run(capsys, "nakayama", "report", "--shape", "cyclic",
                    "--kupisch", "3,3,3", "--json")
    doc = json.loads(out)
    assert doc["command"] == "nakayama report"
    assert doc["values"]["semibrick_count"] == 20
    assert doc["values"]["tau_tilting_pair_count"] == 20
    assert doc["verdicts"] == {"bijection": True, "sandwich": True}
