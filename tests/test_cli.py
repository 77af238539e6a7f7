"""CLI surface: outputs, JSON determinism, exit-code contract."""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import pkgutil
import subprocess
import sys
import time

import pytest

import taufp.cli as cli
import taufp.lattice
import taufp.nakayama
import taufp.preproj
from taufp.coxeter import cartan_matrix
from taufp.errors import ConsistencyError
from taufp.preproj import gabriel_quiver
from taufp.quiver import to_dot

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


@pytest.mark.parametrize("argv", [
    ("quiver", "rho", "--file", FIXTURES / "b2_quiver.json"),
    ("lattice", "fpdim", "--file", FIXTURES / "example31.json"),
    ("coxeter", "fpdim", "--type", "A", "--rank", 2),
    ("preproj", "rho", "--type", "B", "--rank", 3),
    ("nakayama", "fpdim", "--shape", "cyclic", "--kupisch", "2,2"),
    ("nakayama", "sandwich", "--shape", "cyclic", "--kupisch", "2,2"),
    ("nakayama", "report", "--shape", "cyclic", "--kupisch", "2,2"),
    ("preproj", "table"),
])
def test_fpdim_subcommands_reject_zero_tol(capsys, argv):
    # each of these echoes tol in its JSON inputs, so it must also compute with it
    code, out, err = run(capsys, *argv, "--tol", 0, "--json")
    assert code == 2 and out == ""
    assert "tol must be positive and finite" in err


# The options each subcommand reads, written out independently of cli._COMMANDS;
# every subcommand also takes --json.
SURFACE = {
    ("quiver", "rho"): {"--file", "--tol", "--verify"},
    ("quiver", "charpoly"): {"--file"},
    ("quiver", "separated"): {"--file"},
    ("quiver", "classify"): {"--file"},
    ("quiver", "dot"): {"--file"},
    ("lattice", "fpdim"): {"--file", "--tol"},
    ("lattice", "qu"): {"--file", "--element"},
    ("lattice", "check"): {"--file"},
    ("coxeter", "order"): {"--type", "--rank"},
    ("coxeter", "lattice"): {"--type", "--rank"},
    ("coxeter", "longest"): {"--type", "--rank"},
    ("coxeter", "fpdim"): {"--type", "--rank", "--tol"},
    ("preproj", "quiver"): {"--type", "--rank", "--multiplier", "--dot"},
    ("preproj", "rho"): {"--type", "--rank", "--multiplier", "--tol"},
    ("preproj", "table"): {"--tol"},
    ("nakayama", "report"): {"--shape", "--kupisch", "--tol"},
    ("nakayama", "fpdim"): {"--shape", "--kupisch", "--tol"},
    ("nakayama", "pairs"): {"--shape", "--kupisch"},
    ("nakayama", "sandwich"): {"--shape", "--kupisch", "--tol"},
}
REQUIRED = {"--file", "--element", "--type", "--rank", "--shape", "--kupisch"}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_one_leaf_parser_per_subcommand():
    top, leaves = cli._parser()
    assert {(c, s) for c, group in _subparsers(top).items() for s in _subparsers(group)} \
        == set(SURFACE) == set(leaves)
    assert sum(len(opts) + 1 for opts in SURFACE.values()) == 60  # option slots, --json included


@pytest.mark.parametrize("command, subcmd", list(SURFACE))
def test_each_subcommand_takes_exactly_the_options_it_reads(command, subcmd):
    leaf = _subparsers(_subparsers(cli._parser()[0])[command])[subcmd]
    assert cli._parser()[1][command, subcmd] is leaf
    required = {opt: action.required for action in leaf._actions
                for opt in action.option_strings if opt.startswith("--")}
    assert required.keys() == SURFACE[command, subcmd] | {"--help", "--json"}
    assert {opt for opt, req in required.items() if req} == SURFACE[command, subcmd] & REQUIRED


@pytest.mark.parametrize("argv", [
    ("coxeter", "order", "--type", "A", "--rank", 3, "--tol", "1e-9"),
    ("preproj", "table", "--multiplier", 2),
    ("lattice", "fpdim", "--file", FIXTURES / "example31.json", "--element", "x"),
    ("quiver", "charpoly", "--file", FIXTURES / "b2_quiver.json", "--verify"),
    ("lattice", "qu", "--file", FIXTURES / "hexagon.json"),
    ("preproj", "rho", "--rank", 3),
])
def test_unread_or_missing_options_exit2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([str(a) for a in argv] + ["--json"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    # reported by the subcommand's own parser, with its usage line
    leaf = f"taufp {argv[0]} {argv[1]}"
    assert out.err.startswith(f"usage: {leaf} [-h] ")
    assert f"\n{leaf}: error: " in out.err


def test_unread_option_is_reported_with_the_leaf_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["preproj", "table", "--multiplier", "2"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.splitlines() == [
        "usage: taufp preproj table [-h] [--tol TOL] [--json]",
        "taufp preproj table: error: unrecognized arguments: --multiplier 2",
    ]


def test_fpdim_tol_is_checked_before_any_work(capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("the E6 model was built before --tol was checked")

    monkeypatch.setattr(taufp.preproj, "tau_tiltp_model", build)
    code, out, err = run(capsys, "coxeter", "fpdim", "--type", "E", "--rank", 6, "--tol", 0)
    assert code == 2 and out == ""
    assert "tol must be positive and finite" in err


# Runs the CLI and prints the peak RSS of its own address space (VmHWM, kB)
# last on stderr.  The child's wait4 ru_maxrss would not do: exec carries the
# peak of the process it replaces, the forking test process, into it.
_CHILD = """
import sys
import taufp.cli
code = taufp.cli.main(sys.argv[1:])
status = open("/proc/self/status").read().split("VmHWM:")[1]
print(int(status.split()[0]), file=sys.stderr)
sys.exit(code)
"""


def _fresh_run(*argv):
    """Run the CLI with --json in a fresh process: the exit code, the parsed
    report, the wall time in s and the peak RSS in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv, "--json"], env=env,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    peak_kb = int(proc.stderr.split()[-1])
    return proc.returncode, json.loads(proc.stdout), elapsed, peak_kb / 1024


def test_e6_fpdim_peak_rss():
    # the descent table keeps E6 well below the 241 MB its join certificate needed
    code, doc, _, rss_mb = _fresh_run("coxeter", "fpdim", "--type", "E", "--rank", "6")
    assert code == 0
    assert doc["values"]["fpdim"] == pytest.approx(1.9318516525781364)
    assert rss_mb < 150


def test_e7_fpdim_time_and_peak_rss(monkeypatch):
    # the descent table of 2,903,040 elements is the only copy of the covers,
    # and the scan builds no names, no cover arrays and no sorted cover
    # index: about 1.2-1.4 s and 179 MB on a 2-vCPU VM; the time bound leaves
    # room for a loaded machine; the default budget refuses E7
    monkeypatch.setenv("TAUFP_BUDGET", "2903040")
    code, doc, elapsed, rss_mb = _fresh_run("coxeter", "fpdim", "--type", "E", "--rank", "7")
    assert code == 0
    assert doc["values"]["fpdim"] == pytest.approx(2 * math.cos(math.pi / 18), abs=1e-12)
    assert doc["values"]["witness"] == (
        "121321432153214325346532143253465321765321432534653217653243567")
    assert elapsed < 5 and rss_mb < 200


def test_cyclic_n10_sandwich_time_and_peak_rss():
    # the semibrick scans need no pair lattice: 184,756 semibricks, 8,953 of
    # them maximal, in about 0.8 s and 60 MB
    code, doc, elapsed, rss_mb = _fresh_run("nakayama", "sandwich", "--shape",
                                            "cyclic", "--kupisch", ",".join(["20"] * 10))
    assert code == 0 and doc["verdicts"]["sandwich"] is True
    assert doc["values"] == {"d_b": 1, "fpdim": 1.0, "fpdim_lattice": 1.0}
    assert elapsed < 2 and rss_mb < 150


def test_cyclic_n10_report_time_and_peak_rss():
    # the pairs are counted, not listed: C(20, 10) pairs and semibricks
    code, doc, elapsed, rss_mb = _fresh_run("nakayama", "report", "--shape",
                                            "cyclic", "--kupisch", ",".join(["20"] * 10))
    assert code == 0 and all(doc["verdicts"].values())
    assert doc["values"]["tau_tilting_pair_count"] == math.comb(20, 10) == 184756
    assert doc["values"]["semibrick_count"] == 184756
    assert elapsed < 3 and rss_mb < 150


@pytest.mark.stretch
def test_cyclic_n11_report_time_and_peak_rss(monkeypatch):
    # past the default scan budget of 10: C(22, 11) pairs and semibricks
    monkeypatch.setenv("TAUFP_BUDGET", "11")
    code, doc, elapsed, rss_mb = _fresh_run("nakayama", "report", "--shape",
                                            "cyclic", "--kupisch", ",".join(["22"] * 11))
    assert code == 0 and all(doc["verdicts"].values())
    assert doc["values"]["tau_tilting_pair_count"] == math.comb(22, 11) == 705432
    assert doc["values"]["semibrick_count"] == 705432
    assert elapsed < 10 and rss_mb < 400


def test_report_and_sandwich_build_no_pair_lattice(capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("the pair lattice was built")

    monkeypatch.setattr(taufp.nakayama._Tables, "mutations", build)
    monkeypatch.setattr(taufp.lattice.FiniteLattice, "__init__", build)
    for subcmd in ("report", "sandwich"):
        code, out, _ = run(capsys, "nakayama", subcmd, "--shape", "cyclic", "--kupisch",
                           "3,3,2", "--json")
        assert code == 0 and json.loads(out)["verdicts"]["sandwich"] is True
    # report counts the pairs: it neither lists, names nor sorts them
    monkeypatch.setattr(taufp.nakayama._Tables, "pair_masks", property(build))
    monkeypatch.setattr(taufp.nakayama._Tables, "pairs", property(build))
    monkeypatch.setattr(taufp.nakayama.TauPair, "name", build)
    code, out, _ = run(capsys, "nakayama", "report", "--shape", "cyclic", "--kupisch",
                       "3,3,2", "--json")
    doc = json.loads(out)
    assert code == 0 and all(doc["verdicts"].values())
    assert doc["values"]["tau_tilting_pair_count"] == doc["values"]["semibrick_count"] > 0


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


def _consistency_failure(*args, **kwargs):
    raise ConsistencyError("brick labels disagree")


B3_DOT = json.dumps(to_dot(gabriel_quiver(cartan_matrix("B", 3))))


@pytest.mark.parametrize("budget, failing, argv, code, stream, text", [
    ("abc", None, ["coxeter", "order", "--type", "A", "--rank", 2], 2, "err",
     "invalid input: TAUFP_BUDGET must be an integer, got 'abc'\n"),
    (None, "sandwich", ["nakayama", "sandwich", "--shape", "cyclic", "--kupisch", "2,2"], 1,
     "err", "consistency failure: brick labels disagree\n"),
    (None, None, ["preproj", "quiver", "--type", "B", "--rank", 3, "--dot", "--json"], 0, "out",
     f'"dot": {B3_DOT}'),
])
def test_rare_exit_paths(capsys, monkeypatch, budget, failing, argv, code, stream, text):
    if budget is None:
        monkeypatch.delenv("TAUFP_BUDGET", raising=False)
    else:
        monkeypatch.setenv("TAUFP_BUDGET", budget)
    if failing:
        monkeypatch.setattr(taufp.nakayama, failing, _consistency_failure)
    got, out, err = run(capsys, *argv)
    assert got == code
    assert text in (out if stream == "out" else err)


def test_package_reexports_every_public_callable():
    # each callable in a submodule's __all__ is also an attribute of taufp
    for info in pkgutil.iter_modules(taufp.__path__):
        if info.name.startswith("_"):
            continue
        mod = importlib.import_module(f"taufp.{info.name}")
        names = [n for n in getattr(mod, "__all__", ()) if callable(getattr(mod, n))]
        missing = [n for n in names if getattr(taufp, n, None) is not getattr(mod, n)]
        assert not missing, (info.name, missing)


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


def test_nakayama_report_counts_semibricks_without_building_them(capsys, monkeypatch):
    alg = taufp.nakayama.make_algebra("cyclic", [3, 3, 2])
    want = len(taufp.nakayama.semibricks(alg))

    def build(*args, **kwargs):
        raise AssertionError("report built the semibricks")

    monkeypatch.setattr(taufp.nakayama, "semibricks", build)
    code, out, _ = run(capsys, "nakayama", "report", "--shape", "cyclic", "--kupisch", "3,3,2",
                       "--json")
    doc = json.loads(out)
    assert code == 0 and doc["verdicts"]["bijection"] is True
    assert doc["values"]["semibrick_count"] == doc["values"]["tau_tilting_pair_count"] == want


def test_nakayama_invalid_series_exit2(capsys):
    code, _, err = run(capsys, "nakayama", "fpdim", "--shape", "cyclic",
                       "--kupisch", "1,2,2")
    assert code == 2 and "Kupisch" in err
    code, _, err = run(capsys, "nakayama", "fpdim", "--shape", "cyclic",
                       "--kupisch", "2;2")
    assert code == 2


@pytest.mark.parametrize("kupisch", ["2,,3", "2,3,", ",2,3", "2, ,3", ""])
def test_kupisch_rejects_empty_entries(capsys, kupisch):
    code, out, err = run(capsys, "nakayama", "fpdim", "--shape", "cyclic", "--kupisch", kupisch)
    assert code == 2 and out == ""
    assert f"got {kupisch!r}" in err


def test_kupisch_accepts_whitespace_around_entries(capsys):
    code, out, _ = run(capsys, "nakayama", "fpdim", "--shape", "cyclic", "--kupisch", " 2 , 2 ")
    assert code == 0 and "fpdim = 1.000000000000" in out


def test_nakayama_budget_exit3(capsys):
    # the semibrick scans take n <= 10 by default, the pair enumeration n <= 7
    for subcmd in ("fpdim", "sandwich", "report"):
        code, _, err = run(capsys, "nakayama", subcmd, "--shape", "cyclic",
                           "--kupisch", ",".join(["2"] * 11))
        assert code == 3 and "n = 11 > enumeration bound 10" in err
    code, _, err = run(capsys, "nakayama", "pairs", "--shape", "cyclic",
                       "--kupisch", "2,2,2,2,2,2,2,2")
    assert code == 3 and "n = 8 > enumeration bound 7" in err


# One invocation of every subcommand, run from the repository root.
EVERY_SUBCOMMAND = (
    [["quiver", sub, "--file", "fixtures/b2_quiver.json", "--json"]
     for sub in ("rho", "charpoly", "separated", "classify", "dot")]
    + [["lattice", "fpdim", "--file", "fixtures/example31.json", "--json"],
       ["lattice", "qu", "--file", "fixtures/hexagon.json", "--element", "e", "--json"],
       ["lattice", "check", "--file", "fixtures/hexagon.json", "--json"]]
    + [["coxeter", sub, "--type", "A", "--rank", "2", "--json"]
       for sub in ("order", "lattice", "longest", "fpdim")]
    + [["preproj", "quiver", "--type", "G", "--rank", "2", "--json"],
       ["preproj", "rho", "--type", "B", "--rank", "3", "--json"],
       ["preproj", "table", "--json"]]
    + [["nakayama", sub, "--shape", "cyclic", "--kupisch", "2,3,3", "--json"]
       for sub in ("report", "fpdim", "pairs", "sandwich")]
)


def test_json_reports_are_byte_identical(capsys, monkeypatch):
    assert {tuple(argv[:2]) for argv in EVERY_SUBCOMMAND} == set(SURFACE)
    monkeypatch.chdir(ROOT)
    for argv in EVERY_SUBCOMMAND:
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


# Golden reports: the witness and value paths of every FP-dimension report,
# and one report of every other subcommand, written once from a known-good
# tree.  Regenerate with
#     PYTHONPATH=src python tests/test_cli.py
# and review the diff: a changed name, witness, count or verdict is a change
# of behaviour, not of rounding.
GOLDEN = ROOT / "tests" / "golden" / "reports.json"
LATTICE_FIXTURES = ("bowtie", "chain5", "example31", "hexagon")
GOLDEN_ALGEBRAS = [("linear", "1,2"), ("linear", "1,2,2"), ("linear", "1,2,3"),
                   ("linear", "1,2,2,3"), ("linear", "1,2,3,3"), ("cyclic", "2,2"),
                   ("cyclic", "3,3"), ("cyclic", "2,3,3"), ("cyclic", "3,3,3"),
                   ("cyclic", "4,4,4,4")]
GOLDEN_CASES = (
    [["coxeter", "fpdim", "--type", fam, "--rank", str(rank), "--json"]
     for fam, rank in taufp.preproj.TABLE_TYPES]
    + [["lattice", sub, "--file", f"fixtures/{name}.json", "--json"]
       for name in LATTICE_FIXTURES for sub in ("fpdim", "check")]
    + [["nakayama", "report", "--shape", shape, "--kupisch", kupisch, "--json"]
       for shape, kupisch in GOLDEN_ALGEBRAS]
)
GOLDEN_CASES += [argv for argv in EVERY_SUBCOMMAND if argv not in GOLDEN_CASES]


def _golden_run(argv):
    """Exit code, stderr and the parsed JSON report (None when stdout is
    empty) of one in-process CLI run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    return {"exit": code, "stderr": err.getvalue(), "report": json.loads(text) if text else None}


def _same_report(got, want, where):
    """Exact equality except for floats, which agree within 1e-12 relative
    (BLAS may sum in another order on another machine)."""
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=1e-12), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict):
        assert got.keys() == want.keys(), f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            _same_report(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for k, (g, w) in enumerate(zip(got, want)):
            _same_report(g, w, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def test_reports_match_golden(monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(" ".join(argv) for argv in GOLDEN_CASES)
    monkeypatch.chdir(ROOT)
    for argv in GOLDEN_CASES:
        key = " ".join(argv)
        _same_report(_golden_run(argv), golden[key], key)


# sha256 of the --json reports of each coxeter subcommand over the table grid,
# one report per line in TABLE_TYPES order, and of the library's FP dimension
# (repr of the value, then the witness) of the tau-tilting model at
# multipliers 1-3: exact bytes, so not even the last digit of a value moves
WEYL_GRID_DIGESTS = {
    "lattice": "61081a45f6ba29ac462ad5f8ae888c3b2ab8cdf8aa2445c615cb6c09567e1313",
    "order": "a9313f0e5f9b1d48020547543f2314e2995880e34beb24c91472a421c86cfc68",
    "longest": "18be17e45f843b9385ea4bcc68308e2c03a104ef0d2805b07c6dde4cdd82cca9",
    "fpdim": "aff9c849712df5624544a214d2087c8a95c496d0e7ccdb60839d978dc3d7ed6f",
    "fpdim_lattice": "06d2666ebd587916c460ff0cdde3f015ef20a43eb318eee8a12d2c23f4d6a0e9",
}


def _weyl_grid_lines(what):
    if what == "fpdim_lattice":
        for fam, rank in taufp.preproj.TABLE_TYPES:
            for mult in (1, 2, 3):
                model = taufp.preproj.tau_tiltp_model(cartan_matrix(fam, rank, multiplier=mult))
                value, witness = taufp.lattice.fpdim_lattice(model)
                yield f"{fam}{rank} {mult} {value!r} {witness}"
        return
    for fam, rank in taufp.preproj.TABLE_TYPES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["coxeter", what, "--type", fam, "--rank", str(rank), "--json"]) == 0
        yield out.getvalue()


@pytest.mark.parametrize("what", sorted(WEYL_GRID_DIGESTS))
def test_weyl_grid_reports_are_byte_identical(what):
    digest = hashlib.sha256("\n".join(_weyl_grid_lines(what)).encode()).hexdigest()
    assert digest == WEYL_GRID_DIGESTS[what]


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({" ".join(argv): _golden_run(argv) for argv in GOLDEN_CASES},
                                 indent=1, sort_keys=True) + "\n")
