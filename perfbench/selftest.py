"""Self-tests of the perfbench harness.  Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/selftest.py

1. Harness: a raising op is counted as failed and the batch goes on; an op
   whose output fails its check is counted too.  The badly scaled double
   path, the known failure of spectral_radius, is run here and its outcome
   printed.
2. Trace: on a slice of every workload the traced and untraced batches give
   the same output digest, every wrapped name is restored afterwards, and
   the trace saw the calls.
3. BENCHMARK.json names only metrics the harness produces.
4. Without src/taufp next to it, run.py exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import taufp
import workloads
from child import check_batch, run_batch
from tracer import LayerTrace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SLICES = {
    "nakayama-corpus": lambda xs: xs[:25],
    "weak-order": lambda xs: [t for t in xs if t not in (("E", 6), ("F", 4))],
    "spectral-verify": lambda xs: xs[:20],
}


def test_harness_counts_failures():
    outputs, errors, _ = run_batch(lambda x: 1 // x, [1, 0, 2])
    assert outputs[2] == 0 and errors[0] is None and errors[2] is None, errors
    assert errors[1].startswith("ZeroDivisionError"), errors
    errors, _ = check_batch(lambda i, o: "wrong" if i == 2 else None, [1, 0, 2], outputs, errors)
    assert [e is not None for e in errors] == [False, True, True], errors

    inputs = workloads.spectral_inputs(0)[:2]
    inputs.insert(1, workloads.double_path())
    outputs, errors, _ = run_batch(workloads.spectral_op, inputs)

    def check(inp, out):
        if inp is inputs[1]:
            return workloads.double_path_check(out)
        return workloads.spectral_check(inp, out)

    errors, _ = check_batch(check, inputs, outputs, errors)
    assert errors[0] is None and errors[2] is None, errors
    print(f"double path (n={workloads.DOUBLE_PATH_N}): {errors[1] or 'passes'}")


def test_trace_keeps_results_and_restores():
    originals = {name: getattr(taufp.nakayama, name) for name in taufp.nakayama.__all__}
    for name, (make_inputs, op, check, _) in workloads.WORKLOADS.items():
        inputs = SLICES[name](make_inputs(7))
        # traced first: the lru_caches in taufp.nakayama are still cold
        with LayerTrace() as trace:
            outputs, errors, _ = run_batch(op, inputs)
        traced_errors, traced_digest = check_batch(check, inputs, outputs, errors)
        outputs, errors, _ = run_batch(op, inputs)
        plain_errors, plain_digest = check_batch(check, inputs, outputs, errors)
        assert traced_digest == plain_digest, name
        assert not any(traced_errors) and not any(plain_errors), name
        assert trace.restored() and trace.bindings() > 50, (name, trace.bindings())
        assert trace.layer_metrics()["spectral.spectral_radius.calls"] > 0, name
    for name, fn in originals.items():
        assert getattr(taufp.nakayama, name) is fn, name
    assert not hasattr(taufp.spectral_radius, "__wrapped__")


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with LayerTrace() as trace:
        pass
    produced = set(trace.layer_metrics()) | {"trace.overhead_s", "op.p50_ms", "op.p90_ms"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb",
                                                        "setup_s"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "weak-order", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=60,
        )
    assert out.returncode != 0 and not out.stdout.strip(), out


if __name__ == "__main__":
    for test in (test_harness_counts_failures, test_trace_keeps_results_and_restores,
                 test_benchmark_json_matches_harness, test_refuses_without_sources):
        test()
        print(f"ok {test.__name__}")
