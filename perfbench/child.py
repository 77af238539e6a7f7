"""One cold batch of a perfbench workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode {setup,run,trace}

run.py starts this with PYTHONPATH pointing at the checkout's src/.
setup imports numpy and taufp, builds the inputs and exits; run times the
batch; trace times it again under LayerTrace.  After the timed phase every
output is checked, and one JSON line goes to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import statistics
import sys
import time


def _canonical(out):
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def run_batch(op, inputs):
    """Apply op to every input, one after another.  A raising op is recorded
    as an error output and the batch goes on.  Returns (outputs, errors,
    per-op seconds)."""
    outputs, errors, times = [], [], []
    clock = time.perf_counter
    for inp in inputs:
        t0 = clock()
        try:
            out = op(inp)
            err = None
        except Exception as exc:  # the harness boundary: count it, keep going
            out = {"error": type(exc).__name__}
            err = f"{type(exc).__name__}: {exc}"
        times.append(clock() - t0)
        outputs.append(out)
        errors.append(err)
    return outputs, errors, times


def check_batch(check, inputs, outputs, errors):
    """Fill in a check failure for every op that returned; returns the list of
    failure messages (None where the op passed) and the sha256 digest of all
    outputs in order."""
    digest = hashlib.sha256()
    for i, (inp, out) in enumerate(zip(inputs, outputs)):
        digest.update(_canonical(out).encode())
        digest.update(b"\n")
        if errors[i] is None:
            try:
                errors[i] = check(inp, out)
            except Exception as exc:  # a malformed output fails its check
                errors[i] = f"check raised {type(exc).__name__}: {exc}"
    return errors, digest.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = p.parse_args(argv)

    import workloads  # imports numpy and taufp

    make_inputs, op, check, sizes = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    result = {"ready": time.monotonic(), "sizes": sizes(inputs)}
    if args.mode != "setup":
        trace = None
        if args.mode == "trace":
            from tracer import LayerTrace

            trace = LayerTrace()
        with trace or contextlib.nullcontext():
            t0, cpu0 = time.perf_counter(), time.process_time()
            outputs, errors, times = run_batch(op, inputs)
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        errors, digest = check_batch(check, inputs, outputs, errors)
        failures = [f"op {i}: {e}" for i, e in enumerate(errors) if e is not None]
        result.update(
            wall_s=wall, cpu_s=cpu, attempted=len(inputs), failed=len(failures),
            failures=failures[:5], digest=digest,
            op_p50_ms=statistics.median(times) * 1e3,
            op_p90_ms=statistics.quantiles(times, n=10)[8] * 1e3,
        )
        if trace is not None:
            result.update(layers=trace.layer_metrics(), restored=trace.restored(),
                          bindings=trace.bindings())
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
