"""perfbench: cold-process benchmark of the taufp library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the library is imported from ./src.
Every batch runs in a fresh interpreter (perfbench/child.py), because the
unbounded lru_caches in taufp.nakayama and the GC heap would otherwise carry
over between batches, and a one-shot CLI user always starts cold.  Children
are single-threaded (OMP/OPENBLAS/MKL_NUM_THREADS=1) with a fixed
PYTHONHASHSEED, and run one after another.

--trace 0 measures set-up (several setup-only children) and then repeats
cold batches while the next one still fits in S seconds.  It reports the
median wall time, CPU time and peak RSS of a batch, and the median set-up
time.  --trace 1 alternates an untraced and a traced batch of the same
seed and reports the per-layer metrics of the traced ones (tracer.py), the
tracing overhead and the per-op latency quantiles of the untraced ones.

Every batch checks its outputs after the timed phase.  The result is correct
only if no op failed, every batch of the seed produced the same output
digest (traced or not), and the trace restored every name it wrapped.  The
last stdout line is the JSON result; BENCHMARK.json names its metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
SETUP_CHILDREN = 5
DEADLINE_S = 170  # the whole invocation must end within 180 s


class HarnessError(RuntimeError):
    """A child crashed, timed out or printed no result."""


def _child_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(workload, seed, mode, deadline):
    """Run one child to completion and return its result, with its set-up
    time and its peak RSS (from wait4 rusage) taken from outside."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), "--mode", mode],
        stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT,
    )
    chunks = []
    fd = proc.stdout.fileno()
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise HarnessError(f"{mode} child of {workload} passed the deadline")
            if select.select([fd], [], [], remaining)[0]:
                data = os.read(fd, 1 << 16)
                if not data:
                    break
                chunks.append(data)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if proc.returncode != 0:
        raise HarnessError(f"{mode} child of {workload} exited with {proc.returncode}")
    lines = b"".join(chunks).decode().strip().splitlines()
    if not lines:
        raise HarnessError(f"{mode} child of {workload} printed no result")
    res = json.loads(lines[-1])
    res.update(setup_s=res["ready"] - start, peak_rss_mb=ru.ru_maxrss / 1024)
    return res


def _median(rows, key):
    return statistics.median(r[key] for r in rows)


def measure(workload, seed, seconds, traced):
    """Run the children of one invocation; returns (runs, traced_runs, setups)."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    setups, runs, traced_runs = [], [], []
    if not traced:
        setups = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_CHILDREN)]
    t0 = time.monotonic()
    longest = 0.0
    while True:
        step = time.monotonic()
        runs.append(spawn(workload, seed, "run", deadline))
        if traced:
            traced_runs.append(spawn(workload, seed, "trace", deadline))
        now = time.monotonic()
        longest = max(longest, now - step)
        if now - t0 + longest > seconds or now + longest > deadline:
            return runs, traced_runs, setups


def summarize(runs, traced_runs, setups, spec, traced):
    values = {}
    if traced:
        for name in traced_runs[0]["layers"]:
            values[name] = statistics.median(t["layers"][name] for t in traced_runs)
        values["trace.overhead_s"] = _median(traced_runs, "wall_s") - _median(runs, "wall_s")
        values["op.p50_ms"] = _median(runs, "op_p50_ms")
        values["op.p90_ms"] = _median(runs, "op_p90_ms")
    else:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            values[key] = _median(runs, key)
        values["setup_s"] = _median(setups + runs, "setup_s")
    metrics = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        if m["name"] not in values:
            raise HarnessError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return metrics


def main(argv=None):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated runner still stops and reaps its child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "taufp", "__init__.py")):
        print("perfbench: no src/taufp here; run from the root of a taufp checkout",
              file=sys.stderr)
        return 2
    try:
        runs, traced_runs, setups = measure(args.workload, args.seed, args.seconds,
                                            bool(args.trace))
        metrics = summarize(runs, traced_runs, setups, spec, bool(args.trace))
    except (HarnessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    batches = runs + traced_runs
    digests = sorted({b["digest"] for b in batches})
    failures = [f for b in batches for f in b["failures"]]
    restored = all(t["restored"] for t in traced_runs)
    for f in failures[:10]:
        print(f"failed: {f}", file=sys.stderr)
    if not restored:
        print("trace left a wrapped name behind", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} untraced and "
          f"{len(traced_runs)} traced batches, {len(setups)} setup-only children")
    print(f"sizes {json.dumps(batches[0]['sizes'], sort_keys=True)}")
    print(f"digest sha256 {' '.join(digests)}")
    print(json.dumps({
        "correct": not failures and len(digests) == 1 and restored,
        "attempted": sum(b["attempted"] for b in batches),
        "failed": sum(b["failed"] for b in batches),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
