"""The three perfbench workloads: inputs from a seed, one operation per input,
and an output check that runs after the timed phase.

Each workload is a closed-loop batch: one caller issues each operation after
the previous one returns.  The library is reached only through its public
functions and ``taufp.cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

import numpy as np

import taufp
from taufp import cli

# The A-G grid of the paper's tables.  E6 (51,840 elements) dominates the
# time and the peak RSS of the weak-order workload.
TABLE_TYPES = (
    [("A", r) for r in range(1, 7)]
    + [("B", r) for r in (2, 3, 4)]
    + [("C", r) for r in (2, 3, 4)]
    + [("D", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6)]
)

# Dense quivers stop at 14 vertices: the exact char-poly and Sturm route of
# spectral_radius(verify=True) grows so fast beyond that (1.5 s at n = 24,
# 13 s at n = 32) that a few draws would dominate a batch.
DENSE_SIZES = range(3, 15)
DENSE_PER_SIZE = 10
# A fixed arrow density: the Sturm cost grows with it, so a random density
# would make a batch's cost depend on the seed.
DENSITY = 0.5
SPARSE_COUNT = 40
SPARSE_SIZES = (100, 400)

REL_TOL = 1e-9


# -- nakayama-corpus ----------------------------------------------------------


def _linear_series(n_max):
    out = []

    def extend(series):
        out.append(tuple(series))
        if len(series) < n_max:
            i = len(series) + 1
            for l in range(2, min(series[-1] + 1, i) + 1):
                extend(series + [l])

    extend([1])
    return out


def _cyclic_series(n_max, l_max):
    return [
        ls
        for n in range(1, n_max + 1)
        for ls in itertools.product(range(2, l_max + 1), repeat=n)
        if all(ls[i] <= ls[i - 1] + 1 for i in range(n))
    ]


def nakayama_inputs(seed):
    """Every connected Nakayama algebra with n <= 4 and l_i <= 8, shuffled."""
    corpus = [("linear", s) for s in _linear_series(4)]
    corpus += [("cyclic", s) for s in _cyclic_series(4, 8)]
    random.Random(seed).shuffle(corpus)
    return corpus


def nakayama_op(inp):
    shape, kupisch = inp
    argv = ["nakayama", "report", "--shape", shape,
            "--kupisch", ",".join(map(str, kupisch)), "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code, "report": out.getvalue()}


def nakayama_check(inp, out):
    if out["exit"] != 0:
        return f"exit code {out['exit']}"
    doc = json.loads(out["report"])
    want = 1.0 if inp[0] == "cyclic" else 0.0
    if abs(doc["values"]["fpdim"] - want) > REL_TOL:
        return f"fpdim {doc['values']['fpdim']!r}, expected {want}"
    bad = [k for k in ("bijection", "sandwich") if doc["verdicts"].get(k) is not True]
    return f"verdicts not true: {bad}" if bad else None


def nakayama_sizes(inputs):
    return {"algebras": len(inputs),
            "linear": sum(1 for s, _ in inputs if s == "linear"),
            "simples": sum(len(k) for _, k in inputs)}


# -- weak-order ---------------------------------------------------------------


def weak_order_inputs(seed):
    types = list(TABLE_TYPES)
    random.Random(seed).shuffle(types)
    return types


def weak_order_op(inp):
    family, rank = inp
    lat = taufp.tau_tiltp_model(taufp.cartan_matrix(family, rank))
    fpdim, witness = taufp.fpdim_lattice(lat)
    preproj = [taufp.fpdim_preproj(taufp.cartan_matrix(family, rank, multiplier=c))
               for c in (1, 2)]
    return {"elements": len(lat), "covers": len(lat.covers), "fpdim": fpdim,
            "witness": witness, "preproj": preproj}


def _numpy_rho(adj):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(adj, dtype=np.float64)))))


def _close(got, want):
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def weak_order_check(inp, out):
    family, rank = inp
    gab = taufp.gabriel_quiver(taufp.cartan_matrix(family, rank))
    want = _numpy_rho(taufp.loop_removed(gab).adj)
    if not _close(out["fpdim"], want):
        return f"lattice fpdim {out['fpdim']!r} != rho(loop-removed Gabriel) {want!r}"
    for c, got in zip((1, 2), out["preproj"]):
        want = _numpy_rho(taufp.gabriel_quiver(taufp.cartan_matrix(family, rank, c)).adj)
        if not _close(got, want):
            return f"fpdim_preproj(c={c}) {got!r} != numpy rho {want!r}"
    return None


def weak_order_sizes(inputs):
    return {"types": len(inputs)}


# -- spectral-verify ----------------------------------------------------------


def _strongly_connected(rng, n, extra, max_mult):
    """A random Hamiltonian cycle plus `extra` random arrows of multiplicity
    1..max_mult.  Strong connectivity keeps the Perron root simple, so the
    numpy eigenvalue check is well conditioned."""
    adj = np.zeros((n, n), dtype=np.int64)
    perm = rng.permutation(n)
    adj[perm, np.roll(perm, 1)] = 1
    i = rng.integers(0, n, extra)
    j = rng.integers(0, n, extra)
    np.add.at(adj, (i, j), rng.integers(1, max_mult + 1, extra))
    return adj


def spectral_inputs(seed):
    """~120 dense small quivers (exact verification and bipartite forms) and
    ~40 sparse large ones (power iteration only), shuffled together."""
    rng = np.random.default_rng(seed)
    inputs = []
    for n in DENSE_SIZES:
        for _ in range(DENSE_PER_SIZE):
            adj = (rng.random((n, n)) < DENSITY) * rng.integers(1, 4, size=(n, n))
            adj = np.minimum(adj + _strongly_connected(rng, n, 0, 1), 3)
            inputs.append(("dense", adj))
    lo, hi = SPARSE_SIZES
    for k in range(SPARSE_COUNT):
        n = lo + (hi - lo) * k // (SPARSE_COUNT - 1)
        inputs.append(("sparse", _strongly_connected(rng, n, 2 * n, 3)))
    order = rng.permutation(len(inputs))
    return [inputs[i] for i in order]


def _quiver(adj):
    return taufp.Quiver([f"v{i}" for i in range(adj.shape[0])], adj)


def spectral_op(inp):
    kind, adj = inp
    q = _quiver(adj)
    if kind == "sparse":
        return {"rho": taufp.spectral_radius(q)}
    rho = taufp.spectral_radius(q, verify=True)
    comps = []
    for c in taufp.connected_components(taufp.separated_quiver(q)):
        d = taufp.definiteness(taufp.gram_matrix(c))
        comps.append([str(taufp.classify_underlying_graph(c)), d.tag, len(d.kernel_basis)])
    return {"rho": rho, "components": comps}


def _numpy_definiteness(g):
    ev = np.linalg.eigvalsh(np.array(g.rows, dtype=np.float64))
    # a few times the backward error of a symmetric eigensolver
    eps = 1e-12 * len(ev) * max(1.0, float(np.max(np.abs(ev))))
    zero = int(np.sum(np.abs(ev) <= eps))
    if ev.min() < -eps:
        return "indefinite", None
    return ("psd_singular", zero) if zero else ("positive_definite", 0)


def spectral_check(inp, out):
    kind, adj = inp
    want = _numpy_rho(adj)
    if not _close(out["rho"], want):
        return f"rho {out['rho']!r} != numpy {want!r}"
    if kind == "dense":
        comps = taufp.connected_components(taufp.separated_quiver(_quiver(adj)))
        if len(comps) != len(out["components"]):
            return f"{len(out['components'])} components, expected {len(comps)}"
        for c, (_, tag, kernel) in zip(comps, out["components"]):
            want_tag, want_kernel = _numpy_definiteness(taufp.gram_matrix(c))
            if tag != want_tag or (want_kernel is not None and kernel != want_kernel):
                return f"definiteness {tag}/{kernel} != numpy {want_tag}/{want_kernel}"
    return None


def spectral_sizes(inputs):
    dense = [a.shape[0] for k, a in inputs if k == "dense"]
    sparse = [a.shape[0] for k, a in inputs if k == "sparse"]
    return {"dense_quivers": len(dense), "dense_vertices": sum(dense),
            "sparse_quivers": len(sparse), "sparse_vertices": sum(sparse),
            "sparse_arrows": int(sum(int(a.sum()) for k, a in inputs if k == "sparse"))}


# Badly scaled double path (arrows i -> i+1 of multiplicity 10**6, back-arrows
# of multiplicity 1): spectral_radius underflows the Perron vector and raises.
# rho = 2 sqrt(10**6) cos(pi / (n + 1)).  Kept out of the timed workloads,
# which must not fail; selftest.py runs it as the known raising op.
DOUBLE_PATH_N = 120
DOUBLE_PATH_MULT = 10**6


def double_path():
    n = DOUBLE_PATH_N
    adj = np.zeros((n, n), dtype=np.int64)
    idx = np.arange(n - 1)
    adj[idx, idx + 1] = DOUBLE_PATH_MULT
    adj[idx + 1, idx] = 1
    return ("sparse", adj)


def double_path_check(out):
    want = 2 * np.sqrt(DOUBLE_PATH_MULT) * np.cos(np.pi / (DOUBLE_PATH_N + 1))
    return None if _close(out["rho"], want) else f"rho {out['rho']!r} != {want!r}"


WORKLOADS = {
    "nakayama-corpus": (nakayama_inputs, nakayama_op, nakayama_check, nakayama_sizes),
    "weak-order": (weak_order_inputs, weak_order_op, weak_order_check, weak_order_sizes),
    "spectral-verify": (spectral_inputs, spectral_op, spectral_check, spectral_sizes),
}
