"""Command-line frontend: quiver / lattice / coxeter / preproj / nakayama.

Each subcommand takes exactly the options it reads, after the subcommand;
any other option is a usage error.  --tol exists only where a spectral
radius is computed, and is checked before any work.  Exit codes: 0 success,
1 failed verdict or internal consistency error, 2 invalid input, 3
enumeration budget exceeded.  With --json the report is a deterministic JSON
document (schema 1, sorted keys, no timing field) whose inputs echo the
subcommand's own options, so repeated runs are byte-identical; the
human-readable form prints elapsed time as well.  TAUFP_BUDGET overrides the
enumeration budgets: the maximum Weyl-group order for coxeter/preproj and
the maximum number of simples for nakayama.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import coxeter, lattice, nakayama, preproj, quiver, spectral
from .errors import BudgetError, ConsistencyError, LatticeError

SCHEMA = 1


def _fmt(x: float) -> str:
    return f"{x:.12f}"


def _budget(default: int) -> int:
    raw = os.environ.get("TAUFP_BUDGET")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"TAUFP_BUDGET must be an integer, got {raw!r}") from None


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None


class Report:
    """Accumulates a command report and renders it as JSON or text."""

    def __init__(self, command: str, inputs: dict):
        self.doc = {"schema": SCHEMA, "command": command, "inputs": inputs, "values": {}}
        self.lines: list[str] = []
        self.failed = False

    def value(self, key: str, val, text: str | None = None):
        self.doc["values"][key] = val
        self.lines.append(text if text is not None else f"{key}: {val}")

    def real(self, key: str, val: float):
        self.doc["values"][key] = val
        self.lines.append(f"{key} = {_fmt(val)}")

    def verdict(self, key: str, ok: bool):
        self.doc.setdefault("verdicts", {})[key] = bool(ok)
        self.lines.append(f"{key}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            self.failed = True

    def raw(self, text: str):
        self.lines.append(text)

    def emit(self, as_json: bool, started: float) -> int:
        if as_json:
            print(json.dumps(self.doc, sort_keys=True))
        else:
            for line in self.lines:
                print(line)
            print(f"elapsed: {time.perf_counter() - started:.3f}s")
        return 1 if self.failed else 0


# ---------------------------------------------------------------------------


def _cmd_quiver(args, report: Report) -> None:
    q = quiver.quiver_from_dict(_load_json(args.file))
    if args.subcmd == "rho":
        report.real("rho", spectral.spectral_radius(q, tol=args.tol, verify=args.verify))
    elif args.subcmd == "charpoly":
        p = spectral.char_poly(q)
        report.value("charpoly_coeffs_low_to_high", list(p.coeffs), f"charpoly: {p}")
    elif args.subcmd == "separated":
        s = quiver.separated_quiver(q)
        report.value("separated", quiver.quiver_to_dict(s), json.dumps(quiver.quiver_to_dict(s)))
    elif args.subcmd == "classify":
        tag = str(quiver.classify_underlying_graph(q))
        report.value("class", tag, tag)
    else:  # dot
        text = quiver.to_dot(q)
        report.value("dot", text, text)


def _cmd_lattice(args, report: Report) -> None:
    lat = lattice.lattice_from_dict(_load_json(args.file))
    if args.subcmd == "check":
        report.value("elements", len(lat))
        report.value("covers", len(lat.covers))
        report.verdict("lattice_axioms", True)
    elif args.subcmd == "fpdim":
        val, witness = lattice.fpdim_lattice(lat, tol=args.tol)
        report.real("fpdim", val)
        report.value("witness", witness)
    else:  # qu
        qu = lattice.q_of(lat, args.element)
        report.value("quiver", quiver.quiver_to_dict(qu), json.dumps(quiver.quiver_to_dict(qu)))


def _cartan_from_args(args) -> coxeter.CartanData:
    mult = getattr(args, "multiplier", 1)
    return coxeter.cartan_matrix(args.type, args.rank, multiplier=mult)


def _cmd_coxeter(args, report: Report) -> None:
    cd = _cartan_from_args(args)
    budget = _budget(coxeter.DEFAULT_BUDGET)
    if args.subcmd == "fpdim":  # of the opposite weak order (the tau-tilting poset model)
        model = preproj.tau_tiltp_model(cd, budget=budget)
        val, witness = lattice.fpdim_lattice(model, tol=args.tol)
        report.real("fpdim", val)
        report.value("witness", witness)
        return
    w = coxeter.weak_order(cd, budget=budget)
    if args.subcmd == "order":
        report.value("order", w.order)
    elif args.subcmd == "lattice":
        doc = lattice.lattice_to_dict(w.lattice)
        report.value("lattice", doc, json.dumps(doc))
    else:  # longest
        w0 = coxeter.longest_element(w)
        report.value("word", "".join(map(str, w0.word)))
        report.value("length", w0.length)


def _cmd_preproj(args, report: Report) -> None:
    if args.subcmd == "table":
        all_ok = True
        for fam, rank in preproj.TABLE_TYPES:
            for mult in (1, 2):
                cd = coxeter.cartan_matrix(fam, rank, multiplier=mult)
                computed, closed, ok = preproj._closed_form_check(cd, tol=args.tol)
                all_ok &= ok
                kind = "minimal" if mult == 1 else "non-minimal"
                report.raw(
                    f"{fam}{rank} ({kind}): rho = {_fmt(computed)} closed = {_fmt(closed)} "
                    f"{'PASS' if ok else 'FAIL'}"
                )
        report.doc["values"]["rows"] = len(preproj.TABLE_TYPES) * 2
        report.verdict("tables", all_ok)
        return
    cd = _cartan_from_args(args)
    q = preproj.gabriel_quiver(cd)
    if args.subcmd == "quiver":
        report.value("quiver", quiver.quiver_to_dict(q), json.dumps(quiver.quiver_to_dict(q)))
        loops = [q.labels[i] for i in range(q.n) if q.adj[i, i]]
        report.value("loops_at", loops, f"loops at: {', '.join(loops) if loops else 'none'}")
        if args.dot:
            report.value("dot", quiver.to_dot(q), quiver.to_dot(q))
    else:  # rho
        computed, closed, ok = preproj._closed_form_check(cd, tol=args.tol)
        report.real("rho", computed)
        report.real("closed_form", closed)
        report.verdict("closed_form_match", ok)


def _parse_kupisch(raw: str) -> list[int]:
    try:
        return [int(x) for x in raw.split(",")]
    except ValueError:
        raise ValueError(f"--kupisch must be a comma-separated integer list, got {raw!r}") from None


def _sandwich(alg, max_n: int, tol: float, report: Report) -> None:
    """Report FPdim(lattice), d_b, FPdim(A) and the sandwich verdict
    max(FPdim(lattice), d_b) <= FPdim(A) <= FPdim(lattice) + d_b."""
    fl, db, fa = nakayama.sandwich(alg, tol=tol, max_n=max_n)
    report.real("fpdim_lattice", fl)
    report.value("d_b", db)
    report.real("fpdim", fa)
    report.verdict("sandwich", max(fl, db) <= fa + 1e-9 and fa <= fl + db + 1e-9)


def _cmd_nakayama(args, report: Report) -> None:
    alg = nakayama.make_algebra(args.shape, _parse_kupisch(args.kupisch))
    if args.subcmd == "pairs":
        max_n = _budget(nakayama.DEFAULT_MAX_N)
        names = [p.name() for p in nakayama.tau_tilting_pairs(alg, max_n=max_n)]
        report.value("count", len(names))
        for name in names:
            report.raw(f"  {name}")
        report.doc["values"]["pairs"] = names
        return
    max_n = _budget(nakayama.DEFAULT_SCAN_MAX_N)
    if args.subcmd == "fpdim":
        report.real("fpdim", nakayama.fpdim_nakayama(alg, tol=args.tol, max_n=max_n))
        return
    if args.subcmd == "sandwich":
        _sandwich(alg, max_n, args.tol, report)
        return
    # report
    t = alg._tables
    names = [str(m) for m in t.mods]
    report.value("n", alg.n)
    report.value("indecomposables", names, f"indecomposables: {len(names)}")
    bricks = [name for name, b in zip(names, t.brick) if b]
    rigid = [name for name, r in zip(names, t.rigid) if r]
    report.value("bricks", bricks, f"bricks: {len(bricks)}")
    report.value("tau_rigid", rigid, f"tau-rigid: {len(rigid)}")
    _sandwich(alg, max_n, args.tol, report)
    # two independent enumerations: the semibrick search and the pair count
    semibrick_count = len(t.semibrick_masks[0])
    pair_count = t.pair_count
    report.value("semibrick_count", semibrick_count)
    report.value("tau_tilting_pair_count", pair_count)
    report.verdict("bijection", semibrick_count == pair_count)


# ---------------------------------------------------------------------------


# every option a subcommand may take; each leaf parser gets only the ones it reads
_OPTIONS = {
    "file": {"required": True, "help": "input JSON file"},
    "tol": {"type": float, "default": 1e-12, "help": "iteration tolerance"},
    "verify": {"action": "store_true",
               "help": "certify rho by Sturm counts of the exact characteristic polynomial"},
    "element": {"required": True, "help": "the element x of Q(x, dp(x))"},
    "type": {"required": True, "choices": list("ABCDEFG")},
    "rank": {"required": True, "type": int},
    "multiplier": {"type": int, "default": 1, "help": "symmetrizer multiplier c"},
    "dot": {"action": "store_true", "help": "also emit DOT"},
    "shape": {"required": True, "choices": ["linear", "cyclic"]},
    "kupisch": {"required": True, "help": "comma-separated Kupisch series"},
}

# command -> (handler, help, options of all its subcommands, {subcommand: its own options})
_COMMANDS = {
    "quiver": (_cmd_quiver, "spectral radius, char poly, separation, classification", ("file",),
               {"rho": ("tol", "verify"), "charpoly": (), "separated": (), "classify": (),
                "dot": ()}),
    "lattice": (_cmd_lattice, "FP dimension of a finite lattice", ("file",),
                {"fpdim": ("tol",), "qu": ("element",), "check": ()}),
    "coxeter": (_cmd_coxeter, "weak order of a Weyl group", ("type", "rank"),
                {"order": (), "lattice": (), "longest": (), "fpdim": ("tol",)}),
    "preproj": (_cmd_preproj, "Gabriel quivers of preprojective algebras", (),
                {"quiver": ("type", "rank", "multiplier", "dot"),
                 "rho": ("type", "rank", "multiplier", "tol"), "table": ("tol",)}),
    "nakayama": (_cmd_nakayama, "Nakayama algebra module calculus", ("shape", "kupisch"),
                 {"report": ("tol",), "fpdim": ("tol",), "pairs": (), "sandwich": ("tol",)}),
}


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser and its {(command, subcmd): leaf parser} table,
    built on first use and reused by every main()."""
    top = argparse.ArgumentParser(prog="taufp", description=__doc__)
    commands = top.add_subparsers(dest="command", required=True)
    leaf_of = {}
    for command, (_, help_text, shared, subcommands) in _COMMANDS.items():
        leaves = commands.add_parser(command, help=help_text).add_subparsers(
            dest="subcmd", required=True)
        for subcmd, own in subcommands.items():
            leaf = leaf_of[command, subcmd] = leaves.add_parser(subcmd)
            for name in shared + own:
                leaf.add_argument(f"--{name}", **_OPTIONS[name])
            leaf.add_argument("--json", action="store_true", help="emit a JSON report")
    return top, leaf_of


def main(argv=None) -> int:
    started = time.perf_counter()
    top, leaf_of = _parser()
    # argparse hands a subcommand's unknown options up to the top parser;
    # report them with the usage of the subcommand that was given them
    args, unknown = top.parse_known_args(argv)
    if unknown:
        leaf_of[args.command, args.subcmd].error(f"unrecognized arguments: {' '.join(unknown)}")
    # every option is required or has a default, so only the flags are left out
    inputs = {k: v for k, v in vars(args).items() if not isinstance(v, bool)}
    report = Report(f"{args.command} {args.subcmd}", inputs)
    try:
        if "tol" in inputs:
            spectral._check_tol(args.tol)
        _COMMANDS[args.command][0](args, report)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, LatticeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    return report.emit(args.json, started)

if __name__ == "__main__":
    raise SystemExit(main())
