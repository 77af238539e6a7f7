"""Command-line frontend: quiver / lattice / coxeter / preproj / nakayama.

Exit codes: 0 success, 1 failed verdict or internal consistency error,
2 invalid input, 3 enumeration budget exceeded.  With --json the report is
a deterministic JSON document (schema 1, sorted keys, no timing field) so
repeated runs are byte-identical; the human-readable form prints elapsed
time as well.  TAUFP_BUDGET overrides the enumeration budgets: the maximum
Weyl-group order for coxeter/preproj and the maximum number of simples for
nakayama.
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
        if not args.element:
            raise ValueError("qu needs --element")
        qu = lattice.q_of(lat, args.element)
        report.value("quiver", quiver.quiver_to_dict(qu), json.dumps(quiver.quiver_to_dict(qu)))


def _cartan_from_args(args) -> coxeter.CartanData:
    mult = getattr(args, "multiplier", 1)
    return coxeter.cartan_matrix(args.type, args.rank, multiplier=mult)


def _cmd_coxeter(args, report: Report) -> None:
    cd = _cartan_from_args(args)
    budget = _budget(coxeter.DEFAULT_BUDGET)
    if args.subcmd == "fpdim":  # of the opposite weak order (the tau-tilting poset model)
        val, witness = lattice.fpdim_lattice(preproj.tau_tiltp_model(cd, budget=budget))
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
                computed = spectral.spectral_radius(preproj.gabriel_quiver(cd))
                closed = preproj.dynkin_rho(fam, rank, minimal=(mult == 1))
                ok = abs(computed - closed) <= 1e-9
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
        computed = spectral.spectral_radius(q, tol=args.tol)
        closed = preproj.dynkin_rho(cd.family, cd.rank, minimal=cd.minimal)
        report.real("rho", computed)
        report.real("closed_form", closed)
        report.verdict("closed_form_match", abs(computed - closed) <= 1e-9)


def _parse_kupisch(raw: str) -> list[int]:
    try:
        return [int(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"--kupisch must be a comma-separated integer list, got {raw!r}") from None


def _sandwich(alg, max_n: int, report: Report):
    """Report FPdim(lattice), d_b, FPdim(A) and the sandwich verdict
    max(FPdim(lattice), d_b) <= FPdim(A) <= FPdim(lattice) + d_b; return the lattice."""
    lat = nakayama.tau_tiltp_lattice(alg, max_n=max_n)
    fl, _ = lattice.fpdim_lattice(lat)
    db = nakayama.self_ext_bound(alg)
    fa = nakayama.fpdim_nakayama(alg, max_n=max_n)
    report.real("fpdim_lattice", fl)
    report.value("d_b", db)
    report.real("fpdim", fa)
    report.verdict("sandwich", max(fl, db) <= fa + 1e-9 and fa <= fl + db + 1e-9)
    return lat


def _cmd_nakayama(args, report: Report) -> None:
    alg = nakayama.make_algebra(args.shape, _parse_kupisch(args.kupisch))
    max_n = _budget(nakayama.DEFAULT_MAX_N)
    if args.subcmd == "fpdim":
        report.real("fpdim", nakayama.fpdim_nakayama(alg, max_n=max_n))
        return
    if args.subcmd == "pairs":
        pairs = nakayama.tau_tilting_pairs(alg, max_n=max_n)
        report.value("count", len(pairs))
        for p in pairs:
            report.raw(f"  {p.name()}")
        report.doc["values"]["pairs"] = [p.name() for p in pairs]
        return
    if args.subcmd == "sandwich":
        _sandwich(alg, max_n, report)
        return
    # report; the lattice elements are the tau-tilting pairs
    mods = nakayama.indecomposables(alg)
    report.value("n", alg.n)
    report.value("indecomposables", [str(m) for m in mods], f"indecomposables: {len(mods)}")
    brick_tab = {str(m): nakayama.is_brick(alg, m) for m in mods}
    rigid_tab = {str(m): nakayama.is_tau_rigid_module(alg, m) for m in mods}
    report.value("bricks", [k for k, v in brick_tab.items() if v],
                 f"bricks: {sum(brick_tab.values())}")
    report.value("tau_rigid", [k for k, v in rigid_tab.items() if v],
                 f"tau-rigid: {sum(rigid_tab.values())}")
    sbs = nakayama.semibricks(alg, max_n=max_n)
    lat = _sandwich(alg, max_n, report)
    report.value("semibrick_count", len(sbs))
    report.value("tau_tilting_pair_count", len(lat))
    report.verdict("bijection", len(sbs) == len(lat))


# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every main()."""
    top = argparse.ArgumentParser(prog="taufp", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--tol", type=float, default=1e-12, help="iteration tolerance")

    pq = sub.add_parser("quiver", help="spectral radius, char poly, separation, classification")
    pq.add_argument("subcmd", choices=["rho", "charpoly", "separated", "classify", "dot"])
    pq.add_argument("--file", required=True, help="quiver JSON file")
    pq.add_argument("--verify", action="store_true",
                    help="cross-check rho against exact root isolation")
    add_common(pq)

    pl = sub.add_parser("lattice", help="FP dimension of a finite lattice")
    pl.add_argument("subcmd", choices=["fpdim", "qu", "check"])
    pl.add_argument("--file", required=True, help="lattice JSON file")
    pl.add_argument("--element", help="element x for the qu subcommand")
    add_common(pl)

    pc = sub.add_parser("coxeter", help="weak order of a Weyl group")
    pc.add_argument("subcmd", choices=["order", "lattice", "longest", "fpdim"])
    pc.add_argument("--type", required=True, choices=list("ABCDEFG"))
    pc.add_argument("--rank", required=True, type=int)
    add_common(pc)

    pp = sub.add_parser("preproj", help="Gabriel quivers of preprojective algebras")
    pp.add_argument("subcmd", choices=["quiver", "rho", "table"])
    pp.add_argument("--type", choices=list("ABCDEFG"))
    pp.add_argument("--rank", type=int)
    pp.add_argument("--multiplier", type=int, default=1, help="symmetrizer multiplier c")
    pp.add_argument("--dot", action="store_true", help="also emit DOT for the quiver subcommand")
    add_common(pp)

    pn = sub.add_parser("nakayama", help="Nakayama algebra module calculus")
    pn.add_argument("subcmd", choices=["report", "fpdim", "pairs", "sandwich"])
    pn.add_argument("--shape", required=True, choices=["linear", "cyclic"])
    pn.add_argument("--kupisch", required=True, help="comma-separated Kupisch series")
    add_common(pn)
    return top


_DISPATCH = {
    "quiver": _cmd_quiver,
    "lattice": _cmd_lattice,
    "coxeter": _cmd_coxeter,
    "preproj": _cmd_preproj,
    "nakayama": _cmd_nakayama,
}


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "preproj" and args.subcmd != "table":
        if args.type is None or args.rank is None:
            parser.error("preproj quiver/rho need --type and --rank")
    inputs = {
        k: v
        for k, v in vars(args).items()
        if k not in ("json",) and v is not None and not isinstance(v, bool)
    }
    report = Report(f"{args.command} {args.subcmd}", inputs)
    try:
        _DISPATCH[args.command](args, report)
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
