"""Per-layer trace taken from outside the library.

`LayerTrace` wraps every public function of the taufp modules (the names in
each module's ``__all__``, plus ``cli.main``) at every module attribute it is
bound under, so calls between modules and within a module are both seen.
It records calls, inclusive time (outermost activation only), self time
(inclusive minus wrapped callees) and exceptions, counts collections and
their time through ``gc.callbacks``, and puts every name back on exit.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import time

MODULES = ("quiver", "spectral", "lattice", "coxeter", "preproj", "nakayama", "cli")

# Counters read off return values: qualified name -> [(counter, size of result)].
_RESULT_COUNTERS = {
    "taufp.lattice.from_covers": [("lattice.elements", len),
                                  ("lattice.covers", lambda r: len(r.covers))],
    "taufp.lattice.opposite": [("lattice.elements", len),
                               ("lattice.covers", lambda r: len(r.covers))],
    "taufp.coxeter.weak_order": [("coxeter.elements", lambda r: r.order)],
    "taufp.nakayama.tau_tilting_pairs": [("nakayama.pairs", len)],
    "taufp.nakayama.semibricks": [("nakayama.semibricks.count", len)],
}


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "errors", "active")

    def __init__(self):
        self.calls = self.errors = self.active = 0
        self.incl = self.self_s = 0.0


class LayerTrace:
    """Context manager; `stats` maps 'module.function' to a _Stat."""

    def __init__(self):
        mods = [importlib.import_module("taufp")]
        mods += [importlib.import_module(f"taufp.{m}") for m in MODULES]
        self._mods = mods
        self.stats: dict[str, _Stat] = {}
        self.counters: dict[str, int] = {}
        self.gc_s = 0.0
        self.gc_collections = 0
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def _targets(self):
        for mod in self._mods[1:]:
            names = getattr(mod, "__all__", ["main"])
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    yield fn

    def _wrap(self, fn):
        short = fn.__module__.removeprefix("taufp.") + "." + fn.__name__
        stat = self.stats[short] = _Stat()
        counters = _RESULT_COUNTERS.get(f"{fn.__module__}.{fn.__name__}", ())
        stack = self._stack
        clock = time.perf_counter
        totals = self.counters

        def traced(*args, **kwargs):
            stack.append(0.0)
            stat.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dt = clock() - t0
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if not stat.active:
                    stat.incl += dt
            for name, size in counters:
                totals[name] = totals.get(name, 0) + size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def __enter__(self):
        self._stack: list[float] = []
        wrappers = {id(fn): self._wrap(fn) for fn in self._targets()}
        for mod in self._mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and inspect.isfunction(val):
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        for mod, attr, val in self._saved:
            setattr(mod, attr, val)
        return False

    def restored(self) -> bool:
        """True when every wrapped binding holds its original function again."""
        return bool(self._saved) and all(
            getattr(mod, attr) is val for mod, attr, val in self._saved
        )

    def bindings(self) -> int:
        return len(self._saved)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json (without the ones the
        runner derives: trace.overhead_s, op.p50_ms, op.p90_ms)."""
        s = self.stats
        out = {}
        for f in ("tau_tilting_pairs", "semibricks", "tau_tiltp_lattice",
                  "fpdim_nakayama", "self_ext_bound"):
            out[f"nakayama.{f}.s"] = s[f"nakayama.{f}"].incl
        for f in ("hom_dim", "tau", "ext_dim", "ext_quiver"):
            out[f"nakayama.{f}.calls"] = s[f"nakayama.{f}"].calls
        out["lattice.build.s"] = s["lattice.from_covers"].incl + s["lattice.opposite"].incl
        out["lattice.fpdim_lattice.s"] = s["lattice.fpdim_lattice"].incl
        out["lattice.q_of.calls"] = s["lattice.q_of"].calls
        out["lattice.q_of.s"] = s["lattice.q_of"].incl
        out["coxeter.weak_order.self_s"] = s["coxeter.weak_order"].self_s
        for f in ("tau_tiltp_model", "fpdim_preproj"):
            out[f"preproj.{f}.s"] = s[f"preproj.{f}"].incl
        out["spectral.spectral_radius.calls"] = s["spectral.spectral_radius"].calls
        out["spectral.spectral_radius.self_s"] = s["spectral.spectral_radius"].self_s
        for f in ("char_poly", "largest_real_root", "definiteness"):
            out[f"spectral.{f}.s"] = s[f"spectral.{f}"].incl
        out["spectral.errors"] = sum(v.errors for k, v in s.items() if k.startswith("spectral."))
        for f in ("separated_quiver", "classify_underlying_graph"):
            out[f"quiver.{f}.s"] = s[f"quiver.{f}"].incl
        out["cli.main.self_s"] = s["cli.main"].self_s
        for name in ("nakayama.pairs", "nakayama.semibricks.count", "lattice.elements",
                     "lattice.covers", "coxeter.elements"):
            out[name] = self.counters.get(name, 0)
        out["gc.s"] = self.gc_s
        out["gc.collections"] = self.gc_collections
        return out
