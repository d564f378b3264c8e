"""Timing and counting wrappers installed around the program's public calls.

The traced run replaces each traced function in every ``cnmpc`` module
namespace that holds it, so calls between modules (``precond`` calling its
own ``assemble_jacobian``, ``simcli`` calling its own ``initial_solve``) pass
through the wrappers too.  Each call is a span with a parent link; spans stay
in memory until the run ends.  The problem callbacks inside ``OcpSpec`` run
tens of times per residual evaluation, so they are counted and timed in
aggregate and their time is charged to the enclosing span as child time.
Wrappers re-raise exceptions unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import time
from contextlib import contextmanager
from typing import Callable, Optional

import cnmpc
from cnmpc import continuation, krylov, mintime, precond, simcli
from cnmpc.krylov import LinearMap

MODULES = (cnmpc, continuation, krylov, mintime, precond, simcli)
LAYERS = ("continuation", "krylov", "precond", "mintime", "simcli", "bench")
CALLBACK_FIELDS = ("f", "H_u", "H_x", "H_p", "C", "psi", "psi_x", "psi_p", "phi", "phi_x", "phi_p")


class Tracer:
    """Spans as parallel lists; index -1 is "no parent"."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.child_ns: list[int] = []
        self.notes: list = []
        self.tags: list = []
        self.stack: list[int] = []
        self.callbacks = [0, 0]  # calls, ns

    def _open(self, name: str, tag=None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(0)
        self.ends.append(0)
        self.child_ns.append(0)
        self.notes.append(None)
        self.tags.append(tag)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int, t1: int) -> None:
        self.stack.pop()
        self.starts[idx] = t0
        self.ends[idx] = t1
        parent = self.parents[idx]
        if parent >= 0:
            self.child_ns[parent] += t1 - t0

    @contextmanager
    def span(self, name: str, tag=None):
        idx = self._open(name, tag)
        t0 = time.perf_counter_ns()
        try:
            yield idx
        finally:
            self._close(idx, t0, time.perf_counter_ns())

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, clock())
            if note is not None:
                self.notes[idx] = note(result, args, kwargs)
            return result

        return traced

    def wrap_callback(self, fn: Callable) -> Callable:
        clock = time.perf_counter_ns
        agg, stack, child_ns = self.callbacks, self.stack, self.child_ns

        @functools.wraps(fn)
        def counted(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                agg[0] += 1
                agg[1] += dt
                if stack:
                    child_ns[stack[-1]] += dt

        return counted


def _bound(fn: Callable, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _targets(tr: Tracer) -> list[tuple[Callable, Callable]]:
    """(original, wrapper) pairs for every traced function."""
    originals = {
        "continuation.optimality_residual": continuation.optimality_residual,
        "continuation.difference_operator": continuation.difference_operator,
        "continuation.assemble_jacobian": continuation.assemble_jacobian,
        "continuation.continuation_step": continuation.continuation_step,
        "continuation.initial_solve": continuation.initial_solve,
        "krylov.gmres": krylov.gmres,
        "krylov.lu_factor": krylov.lu_factor,
        "krylov.lu_solve": krylov.lu_solve,
        "krylov.dense_solve": krylov.dense_solve,
        "precond.should_rebuild": precond.should_rebuild,
        "precond.rebuild": precond.rebuild,
        "precond.apply": precond.apply,
        "mintime.problem_spec": mintime.problem_spec,
        "mintime.initial_guess": mintime.initial_guess,
        "mintime.plant_rate": mintime.plant_rate,
        "simcli.run_simulation": simcli.run_simulation,
        "simcli.write_csv": simcli.write_csv,
    }
    initial_solve = originals["continuation.initial_solve"]
    notes = {
        "krylov.gmres": lambda r, a, k: (r.iterations, r.converged),
        "continuation.assemble_jacobian": lambda r, a, k: r.shape[1],
        "precond.rebuild": lambda r, a, k: r.stale,
        "continuation.initial_solve": lambda r, a, k: (
            r.newton_iterations,
            r.residual_norm <= _bound(initial_solve, a, k)["tol_init"],
        ),
        "simcli.write_csv": lambda r, a, k: os.path.getsize(a[1] if len(a) > 1 else k["path"]),
    }
    pairs = []
    for name, fn in originals.items():
        wrapped = tr.wrap(name, fn, notes.get(name))
        if name == "continuation.difference_operator":
            wrapped = _wrap_operator(tr, wrapped)
        elif name == "mintime.problem_spec":
            wrapped = _wrap_spec(tr, wrapped)
        pairs.append((fn, wrapped))
    return pairs


def _wrap_operator(tr: Tracer, make: Callable) -> Callable:
    @functools.wraps(make)
    def traced(*args, **kwargs):
        op = make(*args, **kwargs)
        return LinearMap(op.dim, tr.wrap("continuation.apply", op.apply))

    return traced


def _wrap_spec(tr: Tracer, make: Callable) -> Callable:
    @functools.wraps(make)
    def traced(*args, **kwargs):
        spec = make(*args, **kwargs)
        callbacks = {
            f: tr.wrap_callback(getattr(spec, f))
            for f in CALLBACK_FIELDS
            if getattr(spec, f) is not None
        }
        return dataclasses.replace(spec, **callbacks)

    return traced


@contextmanager
def installed(tr: Tracer):
    """Install the wrappers in every cnmpc namespace; restore on exit."""
    patched = []
    try:
        for original, wrapped in _targets(tr):
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, key, value))
                        setattr(module, key, wrapped)
        yield tr
    finally:
        for module, key, value in reversed(patched):
            setattr(module, key, value)


def _ms(ns: int) -> float:
    return ns / 1e6


def summarize(tr: Tracer) -> dict:
    """Per (name, N) calls, total and self time and notes, plus the
    line-search residual count per N.

    The N of a span is the tag of its nearest tagged ancestor: the benchmark
    tags each operation span with its horizon.  A residual is a line-search
    evaluation when its nearest enclosing assembly or cold start is the cold
    start.  Parents are opened before their children, so one forward sweep
    sees every parent first.
    """
    n = len(tr.names)
    tag: list = [None] * n
    scope: list = [None] * n
    by: dict = {}
    linesearch: dict = {}
    for i, name in enumerate(tr.names):
        p = tr.parents[i]
        parent_tag, parent_scope = (tag[p], scope[p]) if p >= 0 else (None, None)
        tag[i] = tr.tags[i] if tr.tags[i] is not None else parent_tag
        scope[i] = name if name in _SCOPES else parent_scope
        if name == "continuation.optimality_residual" and parent_scope == "continuation.initial_solve":
            linesearch[tag[i]] = linesearch.get(tag[i], 0) + 1
        rec = by.setdefault((name, tag[i]), {"calls": 0, "ns": 0, "self_ns": 0, "notes": []})
        dur = tr.ends[i] - tr.starts[i]
        rec["calls"] += 1
        rec["ns"] += dur
        rec["self_ns"] += dur - tr.child_ns[i]
        if tr.notes[i] is not None:
            rec["notes"].append(tr.notes[i])
    return {"by": by, "linesearch": linesearch}


_SCOPES = ("continuation.assemble_jacobian", "continuation.initial_solve")


class _View:
    """Sums over the spans of one name, optionally for one horizon."""

    def __init__(self, summary: dict, horizon: Optional[int] = None) -> None:
        self.by = summary["by"]
        self.horizon = horizon
        self.linesearch = sum(
            v for k, v in summary["linesearch"].items() if horizon is None or k == horizon
        )

    def recs(self, name: str) -> list[dict]:
        return [
            r for (nm, tag), r in self.by.items()
            if nm == name and (self.horizon is None or tag == self.horizon)
        ]

    def calls(self, name: str) -> int:
        return sum(r["calls"] for r in self.recs(name))

    def ns(self, name: str) -> int:
        return sum(r["ns"] for r in self.recs(name))

    def self_ns(self, name: str) -> int:
        return sum(r["self_ns"] for r in self.recs(name))

    def notes(self, name: str) -> list:
        return [x for r in self.recs(name) for x in r["notes"]]

    def per_call(self, name: str, scale: float) -> float:
        calls = self.calls(name)
        return self.ns(name) * scale / calls if calls else 0.0


def _frac(flags: list[bool]) -> float:
    return float(sum(flags)) / len(flags) if flags else 0.0


def layer_metrics(tr: Tracer, horizons: tuple[int, ...]) -> dict:
    """The per-layer metrics of one traced pass, as {name: (value, unit)},
    with the per-call costs split by each of ``horizons``."""
    s = summarize(tr)
    v = _View(s)
    gmres = v.notes("krylov.gmres")
    cold = v.notes("continuation.initial_solve")
    m = {
        "continuation.optimality_residual.calls": (v.calls("continuation.optimality_residual"), "count"),
        "continuation.optimality_residual.us_per_call": (v.per_call("continuation.optimality_residual", 1e-3), "us"),
        "continuation.apply.calls": (v.calls("continuation.apply"), "count"),
        "continuation.apply.ms": (_ms(v.ns("continuation.apply")), "ms"),
        "krylov.gmres.calls": (v.calls("krylov.gmres"), "count"),
        "krylov.gmres.iterations": (sum(it for it, _ in gmres), "count"),
        "krylov.gmres.self_ms": (_ms(v.self_ns("krylov.gmres")), "ms"),
        "krylov.gmres.converged_frac": (_frac([c for _, c in gmres]), "frac"),
        "continuation.assemble_jacobian.calls": (v.calls("continuation.assemble_jacobian"), "count"),
        "continuation.assemble_jacobian.columns": (sum(v.notes("continuation.assemble_jacobian")), "count"),
        "continuation.assemble_jacobian.ms": (_ms(v.ns("continuation.assemble_jacobian")), "ms"),
        "krylov.lu_factor.calls": (v.calls("krylov.lu_factor"), "count"),
        "krylov.lu_factor.ms": (_ms(v.ns("krylov.lu_factor")), "ms"),
        "precond.rebuild.calls": (v.calls("precond.rebuild"), "count"),
        "precond.rebuild.ms": (_ms(v.ns("precond.rebuild")), "ms"),
        "precond.rebuild.stale": (sum(v.notes("precond.rebuild")), "count"),
        "krylov.lu_solve.calls": (v.calls("krylov.lu_solve"), "count"),
        "krylov.lu_solve.ms": (_ms(v.ns("krylov.lu_solve")), "ms"),
        "precond.apply.calls": (v.calls("precond.apply"), "count"),
        "precond.apply.ms": (_ms(v.ns("precond.apply")), "ms"),
        "krylov.dense_solve.calls": (v.calls("krylov.dense_solve"), "count"),
        "krylov.dense_solve.ms": (_ms(v.ns("krylov.dense_solve")), "ms"),
        "continuation.initial_solve.ms": (_ms(v.ns("continuation.initial_solve")), "ms"),
        "continuation.initial_solve.newton_iters": (sum(it for it, _ in cold), "count"),
        "continuation.initial_solve.linesearch_evals": (v.linesearch, "count"),
        "continuation.initial_solve.converged_frac": (_frac([c for _, c in cold]), "frac"),
        "continuation.continuation_step.calls": (v.calls("continuation.continuation_step"), "count"),
        "continuation.continuation_step.self_ms": (_ms(v.self_ns("continuation.continuation_step")), "ms"),
        "mintime.callbacks.calls": (tr.callbacks[0], "count"),
        "mintime.callbacks.ms": (_ms(tr.callbacks[1]), "ms"),
        "simcli.run_simulation.self_ms": (_ms(v.self_ns("simcli.run_simulation")), "ms"),
        "simcli.write_csv.ms": (_ms(v.ns("simcli.write_csv")), "ms"),
        "simcli.write_csv.bytes": (sum(v.notes("simcli.write_csv")), "bytes"),
    }
    for layer in LAYERS:
        names = {nm for nm, _ in s["by"] if nm.split(".", 1)[0] == layer}
        self_ns = sum(v.self_ns(nm) for nm in names)
        calls = sum(v.calls(nm) for nm in names)
        if layer == "mintime":
            self_ns += tr.callbacks[1]
            calls += tr.callbacks[0]
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_ms"] = (_ms(self_ns), "ms")
    for N in horizons:
        h = _View(s, N)
        cold_n = h.notes("continuation.initial_solve")
        m[f"N{N}.optimality_residual.us_per_call"] = (h.per_call("continuation.optimality_residual", 1e-3), "us")
        m[f"N{N}.assemble_jacobian.ms_per_call"] = (h.per_call("continuation.assemble_jacobian", 1e-6), "ms")
        m[f"N{N}.lu_factor.ms_per_call"] = (h.per_call("krylov.lu_factor", 1e-6), "ms")
        m[f"N{N}.lu_solve.us_per_call"] = (h.per_call("krylov.lu_solve", 1e-3), "us")
        m[f"N{N}.initial_solve.ms_per_call"] = (h.per_call("continuation.initial_solve", 1e-6), "ms")
        m[f"N{N}.initial_solve.newton_iters"] = (sum(it for it, _ in cold_n), "count")
        m[f"N{N}.initial_solve.converged_frac"] = (_frac([c for _, c in cold_n]), "frac")
    return m


def counts(tr: Tracer) -> dict:
    """Everything in a traced pass that must repeat exactly."""
    s = summarize(tr)
    out = {f"{nm}@{tag}.calls": r["calls"] for (nm, tag), r in s["by"].items()}
    out.update({f"{nm}@{tag}.notes": repr(r["notes"]) for (nm, tag), r in s["by"].items()})
    out.update({f"linesearch@{k}": val for k, val in s["linesearch"].items()})
    out["callbacks.calls"] = tr.callbacks[0]
    return out


def self_time_total(tr: Tracer) -> int:
    """Sum of every span's self time plus the callbacks' time, in ns."""
    total = sum(e - s - c for s, e, c in zip(tr.starts, tr.ends, tr.child_ns))
    return total + tr.callbacks[1]
