"""Outside-in tracer: wraps hessianlab functions without touching src/.

``Tracer.install`` replaces module functions (in every hessianlab module
that bound them by name), class methods and the ``spla`` module attribute
of ``hessianlab.solver`` with wrappers that record spans (name, start, end,
parent) and counts.  A target that no longer exists, say after a refactor
renames ``_NewtonDriver.eigen``, is listed in ``Tracer.missing`` and the
layer metrics that depend on it are reported as missing; nothing raises.

Only the traced run installs wrappers; the untraced run never imports this
module's hooks.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> "module:attribute path" of the callables that open it
TARGETS = [
    ("kernel.eigen", "hessianlab.solver:_NewtonDriver.eigen"),
    ("kernel.margins", "hessianlab.solver:_NewtonDriver.margins"),
    ("solver.analyze", "hessianlab.solver:_NewtonDriver.analyze"),
    ("solver.step", "hessianlab.solver:_NewtonDriver.step"),
    ("solver.driver_init", "hessianlab.solver:_NewtonDriver.__init__"),
    ("krylov.lgmres", "hessianlab.solver:spla.lgmres"),
    ("bookkeeping.compat", "hessianlab.solver:compatibility_constant"),
    ("bookkeeping.brackets", "hessianlab.solver:degenerate_brackets"),
    ("bookkeeping.wedge", "hessianlab.solver:wedge_integral"),
    ("grid.complex_hessian", "hessianlab.grid:complex_hessian"),
    ("grid.eigen_field", "hessianlab.grid:eigen_field"),
    ("grid.integrate", "hessianlab.grid:integrate"),
    ("symfunc.pencil_eigh", "hessianlab.symfunc:pencil_eigh"),
    ("symfunc.esp", "hessianlab.symfunc:elem_sym_table"),
    ("symfunc.esp", "hessianlab.symfunc:restricted_esp"),
    ("symfunc.esp", "hessianlab.symfunc:cone_margins"),
    ("background.build", "hessianlab.background:BackgroundData.flat"),
    ("background.build", "hessianlab.background:BackgroundData.with_potential_chi"),
    ("background.validate", "hessianlab.background:BackgroundData.validate"),
    ("iteration.certify", "hessianlab.iteration:certify_iteration_hypothesis"),
    ("verification.viscosity", "hessianlab.verification:viscosity_check"),
    ("verification.uniqueness_energy", "hessianlab.verification:uniqueness_energy"),
    ("hlf.write", "hessianlab.hlf:write_field"),
]

# Spans opened by the lgmres wrapper itself; they exist whenever lgmres does.
KRYLOV_CHILDREN = {"krylov.matvec": "krylov.lgmres", "krylov.precond": "krylov.lgmres"}

BOOKKEEPING = ("bookkeeping.compat", "bookkeeping.brackets", "bookkeeping.wedge")
ROOT = "op"


def _count_points(tracer, args, kwargs, result):
    x_data = args[1] if len(args) > 1 else kwargs["x_data"]
    tracer.count("kernel.points", x_data[..., 0, 0].size)


def _count_viscosity(tracer, args, kwargs, result):
    tracer.count("verification.viscosity.points", getattr(result, "samples", 0))


def _count_bytes(tracer, args, kwargs, result):
    path = str(args[0] if args else kwargs["path"])
    size = sum(os.path.getsize(p) for p in (path, path + ".json") if os.path.exists(p))
    tracer.count("hlf.write.bytes", size)


ON_RETURN = {
    "hessianlab.solver:_NewtonDriver.eigen": _count_points,
    "hessianlab.verification:viscosity_check": _count_viscosity,
    "hessianlab.hlf:write_field": _count_bytes,
}


class Tracer:
    """In-memory span recorder; one root span per op."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1]
        self.spans: list = []
        self.counts: list = []      # one Counter per op
        self.roots: list = []       # span index of each op's root
        self.missing: list = []     # targets that could not be wrapped
        self._stack: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        if self.counts:
            self.counts[-1][key] += value

    def run_op(self, fn, *args):
        """Run one op under a root span; returns fn's result."""
        self.counts.append(Counter())
        self.roots.append(len(self.spans))
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the others as missing."""
        for name, target in TARGETS:
            try:
                if target.endswith(":spla.lgmres"):
                    self._install_lgmres(target)
                else:
                    self._install(name, target, ON_RETURN.get(target))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)

    def _install(self, name: str, target: str, on_return) -> None:
        module_name, path = target.split(":")
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self.wrap(name, raw.__func__, on_return)))
            else:
                setattr(owner, attr, self.wrap(name, raw, on_return))
            return
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, on_return)
        # rebind every `from .x import f` copy, so callers in other modules see it
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hessianlab"
                                   or mod_name.startswith("hessianlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _install_lgmres(self, target: str) -> None:
        """Swap ``solver.spla`` for a proxy whose lgmres counts its work.

        Matvecs and preconditioner applies are counted by wrapping the two
        LinearOperators; the convergence flag the solver discards is kept
        as ``krylov.not_converged``.
        """
        solver = importlib.import_module(target.split(":")[0])
        real = solver.spla
        real_lgmres = real.lgmres
        tracer = self

        def operator(op, name):
            return real.LinearOperator(op.shape, matvec=tracer.wrap(name, op.matvec),
                                       dtype=op.dtype)

        def lgmres(A, b, *args, M=None, **kwargs):
            A = operator(A, "krylov.matvec")
            if M is not None:
                M = operator(M, "krylov.precond")
            sol, info = real_lgmres(A, b, *args, M=M, **kwargs)
            if info != 0:
                tracer.count("krylov.not_converged")
            return sol, info

        class SplaProxy:
            def __getattr__(self, attr):
                return getattr(real, attr)

        proxy = SplaProxy()
        proxy.lgmres = self.wrap("krylov.lgmres", lgmres)
        solver.spla = proxy

    # -- analysis --------------------------------------------------------------

    def available(self, span: str) -> bool:
        span = KRYLOV_CHILDREN.get(span, span)
        return all(t not in self.missing for n, t in TARGETS if n == span)

    def per_op(self) -> list:
        """Per-op summaries: calls and self seconds by span name, counts."""
        out = []
        bounds = self.roots + [len(self.spans)]
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            spans = self.spans[lo:hi]
            child_time = [0.0] * len(spans)
            inside_bookkeeping = [False] * len(spans)
            for i, (name, start, end, parent) in enumerate(spans):
                if parent >= lo:
                    child_time[parent - lo] += end - start
                    p = spans[parent - lo]
                    inside_bookkeeping[i] = (inside_bookkeeping[parent - lo]
                                             or p[0] in BOOKKEEPING)
            calls: Counter = Counter()
            self_s: dict = defaultdict(float)
            bookkeeping_total = 0.0
            for i, (name, start, end, parent) in enumerate(spans):
                calls[name] += 1
                self_s[name] += (end - start) - child_time[i]
                if name in BOOKKEEPING and not inside_bookkeeping[i]:
                    bookkeeping_total += end - start
            root = spans[0]
            out.append({"calls": calls, "self_s": self_s, "counts": self.counts[k],
                        "bookkeeping_total_s": bookkeeping_total,
                        "op_s": root[2] - root[1]})
        return out


# metric name -> (unit, spans it needs, value from one op summary)
def _calls(span):
    return lambda op: op["calls"][span]


def _self(*spans):
    return lambda op: sum(op["self_s"][s] for s in spans)


def _trials(op):
    return op["calls"]["kernel.eigen"] - op["calls"]["solver.analyze"]


LAYER_METRICS = {
    "kernel.eigen.calls": ("count", ["kernel.eigen"], _calls("kernel.eigen")),
    "kernel.eigen.self_s": ("s", ["kernel.eigen"], _self("kernel.eigen")),
    "kernel.points": ("count", ["kernel.eigen"], lambda op: op["counts"]["kernel.points"]),
    "kernel.margins.self_s": ("s", ["kernel.margins"], _self("kernel.margins")),
    "solver.analyze.calls": ("count", ["solver.analyze"], _calls("solver.analyze")),
    "solver.analyze.self_s": ("s", ["solver.analyze"], _self("solver.analyze")),
    "solver.newton_steps": ("count", ["solver.step"], _calls("solver.step")),
    "solver.line_search.trials": ("count", ["kernel.eigen", "solver.analyze"], _trials),
    "solver.line_search.backtracks": (
        "count", ["kernel.eigen", "solver.analyze", "solver.step"],
        lambda op: _trials(op) - op["calls"]["solver.step"]),
    "solver.driver_builds": ("count", ["solver.driver_init"], _calls("solver.driver_init")),
    "solver.driver_init.self_s": ("s", ["solver.driver_init"], _self("solver.driver_init")),
    "krylov.solves": ("count", ["krylov.lgmres"], _calls("krylov.lgmres")),
    "krylov.matvecs": ("count", ["krylov.matvec"], _calls("krylov.matvec")),
    "krylov.precond_applies": ("count", ["krylov.precond"], _calls("krylov.precond")),
    "krylov.not_converged": ("count", ["krylov.lgmres"],
                             lambda op: op["counts"]["krylov.not_converged"]),
    "krylov.matvec.self_s": ("s", ["krylov.matvec"], _self("krylov.matvec")),
    "krylov.precond.self_s": ("s", ["krylov.precond"], _self("krylov.precond")),
    "krylov.lgmres.self_s": ("s", ["krylov.lgmres"], _self("krylov.lgmres")),
    "krylov.matvecs_per_step": (
        "matvec/step", ["krylov.matvec", "solver.step"],
        lambda op: op["calls"]["krylov.matvec"] / max(op["calls"]["solver.step"], 1)),
    "bookkeeping.compat.calls": ("count", ["bookkeeping.compat"],
                                 _calls("bookkeeping.compat")),
    "bookkeeping.brackets.calls": ("count", ["bookkeeping.brackets"],
                                   _calls("bookkeeping.brackets")),
    "bookkeeping.wedge.calls": ("count", ["bookkeeping.wedge"], _calls("bookkeeping.wedge")),
    "bookkeeping.total_s": ("s", list(BOOKKEEPING), lambda op: op["bookkeeping_total_s"]),
    "grid.complex_hessian.calls": ("count", ["grid.complex_hessian"],
                                   _calls("grid.complex_hessian")),
    "grid.complex_hessian.self_s": ("s", ["grid.complex_hessian"],
                                    _self("grid.complex_hessian")),
    "grid.eigen_field.calls": ("count", ["grid.eigen_field"], _calls("grid.eigen_field")),
    "grid.eigen_field.self_s": ("s", ["grid.eigen_field"], _self("grid.eigen_field")),
    "grid.integrate.self_s": ("s", ["grid.integrate"], _self("grid.integrate")),
    "symfunc.pencil_eigh.calls": ("count", ["symfunc.pencil_eigh"],
                                  _calls("symfunc.pencil_eigh")),
    "symfunc.pencil_eigh.self_s": ("s", ["symfunc.pencil_eigh"],
                                   _self("symfunc.pencil_eigh")),
    "symfunc.esp.self_s": ("s", ["symfunc.esp"], _self("symfunc.esp")),
    "background.build.self_s": ("s", ["background.build"], _self("background.build")),
    "background.validate.self_s": ("s", ["background.validate"],
                                   _self("background.validate")),
    "iteration.certify.calls": ("count", ["iteration.certify"], _calls("iteration.certify")),
    "iteration.certify.self_s": ("s", ["iteration.certify"], _self("iteration.certify")),
    "verification.viscosity.self_s": ("s", ["verification.viscosity"],
                                      _self("verification.viscosity")),
    "verification.viscosity.points": (
        "count", ["verification.viscosity"],
        lambda op: op["counts"]["verification.viscosity.points"]),
    "verification.uniqueness_energy.self_s": (
        "s", ["verification.uniqueness_energy"], _self("verification.uniqueness_energy")),
    "hlf.write.calls": ("count", ["hlf.write"], _calls("hlf.write")),
    "hlf.write.bytes": ("bytes", ["hlf.write"], lambda op: op["counts"]["hlf.write.bytes"]),
    "hlf.write.self_s": ("s", ["hlf.write"], _self("hlf.write")),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Median over traced ops of every layer metric: name -> (value, unit, missing)."""
    ops = tracer.per_op()
    out = {}
    for name, (unit, needs, fn) in LAYER_METRICS.items():
        if not all(tracer.available(s) for s in needs):
            out[name] = (0.0, unit, True)
            continue
        out[name] = (float(statistics.median(fn(op) for op in ops)), unit, False)
    return out


def span_dump(tracer: Tracer) -> list:
    """Spans as JSON-ready dicts (times relative to the first span)."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    return [{"id": i, "name": n, "start": s - t0, "end": e - t0, "parent": p}
            for i, (n, s, e, p) in enumerate(tracer.spans)]
