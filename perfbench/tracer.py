"""Spans and exact work counts recorded around henon_lab's functions.

The package binds its helpers with `from .x import y`, so a function is
looked up under several module names (`henon_lab.steklov._shoot` is also
`henon_lab.henon._steklov_shot`).  `Tracer.install` replaces every binding
of each traced function, across all loaded `henon_lab` modules, with a
wrapper; `Tracer.remove` puts the originals back.  Nothing under `src/` is
changed.

A span is (id, name, start, end, parent id, op id).  A name's self time is
its spans' durations minus the durations of their direct child spans.
Calls into scipy that only feed counters (`solve_ivp`, `solve_banded`,
`minimize`) open no span, so their time stays with the caller.  Recording
happens only inside `Tracer.op`, which the benchmark enters around an op's
call alone, so its correctness check leaves no trace.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer-qualified span name, module, attribute).  Every binding of the
# object found at module.attribute is wrapped.
SPANNED = [
    ("henon.solve_henon", "henon_lab.henon", "solve_henon"),
    ("flux_ode.integrate", "henon_lab.flux_ode", "integrate_flux_ode"),
    ("steklov.steklov_eigenvalue", "henon_lab.steklov", "steklov_eigenvalue"),
    ("steklov.solve_steklov", "henon_lab.steklov", "solve_steklov"),
    ("stability.find_p_loc", "henon_lab.stability", "find_p_loc"),
    ("stability.compute_ipn", "henon_lab.stability", "compute_ipn"),
    ("stability.verify_appendix_chain", "henon_lab.stability",
     "verify_appendix_chain"),
    ("mesh.build_grid", "henon_lab.mesh", "build_grid"),
    ("mesh.assemble_forms", "henon_lab.mesh", "assemble_forms"),
    ("second_variation.pencil_min_eig", "henon_lab.second_variation",
     "pencil_min_eig"),
    ("second_variation.dense_eigh", "henon_lab.second_variation", "eigh"),
    ("variational.minimize_quotient", "henon_lab.variational",
     "minimize_quotient"),
    ("cli.main", "henon_lab.cli", "main"),
]

# Per-layer metrics: name -> unit.  Times are totals over the traced ops;
# names with "per" or "frac" are ratios over the calls they name.
PER_LAYER = {
    "henon.solve_henon.calls": "count",
    "henon.solve_henon.self_s": "s",
    "henon.trials_per_solve": "count",
    "henon.scan_trials_per_solve": "count",
    "henon.expansions_per_solve": "count",
    "henon.final_trial_s": "s",
    "flux_ode.integrate.calls": "count",
    "flux_ode.integrate.self_s": "s",
    "flux_ode.s_per_integrate": "s",
    "flux_ode.steps": "count",
    "flux_ode.rhs_evals": "count",
    "flux_ode.dense_eval.calls": "count",
    "flux_ode.dense_eval.self_s": "s",
    "rootfind.brent.calls": "count",
    "rootfind.brent.evals": "count",
    "rootfind.brent.evals_per_call": "count",
    "rootfind.brent.self_s": "s",
    "steklov.steklov_eigenvalue.calls": "count",
    "steklov.steklov_eigenvalue.s": "s",
    "steklov.solve_steklov.s": "s",
    "steklov.shots": "count",
    "stability.find_p_loc.s": "s",
    "stability.compute_ipn.s": "s",
    "stability.verify_appendix_chain.s": "s",
    "stability.repeat_lambda_frac": "ratio",
    "mesh.build_grid.calls": "count",
    "mesh.build_grid.self_s": "s",
    "mesh.assemble_forms.calls": "count",
    "mesh.assemble_forms.self_s": "s",
    "mesh.nodes_per_assemble": "count",
    "second_variation.pencil_min_eig.calls": "count",
    "second_variation.pencil_min_eig.self_s": "s",
    "second_variation.inverse_solves": "count",
    "second_variation.inverse_solves_per_pencil": "count",
    "second_variation.dense_eigh.calls": "count",
    "second_variation.dense_eigh.s": "s",
    "second_variation.sturm_inverse_frac": "ratio",
    "variational.minimize_quotient.s": "s",
    "variational.lbfgs_iters": "count",
    "variational.lbfgs_evals": "count",
    "variational.converged_frac": "ratio",
}

# Counters that must repeat exactly between two traced runs of one seed.
WORK_COUNTS = ["henon.trials", "flux_ode.steps", "flux_ode.rhs_evals",
               "rootfind.brent.evals", "second_variation.inverse_solves",
               "second_variation.dense_eigh.calls", "variational.lbfgs_iters",
               "steklov.shots"]


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "henon_lab" or name.startswith("henon_lab.")]


class Tracer:
    """Collects spans and counters of the calls made inside `op` while the
    wrappers are installed (`with tracer:` installs, then removes them)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._brent_depth = 0
        self._op = None
        self._lambda_keys: set = set()
        self._restore: list = []

    # -- ops ---------------------------------------------------------------
    @contextmanager
    def op(self, op_id: int):
        """Record the calls made inside this block as op op_id."""
        self._op = op_id
        self._lambda_keys = set()
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()
            self._brent_depth = 0

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent,
                           self._op])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------
    def _spanned(self, name, fn, before=None, after=None):
        """Wrap fn: hooks around each call made inside an op, and a span
        unless name is None."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            sid = None if name is None else self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if sid is not None:
                    self._close(sid)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _rebind(self, original, replacement, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        """Wrap every binding of the traced functions in henon_lab."""
        import henon_lab.cli  # noqa: F401  (load every module to patch)
        from henon_lab import flux_ode

        mods = _package_modules()
        by_name = {mod.__name__: mod for mod in mods}
        hooks = {
            "henon.solve_henon": (None, self._after_solve),
            "steklov.steklov_eigenvalue": (self._before_lambda, None),
            "mesh.assemble_forms": (self._before_assemble, None),
            "second_variation.pencil_min_eig": (None, self._after_pencil),
        }
        for name, module, attr in SPANNED:
            original = getattr(by_name[module], attr)
            before, after = hooks.get(name, (None, None))
            self._rebind(original, self._spanned(name, original, before,
                                                 after), mods)

        brent = by_name["henon_lab.rootfind"].brent_root
        self._rebind(brent, self._brent_wrapper(brent), mods)
        henon = by_name["henon_lab.henon"]
        trial = henon._trial
        self._rebind(trial, self._trial_wrapper(trial), mods)
        self._rebind(henon.shooting_miss,
                     self._spanned(None, henon.shooting_miss,
                                   before=self._before_miss), mods)
        shoot = by_name["henon_lab.steklov"]._shoot
        self._rebind(shoot, self._spanned(None, shoot, before=self._count(
            "steklov.shots")), mods)
        self._rebind(flux_ode.solve_ivp,
                     self._spanned(None, flux_ode.solve_ivp,
                                   after=self._after_ivp),
                     mods)
        sv = by_name["henon_lab.second_variation"]
        self._rebind(sv.solve_banded, self._spanned(
            None, sv.solve_banded,
            before=self._count("second_variation.inverse_solves")), mods)
        var = by_name["henon_lab.variational"]
        self._rebind(var.minimize, self._spanned(
            None, var.minimize, after=self._after_minimize), mods)

        states = flux_ode.FluxTrajectory._states
        flux_ode.FluxTrajectory._states = self._spanned(
            "flux_ode.dense_eval", states)
        self._restore.append((flux_ode.FluxTrajectory, "_states", states))

    def remove(self) -> None:
        """Put every original binding back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- hooks -------------------------------------------------------------
    def _count(self, key):
        def before(args, kwargs):
            self.counts[key] += 1
        return before

    def _trial_wrapper(self, fn):
        plain = self._spanned("henon.trial", fn)
        final = self._spanned("henon.final_trial", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return (final if kwargs.get("dense") else plain)(*args, **kwargs)
        return wrapper

    def _before_miss(self, args, kwargs):
        self.counts["henon.trials"] += 1
        if not self._brent_depth:
            self.counts["henon.scan_trials"] += 1

    def _after_solve(self, sol):
        self.counts["henon.diagnostics_trials"] += sol.diagnostics["trials"]
        self.counts["henon.expansions"] += sol.diagnostics["expansions"]

    def _brent_wrapper(self, fn):
        # Counts evaluations of f made inside the root solve, and marks the
        # shooting trials it causes as refinement rather than scan trials.
        spanned = self._spanned("rootfind.brent", fn)

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if self._op is None:
                return fn(f, *args, **kwargs)

            def counted(x):
                self.counts["rootfind.brent.evals"] += 1
                return f(x)
            self._brent_depth += 1
            try:
                return spanned(counted, *args, **kwargs)
            finally:
                self._brent_depth -= 1
        return wrapper

    def _before_lambda(self, args, kwargs):
        key = (int(args[0]), float(args[1]))
        if key in self._lambda_keys:
            self.counts["stability.repeat_lambda"] += 1
        self._lambda_keys.add(key)

    def _before_assemble(self, args, kwargs):
        self.counts["mesh.assembled_nodes"] += int(args[0].num_nodes)

    def _after_pencil(self, result):
        if result[2].get("method") == "sturm+inverse":
            self.counts["second_variation.sturm_inverse"] += 1

    def _after_ivp(self, sol):
        self.counts["flux_ode.steps"] += int(sol.t.size) - 1
        self.counts["flux_ode.rhs_evals"] += int(sol.nfev)

    def _after_minimize(self, res):
        self.counts["variational.lbfgs_iters"] += int(res.nit)
        self.counts["variational.lbfgs_evals"] += int(res.nfev)
        self.counts["variational.converged"] += int(bool(res.success))

    # -- results -----------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name, start, end, _, _ in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[sid]
        return {name: tuple(row) for name, row in out.items()}

    def trials_match(self) -> bool:
        """Counted shooting trials equal the solvers' own diagnostics."""
        return (self.counts["henon.trials"]
                == self.counts["henon.diagnostics_trials"])

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric over the traced ops.

        A layer the ops never enter reads 0 calls and 0 seconds, and a
        ratio over calls that never happened reads 0.
        """
        tot = self.totals()
        c = self.counts

        def calls(name):
            return tot.get(name, (0, 0.0, 0.0))[0]

        def incl(name):
            return tot.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return tot.get(name, (0, 0.0, 0.0))[2]

        def per(amount, count):
            return amount / count if count else 0.0

        solves = calls("henon.solve_henon")
        integrates = calls("flux_ode.integrate")
        brents = calls("rootfind.brent")
        lambdas = calls("steklov.steklov_eigenvalue")
        assembles = calls("mesh.assemble_forms")
        pencils = calls("second_variation.pencil_min_eig")
        minimizes = calls("variational.minimize_quotient")
        return {
            "henon.solve_henon.calls": solves,
            "henon.solve_henon.self_s": own("henon.solve_henon"),
            "henon.trials_per_solve": per(c["henon.trials"], solves),
            "henon.scan_trials_per_solve": per(c["henon.scan_trials"], solves),
            "henon.expansions_per_solve": per(c["henon.expansions"], solves),
            "henon.final_trial_s": incl("henon.final_trial"),
            "flux_ode.integrate.calls": integrates,
            "flux_ode.integrate.self_s": own("flux_ode.integrate"),
            "flux_ode.s_per_integrate":
                per(incl("flux_ode.integrate"), integrates),
            "flux_ode.steps": c["flux_ode.steps"],
            "flux_ode.rhs_evals": c["flux_ode.rhs_evals"],
            "flux_ode.dense_eval.calls": calls("flux_ode.dense_eval"),
            "flux_ode.dense_eval.self_s": own("flux_ode.dense_eval"),
            "rootfind.brent.calls": brents,
            "rootfind.brent.evals": c["rootfind.brent.evals"],
            "rootfind.brent.evals_per_call":
                per(c["rootfind.brent.evals"], brents),
            "rootfind.brent.self_s": own("rootfind.brent"),
            "steklov.steklov_eigenvalue.calls": lambdas,
            "steklov.steklov_eigenvalue.s": incl("steklov.steklov_eigenvalue"),
            "steklov.solve_steklov.s": incl("steklov.solve_steklov"),
            "steklov.shots": c["steklov.shots"],
            "stability.find_p_loc.s": incl("stability.find_p_loc"),
            "stability.compute_ipn.s": incl("stability.compute_ipn"),
            "stability.verify_appendix_chain.s":
                incl("stability.verify_appendix_chain"),
            "stability.repeat_lambda_frac":
                per(c["stability.repeat_lambda"], lambdas),
            "mesh.build_grid.calls": calls("mesh.build_grid"),
            "mesh.build_grid.self_s": own("mesh.build_grid"),
            "mesh.assemble_forms.calls": assembles,
            "mesh.assemble_forms.self_s": own("mesh.assemble_forms"),
            "mesh.nodes_per_assemble":
                per(c["mesh.assembled_nodes"], assembles),
            "second_variation.pencil_min_eig.calls": pencils,
            "second_variation.pencil_min_eig.self_s":
                own("second_variation.pencil_min_eig"),
            "second_variation.inverse_solves":
                c["second_variation.inverse_solves"],
            "second_variation.inverse_solves_per_pencil":
                per(c["second_variation.inverse_solves"], pencils),
            "second_variation.dense_eigh.calls":
                calls("second_variation.dense_eigh"),
            "second_variation.dense_eigh.s":
                incl("second_variation.dense_eigh"),
            "second_variation.sturm_inverse_frac":
                per(c["second_variation.sturm_inverse"], pencils),
            "variational.minimize_quotient.s":
                incl("variational.minimize_quotient"),
            "variational.lbfgs_iters": c["variational.lbfgs_iters"],
            "variational.lbfgs_evals": c["variational.lbfgs_evals"],
            "variational.converged_frac":
                per(c["variational.converged"], minimizes),
        }

    def work_counts(self) -> dict[str, int]:
        tot = self.totals()
        out = {key: int(self.counts[key]) for key in WORK_COUNTS}
        out["second_variation.dense_eigh.calls"] = tot.get(
            "second_variation.dense_eigh", (0, 0.0, 0.0))[0]
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}) + "\n")
