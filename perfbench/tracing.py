"""Spans and counters recorded from outside the obro package.

`Tracer.install` replaces the layer entry points in the namespaces that
call them with timing wrappers, and `Tracer.uninstall` puts the originals
back, so untraced runs execute the unmodified package.  Spans stay in
memory as (name, start, end, parent) and are written out when the
benchmark ends.
"""

import json
import time
from collections import Counter
from contextlib import contextmanager

# CPU time of the process: unlike wall time it does not count the time the
# host runs other guests on this machine's cores (see NOTES.md)
clock = time.process_time

import workloads
from obro import engine, linsolve, master, oracle, subproblem

# (module, attribute, span name): every place a layer is entered from
# another module, so that each call is seen once
PATCHES = [
    (engine, "solve_master", "master.solve"),
    (engine, "solve_subproblem", "subproblem.solve"),
    (engine, "sup_distance", "pwl.sup_distance"),
    (engine, "validate", "model.validate"),
    (master, "validate", "model.validate"),
    (subproblem, "validate", "model.validate"),
    (oracle, "validate", "model.validate"),
    (master, "scenario_issues", "model.scenario_issues"),
    (subproblem, "scenario_issues", "model.scenario_issues"),
    (master, "build_master", "master.build"),
    (oracle, "build_master", "master.build"),
    (master, "solve_milp", "master.milp"),
    (subproblem, "build_subproblem", "subproblem.build"),
    (subproblem, "solve_lp", "subproblem.lp"),
    (workloads, "saddle_checks", "verify.saddle"),
    (workloads, "brute_force_subproblem", "oracle.grid"),
    (workloads, "enumerate_master", "oracle.enum"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, phase]
        self.counts = Counter()
        self.maxima = {}
        self._open = []
        self._saved = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        phase = self.spans[parent][4] if parent is not None else name
        self.spans.append([name, clock(), None, parent, phase])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = clock()

    def phase(self) -> str:
        """The root span of the open spans: the phase a count belongs to."""
        return self.spans[self._open[-1]][4] if self._open else ""

    def count(self, name, amount=1):
        self.counts[(self.phase(), name)] += amount

    def note_max(self, name, value):
        key = (self.phase(), name)
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def _wrap(self, fn, name, after=None):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after:
                after(args, out)
            return out

        return traced

    def _milp_done(self, args, out):
        lp = args[0].lp
        self.count("master.nodes", out.stats.get("nodes", 0))
        self.note_max("master.binaries", len(args[0].binaries))
        self.note_max("master.rows", len(lp.rows))
        self.note_max("master.cols", lp.n_vars)
        self.note_max("master.nnz", sum(len(r.coeffs) for r in lp.rows))

    def _grid_points(self, args, out):
        prob, levels = args[0], args[2]
        self.count(
            "oracle.grid_points",
            sum((levels if t.spec.delta_max > 0 else 1) ** t.spec.partition.n_points
                for t in prob.terms),
        )

    def _patterns(self, args, out):
        prob = args[0]
        n = 1
        for t in prob.terms:
            n *= t.spec.partition.n_segments ** len(t.eval_indices)
        self.count("oracle.enum_patterns", n)

    def install(self):
        def save(owner, attr, new):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        after_hooks = {
            "master.milp": self._milp_done,
            "oracle.grid": self._grid_points,
            "oracle.enum": self._patterns,
        }
        for module, attr, name in PATCHES:
            after = after_hooks.get(name)
            save(module, attr, self._wrap(getattr(module, attr), name, after))
        for solver, method, stat, name in (
            (linsolve.SimplexSolver, "solve_lp", "pivots", "linsolve.simplex_pivots"),
            (linsolve.BranchBoundSolver, "solve_milp", "nodes", "linsolve.bb_nodes"),
        ):
            save(solver, method, self._stat_counter(getattr(solver, method), stat, name))

    def _stat_counter(self, fn, stat, name):
        def counted(solver_self, prog):
            out = fn(solver_self, prog)
            self.count(name, out.stats.get(stat, 0))
            return out

        return counted

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_times(self, first=0, last=None):
        """Calls, total time and self time per (phase, span name) over
        spans[first:last].  Self time is a span's duration minus the part
        its child spans cover."""
        calls, total, own = Counter(), Counter(), Counter()
        for name, start, end, parent, phase in self.spans[first:last]:
            calls[phase, name] += 1
            total[phase, name] += end - start
            own[phase, name] += end - start
            if parent is not None and parent >= first:
                pname, _, _, _, pphase = self.spans[parent]
                own[pphase, pname] -= end - start
        return calls, total, own

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "phase": phase}
                ) + "\n")
