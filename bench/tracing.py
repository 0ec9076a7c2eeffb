"""Span tracing of braidline's layers from outside the package.

The tracer replaces module attributes (and class attributes, and the entries
of ``cli.CHECKS``) with wrappers that record one span per call: name, start,
end, parent span, the root it belongs to (a set-up repetition or a round) and
the stage tag current at the time (``n802`` on the kernel sweep).  Spans are
held in memory; ``write_spans`` dumps them when the benchmark ends.  Nothing
inside ``src/`` is edited, and ``uninstall`` restores every original object,
so untraced rounds run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _free_propagator_flops(args, kwargs):
    # (N x M) @ (M x N) complex GEMM: 8 N M N real flops, computed not counted
    basis = args[0] if args else kwargs["basis"]
    n, m = basis.vectors.shape
    return 8 * n * m * n


def _matrix_csv_rows(args, kwargs):
    mat = args[1] if len(args) > 1 else kwargs["mat"]
    return int(mat.shape[0] * mat.shape[1])


# (metric base name, module, attribute, work counter or None)
SPAN_TARGETS = [
    ("qcalc.derivative_matrix", "braidline.qcalc", "derivative_matrix", None),
    ("basis.build_hamiltonian_basis", "braidline.basis", "build_hamiltonian_basis", None),
    ("basis.build_qexp_basis", "braidline.basis", "build_qexp_basis", None),
    ("basis.delta_kernel", "braidline.basis", "delta_kernel", None),
    ("basis.export_basis", "braidline.basis", "export_basis", None),
    ("propagator.free_propagator", "braidline.propagator", "free_propagator",
     _free_propagator_flops),
    ("propagator.compose", "braidline.propagator", "compose", None),
    ("propagator.schrodinger_residual", "braidline.propagator", "schrodinger_residual", None),
    ("scattering.smatrix_momentum", "braidline.scattering", "smatrix_momentum", None),
    ("scattering.lippmann_schwinger_solve", "braidline.scattering",
     "lippmann_schwinger_solve", None),
    ("scattering.born_wavefunction", "braidline.scattering", "born_wavefunction", None),
    ("scattering.unitarity_defect", "braidline.scattering", "unitarity_defect", None),
    ("dyson.ode_evolution", "braidline.dyson", "ode_evolution", None),
    ("dyson.smatrix_interaction", "braidline.dyson", "smatrix_interaction", None),
    ("cli.load_config", "braidline.cli", "load_config", None),
    ("cli.write_matrix_csv", "braidline.cli", "write_matrix_csv", _matrix_csv_rows),
    ("cli.write_report", "braidline.cli", "write_report", None),
    ("cli.cmd_basis", "braidline.cli", "cmd_basis", None),
    ("cli.cmd_propagate", "braidline.cli", "cmd_propagate", None),
    ("cli.cmd_scatter", "braidline.cli", "cmd_scatter", None),
    ("cli.cmd_dyson", "braidline.cli", "cmd_dyson", None),
    ("cli.cmd_verify", "braidline.cli", "cmd_verify", None),
]

# the nine verify checks, wrapped inside the cli.CHECKS registry
CHECK_NAMES = [
    "born", "boundary", "composition", "conjugation", "cross_formalism",
    "crossing", "residual", "unitarity_negative_control", "unitarity_trend",
]

# (metric name, module, class, method): counted, not spanned, because the
# ODE right-hand side runs thousands of times per solve
COUNT_TARGETS = [
    ("dyson.rhs_evals", "braidline.dyson", "InteractionPotential", "at"),
]


class Tracer:
    """In-memory span recorder; ``stage`` is a callable giving the current tag."""

    def __init__(self, stage):
        self._stage = stage
        self.spans: list[list] = []  # [name, start, end, parent, root, tag, work]
        self.roots: list[str] = []  # kind of each root: "setup" or "round"
        self.events: dict = defaultdict(int)  # (root, name) -> count
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def begin_root(self, kind: str) -> None:
        self.roots.append(kind)

    def _span(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0,
                   tracer._stack[-1] if tracer._stack else -1,
                   len(tracer.roots) - 1, tracer._stage(), 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
                if work is not None:
                    rec[6] = work(args, kwargs)

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.events[(len(tracer.roots) - 1, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every target and every module-level alias of it."""
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "braidline" or n.startswith("braidline.")]
        for name, modname, attr, work in SPAN_TARGETS:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._span(name, original, work)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._set(m, key, wrapper)
        registry = getattr(importlib.import_module("braidline.cli"), "CHECKS", {})
        for check in CHECK_NAMES:
            if check not in registry:
                self.missing.append(f"cli.check.{check}")
                continue
            fn, sense = registry[check]
            self._set(registry, check, (self._span(f"cli.check.{check}", fn, None), sense))
        for name, modname, clsname, meth in COUNT_TARGETS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            if cls is None or not hasattr(cls, meth):
                self.missing.append(name)
                continue
            self._set(cls, meth, self._counter(name, getattr(cls, meth)))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- aggregation -----------------------------------------------------

    def totals(self):
        """Per-root sums: self time, calls and work, keyed by (name, tag).

        Returns (table, top) where table[root][(name, tag)] = [self_s, calls,
        work] and top[root] is the summed duration of the root's outermost
        spans (the time the layers account for).
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, root, tag, work in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = [defaultdict(lambda: [0.0, 0, 0]) for _ in self.roots]
        top = [0.0] * len(self.roots)
        for i, (name, start, end, parent, root, tag, work) in enumerate(self.spans):
            entry = table[root][(name, tag)]
            entry[0] += (end - start) - child[i]
            entry[1] += 1
            entry[2] += work
            if parent < 0:
                top[root] += end - start
        for (root, name), count in self.events.items():
            table[root][(name, None)][1] += count
        return table, top

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, root, tag, work in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "root": root, "root_kind": self.roots[root], "tag": tag,
                    "work": work,
                }) + "\n")


def per_unit(table, roots, pick) -> float:
    """Median over set-up roots plus median over round roots of ``pick(root)``.

    A layer metric therefore reads as the cost of one set-up plus one round.
    """
    out = 0.0
    for kind in ("setup", "round"):
        vals = [pick(table[i]) for i, k in enumerate(roots) if k == kind]
        if vals:
            out += statistics.median(vals)
    return out
