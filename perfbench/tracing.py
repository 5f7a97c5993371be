"""Layer trace taken from outside the library.

The tracer rebinds selected public callables of the nclp modules (and the
numpy eigensolvers they call) with wrappers that record spans or bump
counters, and puts the originals back afterwards.  A function is rebound on
its defining module and on every nclp module that holds the same object
under any name, so `from .matcore import jacobi_eigh` style imports are
covered; a method is rebound once on its class.  Every target that does
not bind is recorded in `unbound`; a span or counter group none of whose
targets binds is listed by `broken_groups`, and the run reports it as a
failure instead of a layer that costs nothing.  Only the eigensolver list
is tolerant: a kernel swap may remove any one of its entries.

Spans are kept in memory as (name, start, end, parent index, task id) and
written out at the end.  The hottest callables get counters only, so the
trace overhead stays bounded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# metric prefix -> (module, dotted attribute) callables recorded as spans
SPANS = {
    "matcore.schatten_norm": [("nclp.matcore", "schatten_norm")],
    "vnops.weight_power": [("nclp.vnops", "Weight.power")],
    "vnops.modular": [("nclp.vnops", "modular_conjugate"),
                      ("nclp.vnops", "in_centralizer"),
                      ("nclp.vnops", "weights_commute")],
    "jordan.verify": [("nclp.jordan", "verify_jordan")],
    "compop.operator_norm": [("nclp.compop", "operator_norm")],
    "compop.superop_matrix": [("nclp.compop", "SuperOperator.matrix")],
    "compop.change_of_weights": [("nclp.compop", "change_of_weights")],
    "compop.classify": [("nclp.compop", "classify_characteristic_preserving")],
    "sampling.projection": [("nclp.sampling", "projection")],
    "classical.exact_diagonal_norm": [("nclp.classical", "exact_diagonal_norm")],
    "classical.pipeline": [("nclp.classical", "build_classical"),
                           ("nclp.classical", "five_step_pipeline"),
                           ("nclp.classical", "diagonal_consistency")],
    "cli.parse": [("nclp.cli", "SpecDocument." + name)
                  for name in ("load", "profile", "weight", "morphism",
                               "measure_space", "superoperator", "exponent")],
    "cli.report": [("nclp.cli", "Report.emit")],
}

# counter name -> callables that are counted but not timed (the hottest ones)
COUNTERS = {
    "matcore.blockmatrix.created": [("nclp.matcore", "BlockMatrix.__init__")],
    "jordan.spec_apply.calls": [("nclp.jordan", "JordanMorphismSpec.apply")],
    "compop.superop_apply.calls": [("nclp.compop", "SuperOperator.apply")],
}

# Hermitian eigensolvers and SVDs, whatever the kernel: (module, name, kind)
EIGENSOLVERS = [
    ("nclp.matcore", "jacobi_eigh", "eigh"),
    ("numpy.linalg", "eigh", "eigh"),
    ("numpy.linalg", "eigvalsh", "eigh"),
    ("numpy.linalg", "svd", "svd"),
]


def _eig_shape(kind, a):
    """(matrices in the call, n) for an eigh/svd argument of shape (..., m, n)."""
    shape = getattr(a, "shape", None)
    if not shape or len(shape) < 2:
        return 1, 0
    count = 1
    for k in shape[:-2]:
        count *= k
    n = shape[-1] if kind == "eigh" else max(shape[-2:])
    return count, n


class Tracer:
    """Spans and counters for calls made while a task is active."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._task = None
        self._patches = []
        self.unbound = []
        self._bound_groups = set()

    # -- task scope ------------------------------------------------------

    def begin_task(self, task_id):
        self._task = task_id

    def end_task(self):
        self._task = None

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    # -- wrappers --------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent, time.perf_counter()

    def _close(self, name, idx, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self._task)

    def _span_wrapper(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._task is None:
                return fn(*args, **kwargs)
            tracer.count(name + ".calls")
            idx, parent, start = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, idx, parent, start)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._task is not None:
                tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _eig_wrapper(self, kind, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer._task is None:
                return fn(a, *args, **kwargs)
            count, n = _eig_shape(kind, a)
            tracer.count("matcore.eig.calls", count)
            if n <= 2:                       # closed form: counted, not timed
                return fn(a, *args, **kwargs)
            tracer.count("matcore.eig.calls_n3plus", count)
            idx, parent, start = tracer._open("matcore.eig")
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer._close("matcore.eig", idx, parent, start)

        return wrapper

    def _operator_norm_after(self, fn):
        signature = inspect.signature(fn)

        def after(args, kwargs, estimate):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            iterations = int(estimate.iterations)
            self.count("compop.operator_norm.iterations", iterations)
            cap = bound.arguments["restarts"] * bound.arguments["max_iter"]
            if iterations and iterations == cap:
                self.count("compop.operator_norm.capped")

        return after

    # -- installing --------------------------------------------------------

    def _rebind(self, module_name, dotted, make):
        """Rebind one target; False (and the target noted in `unbound`) if it is missing."""
        module = importlib.import_module(module_name)
        owner_name, _, attr = dotted.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or attr not in vars(owner):
                self.unbound.append(f"{module_name}.{dotted}")
                return False
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return True
        original = getattr(module, attr, None)
        if original is None:
            self.unbound.append(f"{module_name}.{dotted}")
            return False
        wrapped = make(original)
        holders = [module] + [m for key, m in list(sys.modules.items())
                              if m is not None and m is not module
                              and (key == "nclp" or key.startswith("nclp."))]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapped)
        return True

    def install(self):
        for name, targets in SPANS.items():
            for module_name, dotted in targets:
                if name == "compop.operator_norm":
                    make = lambda fn, name=name: self._span_wrapper(
                        name, fn, self._operator_norm_after(fn))
                else:
                    make = lambda fn, name=name: self._span_wrapper(name, fn)
                if self._rebind(module_name, dotted, make):
                    self._bound_groups.add(name)
        for name, targets in COUNTERS.items():
            for module_name, dotted in targets:
                if self._rebind(module_name, dotted,
                                lambda fn, name=name: self._counter_wrapper(name, fn)):
                    self._bound_groups.add(name)
        for module_name, attr, kind in EIGENSOLVERS:
            self._rebind(module_name, attr,
                         lambda fn, kind=kind: self._eig_wrapper(kind, fn))

    def broken_groups(self):
        """Span and counter groups of which no target bound."""
        return [name for name in list(SPANS) + list(COUNTERS) if name not in self._bound_groups]

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self, scale=None):
        """Total self time per span name: duration minus time covered by
        children, each span times scale[task id] when a scale is given."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _, task) in enumerate(self.spans):
            factor = 1.0 if scale is None else scale[task]
            totals[name] = totals.get(name, 0.0) + ((end - start) - child[i]) * factor
        return totals

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")
