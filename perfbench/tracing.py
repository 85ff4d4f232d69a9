"""Per-layer tracing of peal from outside its sources.

A layer is one peal module.  ``Tracer.install`` wraps the public functions
of every layer, plus a few constructors and methods named in ``METHODS``,
and rebinds each wrapper under every name any ``peal.*`` namespace binds
the original to, so that ``from .core import check_axioms`` callers and a
module's own internal calls both go through it.  ``uninstall`` restores
every binding.  The tracer is installed only for the traced pass.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of its direct child spans; self times, call counts and the
counters taken from return values accumulate per span name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("core", "corpus", "states", "ideals", "rdp", "decompositions",
          "constructions", "groups", "suite", "cli")

# Span names that pool several functions; anything else is "<layer>.<name>".
ALIASES = {
    "corpus.generate_peas": "corpus.generate",
    "corpus.generate_gpeas": "corpus.generate",
    "ideals.is_ideal": "ideals.is_ideal_normal",
    "ideals.is_normal": "ideals.is_ideal_normal",
    "ideals.check_r1": "ideals.riesz",
    "ideals.check_r2": "ideals.riesz",
    "ideals.is_riesz_ideal": "ideals.riesz",
    "decompositions.decomposition_state_bijection": "decompositions.bijection",
    "groups.probe_pogroup": "groups.probes",
    "groups.probe_torsion_free": "groups.probes",
    "groups.probe_strong_unit": "groups.probes",
    "groups.probe_directed": "groups.probes",
    "groups.is_commutator": "groups.probes",
}

# (layer, class name, method names, span) traced besides module functions.
METHODS = (
    ("core", "PartialAdditionTable", ("__init__",), "core.table_init"),
    ("states", "StateVector", ("__init__",), "states.state_vector"),
    ("constructions", "SymbolicPea", (
        "sampled_axiom_report", "is_symmetric_sampled",
        "check_comparability_sampled", "sampled_state_additivity",
        "sampled_infinit_is_level0", "sampled_ideal_predicate",
        "sampled_normal_predicate", "sampled_cyclic_uniqueness",
        "sampled_difference_consistency",
    ), "constructions.sampled"),
)

MARK = "__perfbench_span__"


def _is_cached(obj):
    return callable(obj) and hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")


def public_functions(module):
    """Public functions (and lru-cached functions) defined in ``module``."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if (inspect.isfunction(obj) or _is_cached(obj)) and \
                getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.errors = Counter()
        self._stack = []          # frames: [span, layer, start, child_s]
        self._first_seen = {}     # (span, id(table)) -> table, for cache misses
        self._restore = []
        for name in COUNTED:
            self.counts[name] = 0

    # -- spans ----------------------------------------------------------

    def _wrap(self, fn, span, layer):
        tracer = self
        count = COUNTERS.get(span)
        self.self_s[span] += 0.0
        self.calls[span] += 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = count[0](tracer, args) if count else None
            stack = tracer._stack
            frame = [span, layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if len(stack) < 2 or stack[-2][1] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                dur = time.perf_counter() - frame[2]
                stack.pop()
                tracer.self_s[span] += dur - frame[3]
                tracer.calls[span] += 1
                if stack:
                    stack[-1][3] += dur
            if count:
                count[1](tracer, args, result, token)
            return result

        if _is_cached(fn):
            wrapper.cache_clear = fn.cache_clear
            wrapper.cache_info = fn.cache_info
        setattr(wrapper, MARK, span)
        return wrapper

    def first_call(self, span, table):
        """True the first time ``table`` reaches ``span``; the peal caches
        answer every later call on the same table object."""
        key = (span, id(table))
        if key in self._first_seen:
            return False
        self._first_seen[key] = table
        return True

    def active(self, span):
        return any(frame[0] == span for frame in self._stack)

    # -- installation ---------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module("peal." + layer) for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in public_functions(module):
                span = ALIASES.get("%s.%s" % (layer, name), "%s.%s" % (layer, name))
                wrappers[id(fn)] = (fn, self._wrap(fn, span, layer))
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "peal" or name.startswith("peal."))]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        for layer, cls_name, methods, span in METHODS:
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, span, layer))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._first_seen.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------

    def snapshot(self):
        return dict(self.self_s)

    def metrics(self):
        """Flat per-span, per-layer and counter metrics."""
        out = {}
        for span in sorted(set(self.self_s) | set(self.calls)):
            out[span + ".self_s"] = self.self_s[span]
            out[span + ".calls"] = self.calls[span]
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(v for s, v in self.self_s.items()
                                         if s.split(".", 1)[0] == layer)
            out[layer + ".errors"] = self.errors[layer]
        out.update(self.counts)
        leaves = self.counts["corpus.leaves"]
        out["corpus.class_yield"] = self.counts["corpus.classes"] / leaves if leaves else 0.0
        solves = self.counts["states.solves"]
        out["states.free_parameters_per_solve"] = (
            self.counts["states.free_parameters"] / solves if solves else 0.0)
        return out


def traced_spans():
    """Marks of every tracer wrapper bound in a peal namespace or class;
    empty when no tracer is installed."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "peal" or name.startswith("peal.")):
            continue
        for attr, obj in vars(module).items():
            if hasattr(obj, MARK):
                found.append("%s.%s" % (name, attr))
            if inspect.isclass(obj) and obj.__module__ == name:
                for meth, fn in vars(obj).items():
                    if hasattr(fn, MARK):
                        found.append("%s.%s.%s" % (name, attr, meth))
    return found


# -- counters from arguments and return values ----------------------------
# span -> (before(tracer, args) -> token, after(tracer, args, result, token))


def _generate_before(tracer, args):
    from peal import corpus

    return corpus.generate_peas.cache_info().misses + corpus.generate_gpeas.cache_info().misses


def _generate_after(tracer, args, result, misses_before):
    from peal import corpus

    misses = corpus.generate_peas.cache_info().misses + corpus.generate_gpeas.cache_info().misses
    if misses > misses_before:
        tracer.counts["corpus.classes"] += len(result)


def _check_axioms_before(tracer, args):
    if tracer.active("corpus.generate"):
        tracer.counts["corpus.leaves"] += 1


def _solve_before(tracer, args):
    return tracer.first_call("states.solve_state_space", args[0])


def _solve_after(tracer, args, space, first):
    if not first:
        return
    table = args[0]
    c = tracer.counts
    c["states.solves"] += 1
    # one additivity equation per defined sum, plus s(0) = 0 and s(1) = 1
    c["states.equations"] += (2 if table.one is not None else 1) + sum(
        1 for _ in table.defined_sums())
    c["states.free_parameters"] += space.dimension
    c["states.vertices"] += len(space.extremal_states)


def _ideals_before(tracer, args):
    return tracer.first_call("ideals.enumerate_ideals", args[0])


def _ideals_after(tracer, args, result, first):
    if first:
        tracer.counts["ideals.ideals_found"] += len(result)


def _count_result(counter):
    def after(tracer, args, result, token):
        tracer.counts[counter] += len(result)
    return after


def _nothing(tracer, args):
    return None


COUNTED = ("corpus.leaves", "corpus.classes", "states.solves", "states.equations",
           "states.free_parameters", "states.vertices", "states.labelings",
           "ideals.ideals_found", "decompositions.decompositions", "cli.report_bytes")

COUNTERS = {
    "corpus.generate": (_generate_before, _generate_after),
    "core.check_axioms": (_check_axioms_before, lambda *a: None),
    "states.solve_state_space": (_solve_before, _solve_after),
    "states.discrete_labelings": (_nothing, _count_result("states.labelings")),
    "ideals.enumerate_ideals": (_ideals_before, _ideals_after),
    "decompositions.find_decompositions": (_nothing, _count_result("decompositions.decompositions")),
}
