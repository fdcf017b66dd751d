"""Span tracer that wraps the package's public functions from outside.

``from .x import f`` binds ``f`` again in every importing module, so wrapping
the defining module alone would miss most calls.  ``Tracer.install`` rebinds
every module-level name in the package that is the original function, plus
``ExactMatrix.__mul__`` on the class, and ``Tracer.uninstall`` puts every
original back.

Each call records one span ``(name, parent, item, start, end, tare)``:
``parent`` is the index of the enclosing span (-1 for none), ``item`` the
benchmark item being run (-1 during set-up) and ``tare`` the time the tracer
spent on the call's argument statistics just before ``start``.  A generator
function records one span per resumption.  Spans stay in memory; the
aggregates are computed once, after the run.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "mirabolic"

# span name -> (module, attribute); a dotted attribute is a method on a class
TARGETS = {
    "exact_linalg.rank": ("exact_linalg", "rank"),
    "exact_linalg.mul": ("exact_linalg", "ExactMatrix.__mul__"),
    "exact_linalg.inverse": ("exact_linalg", "inverse"),
    "exact_linalg.jordan_structure": ("exact_linalg", "jordan_structure"),
    "classify.classify": ("classify", "classify"),
    "classify.stabilizer_dim": ("classify", "stabilizer_dim"),
    "classify.point_stabilizer_dim": ("classify", "point_stabilizer_dim"),
    "orbit_model.realize_orbit": ("orbit_model", "realize_orbit"),
    "orbit_model.project_to_p_star": ("orbit_model", "project_to_p_star"),
    "orbit_model.orbit_from_matrix": ("orbit_model", "orbit_from_matrix"),
    "orbit_model.realize_normal_form": ("orbit_model", "realize_normal_form"),
    "enumeration.enumerate_selections": ("enumeration", "enumerate_selections"),
    "enumeration.selection_conjugator": ("enumeration", "selection_conjugator"),
    "moment.oracle_image": ("moment", "oracle_image"),
    "moment.symbolic_image": ("moment", "symbolic_image"),
    "moment.check_geometry": ("moment", "check_geometry"),
    "moment.dense_selection": ("moment", "dense_selection"),
    "rep_theory.verify_restriction": ("rep_theory", "verify_restriction"),
    "rep_theory.attach_gl_rep": ("rep_theory", "attach_gl_rep"),
    "rep_theory.restrict_to_mirabolic": ("rep_theory", "restrict_to_mirabolic"),
    "corpus.complex_corpus": ("corpus", "complex_corpus"),
    "corpus.real_corpus": ("corpus", "real_corpus"),
    "corpus.random_mirabolic": ("corpus", "random_mirabolic"),
}

LAYERS = ("exact_linalg", "classify", "orbit_model", "enumeration", "moment",
          "rep_theory", "corpus")

# spans whose self time is reported without a call count
UNCOUNTED = ("corpus.complex_corpus", "corpus.real_corpus", "corpus.random_mirabolic")

clock = time.perf_counter


def _entry_bits(v) -> int:
    if hasattr(v, "im"):  # a Gaussian rational: two Fractions
        return max(_entry_bits(v.re), _entry_bits(v.im))
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def matrix_bits(m) -> int:
    """Largest numerator or denominator bit length among the entries."""
    return max((_entry_bits(v) for row in m.data for v in row), default=0)


def is_nonreal(m) -> bool:
    return any(getattr(v, "im", 0) for row in m.data for v in row)


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of the intervals, clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover.

    A child covers ``[start - tare, end]``: the tracer's bookkeeping for the
    child belongs to neither span and ends up unattributed.
    """
    children = defaultdict(list)
    for name, parent, item, start, end, tare in spans:
        children[parent].append((start - tare, end))
    out = []
    for idx, (name, parent, item, start, end, tare) in enumerate(spans):
        out.append(end - start - covered(children.get(idx, ()), start, end))
    return out


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        self.spans = []
        self.item = -1
        self.calls = Counter()
        self.errors = Counter()
        self.missing = []
        self.rank_max_cells = 0
        self.rank_nonreal = 0
        self.max_bits = 0
        self.jordan_tried = 0
        self.jordan_found = 0
        self.classify_steps = 0
        self._stack = []
        self._patches = []
        self._raised = []

    # ----------------------------------------------------------------- hooks
    def _pre(self, name, args):
        """Argument statistics, taken before the span starts (the tare)."""
        if name == "exact_linalg.mul":
            if hasattr(args[1], "data"):
                self.max_bits = max(self.max_bits, matrix_bits(args[0]),
                                    matrix_bits(args[1]))
        elif name == "exact_linalg.inverse":
            self.max_bits = max(self.max_bits, matrix_bits(args[0]))
        elif name == "exact_linalg.rank":
            m = args[0]
            self.rank_max_cells = max(self.rank_max_cells, m.rows * m.cols)
            self.rank_nonreal += is_nonreal(m)
            self.max_bits = max(self.max_bits, matrix_bits(m))
        elif name == "exact_linalg.jordan_structure":
            self.jordan_tried += len(set(args[1]))

    def _post(self, name, result):
        if name == "exact_linalg.jordan_structure":
            self.jordan_found += len(result)
        elif name == "classify.classify":
            self.classify_steps += result.depth - 1

    def _error(self, name, exc):
        # count an exception once, in the layer of the innermost span it left
        if not any(exc is seen for seen in self._raised):
            self._raised.append(exc)
            self.errors[name.split(".")[0]] += 1

    # -------------------------------------------------------------- wrappers
    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        pre = name in ("exact_linalg.mul", "exact_linalg.inverse",
                       "exact_linalg.rank", "exact_linalg.jordan_structure")
        post = name in ("exact_linalg.jordan_structure", "classify.classify")

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                self.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(idx)
                    start = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    except Exception as exc:
                        self._error(name, exc)
                        raise
                    finally:
                        spans[idx] = (name, parent, self.item, start, clock(), 0.0)
                        stack.pop()
                    yield value

            traced_generator.__wrapped__ = fn
            return traced_generator

        def traced(*args, **kwargs):
            t0 = clock()
            self.calls[name] += 1
            if pre:
                self._pre(name, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._error(name, exc)
                raise
            finally:
                spans[idx] = (name, parent, self.item, start, clock(), start - t0)
                stack.pop()
            if post:
                self._post(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --------------------------------------------------------- install/undo
    def install(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, (modname, attr) in TARGETS.items():
            owner = sys.modules.get("%s.%s" % (PACKAGE, modname))
            cls_name, _, method = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            if owner is None or method not in vars(owner):
                self.missing.append(name)
                continue
            original = vars(owner)[method]
            wrapper = self._wrap(name, original)
            if cls_name:
                self._patch(owner, method, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # ------------------------------------------------------------ aggregate
    def layer_metrics(self, wall_s: float, overhead_frac: float) -> dict:
        """Every per-layer metric, keyed by name, as {"value", "unit"}."""
        own = self_times(self.spans)
        self_s = Counter()
        rank_in_jordan = 0
        for (name, parent, *_), s in zip(self.spans, own):
            self_s[name] += s
            if (name == "exact_linalg.rank" and parent >= 0
                    and self.spans[parent][0] == "exact_linalg.jordan_structure"):
                rank_in_jordan += 1
        out = {}

        def put(key, value, unit):
            out[key] = {"value": value, "unit": unit}

        for name in TARGETS:
            if name not in UNCOUNTED:
                put(name + ".calls", self.calls[name], "count")
            put(name + ".self_s", self_s[name], "s")
        put("exact_linalg.rank.max_cells", self.rank_max_cells, "cells")
        put("exact_linalg.rank.nonreal_calls", self.rank_nonreal, "count")
        put("exact_linalg.jordan_structure.rank_calls", rank_in_jordan, "count")
        put("exact_linalg.jordan_structure.hit_ratio",
            self.jordan_found / self.jordan_tried if self.jordan_tried else 0.0, "ratio")
        put("exact_linalg.max_bits", self.max_bits, "bits")
        put("classify.classify.steps", self.classify_steps, "count")
        for layer in LAYERS:
            put(layer + ".errors", self.errors[layer], "count")
        put("unattributed_s", wall_s - sum(self_s.values()), "s")
        put("trace_overhead_frac", overhead_frac, "ratio")
        return out
