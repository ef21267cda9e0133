"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps the public functions of ``tensorreg.io``,
``model``, ``glm``, ``penalties`` and ``tensor_core`` from the outside:
every reference to a function held by any ``tensorreg`` module is
replaced, so calls between the program's own modules are seen too.  Each
call records one span (id, parent, name, thread, start, end, attributes)
in memory; ``write_spans`` writes them out at the end and
``layer_metrics`` folds them into the per-layer metrics of
``BENCHMARK.json``.

A few scalar helpers are called millions of times per fit; they are only
counted, because a span each would cost more than the work it measures.
A call of a function from inside itself (``threshold_update`` recurses
for negative arguments) is not recorded again.

Spans of restarts run on worker threads have the span that was open on
the main thread when they began (the ``fit`` call) as their parent.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
import weakref

MODULES = ("io", "model", "glm", "penalties", "tensor_core")
COUNT_ONLY = frozenset({"penalties.threshold_update", "penalties.penalty_value",
                        "glm.get_family"})

# Per-layer metrics in the order BENCHMARK.json lists them, with units.
LAYER_METRICS = {
    "tensorreg.import_s": "s",
    "io.read_s": "s",
    "io.write_s": "s",
    "model.dataset_s": "s",
    "model.dataset_mb": "MB",
    "model.fit.retained_mb": "MB",
    "model.build_block_design.calls": "count",
    "model.build_block_design.s": "s",
    "model.build_block_design.gflop": "GFLOP",
    "model.build_block_design.mb_moved": "MB",
    "glm.irls_fit.block.calls": "count",
    "glm.irls_fit.block.s": "s",
    "glm.irls_fit.block.iters": "count",
    "glm.irls_fit.block.iters_per_call": "iters/call",
    "glm.irls_fit.ag.calls": "count",
    "glm.irls_fit.ag.s": "s",
    "glm.irls_fit.ag.iters": "count",
    "glm.irls_fit.ag.iters_per_call": "iters/call",
    "glm.penalized_fit.calls": "count",
    "glm.penalized_fit.s": "s",
    "glm.penalized_fit.iters": "count",
    "penalties.threshold_update.calls": "count",
    "glm.log_likelihood.calls": "count",
    "glm.log_likelihood.s": "s",
    "tensor_core.khatri_rao_chain.calls": "count",
    "tensor_core.khatri_rao_chain.s": "s",
    "tensor_core.cp_to_full.calls": "count",
    "tensor_core.cp_to_full.s": "s",
    "model.fit.calls": "count",
    "model.fit.self_s": "s",
    "model.fit.outer_cycles": "count",
    "model.fit.restarts": "count",
    "model.fit.failed_restarts": "count",
    "model.fit.cpu_per_wall": "s/s",
    "model.normalize_identifiability.s": "s",
    "model.score_and_information.s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb():
    """Current resident set size of this process, in MB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2**20


class Tracer:
    rss_mb = staticmethod(rss_mb)

    def __init__(self):
        self.spans = []
        self.notes = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = self._stack()
        self._counters = {}
        self._designs = {}  # id(design) -> weakref, for block designs

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif threading.current_thread() is not self._main and self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = None
        span_id = next(self._ids)
        stack.append((span_id, name))
        return span_id, parent, stack

    def _close(self, span_id, parent, stack, name, start, attrs):
        end = time.perf_counter()
        stack.pop()
        self.spans.append((span_id, parent, name, threading.get_ident(),
                           start, end, attrs))

    @contextlib.contextmanager
    def phase(self, name):
        """Record one span, named ``phase.<name>``, for a step of the flow."""
        name = "phase." + name
        span_id, parent, stack = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, stack, name, start, {})

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap every public function of the traced modules of ``package``."""
        mods = [m for k, m in sys.modules.items()
                if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for short in MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in COUNT_ONLY:
                    wrapped = self._counting(name, fn)
                else:
                    wrapped = self._spanning(name, fn)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)

    def _counting(self, name, fn):
        counter = self._counters[name] = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(n == name for _, n in self._stack()):
                return fn(*args, **kwargs)
            attrs = before(args, kwargs) if before is not None else {}
            span_id, parent, stack = self._open(name)
            start = time.perf_counter()
            result = err = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                err = exc
                attrs["error"] = type(exc).__name__
                raise
            finally:
                if after is not None:
                    after(args, kwargs, result, err, attrs)
                self._close(span_id, parent, stack, name, start, attrs)

        return wrapper

    # -- per-function attributes -------------------------------------------

    def _after_model_build_block_design(self, args, kwargs, out, err, attrs):
        dataset, coeff, d = args[:3]
        if out is None:
            return
        self._designs[id(out)] = weakref.ref(out)
        n, dims, R = dataset.n, dataset.dims, coeff.rank
        p = dims[d - 1]
        q = math.prod(dims) // p
        # computed, not counted: the contraction n x p x q by q x R, the
        # Khatri-Rao chain of the other modes, and the arrays each touches
        flops = 2.0 * n * p * q * R + q * R * max(len(dims) - 2, 0)
        words = n * p * q + q * R + n * p * R + sum(dims) * R
        attrs.update(flop=flops, bytes=8.0 * words)

    def _is_block(self, design):
        ref = self._designs.get(id(design))
        return ref is not None and ref() is design

    def _before_glm_irls_fit(self, args, kwargs):
        design = args[0] if args else kwargs["design"]
        offset = args[3] if len(args) > 3 else kwargs.get("offset")
        if self._is_block(design):
            return {"kind": "block"}
        # the intercept/covariate update; without an offset it is the
        # first step of a restart
        return {"kind": "ag", "restart": offset is None}

    def _after_glm_irls_fit(self, args, kwargs, result, err, attrs):
        fit = result if result is not None else getattr(err, "last_fit", None)
        attrs["iters"] = fit.iterations if fit is not None else 0

    _after_glm_penalized_fit = _after_glm_irls_fit

    def _before_model_fit(self, args, kwargs):
        attrs = {"cpu0": time.process_time()}
        if "retained_mb" not in self.notes:
            attrs["rss0"] = rss_mb()
        return attrs

    def _after_model_fit(self, args, kwargs, model, err, attrs):
        attrs["cpu"] = time.process_time() - attrs.pop("cpu0")
        attrs["restarts_used"] = model.restarts_used if model is not None else 0
        if "rss0" in attrs:
            self.notes["retained_mb"] = rss_mb() - attrs.pop("rss0")

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, thread, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "thread": thread,
                                     "start": start, "end": end,
                                     **attrs}) + "\n")

    def calls(self, name):
        """Number of calls of a count-only function (read once, at the end)."""
        counter = self._counters.get(name)
        return next(counter) if counter is not None else 0

    def layer_metrics(self):
        """The per-layer metrics of one traced round (``trace.overhead_s``
        is filled in by the caller, which also times untraced rounds)."""
        by_name = {}
        for span in self.spans:
            by_name.setdefault(span[2], []).append(span)
        selfs = self_times(self.spans)

        def total(name, pred=None):
            return sum((s[5] - s[4] for s in by_name.get(name, ())
                        if pred is None or pred(s[6])), 0.0)

        def count(name, pred=None):
            return sum(1 for s in by_name.get(name, ()) if pred is None or pred(s[6]))

        def attr_sum(name, key, pred=None):
            return sum(s[6].get(key, 0) for s in by_name.get(name, ())
                       if pred is None or pred(s[6]))

        m = {
            "tensorreg.import_s": total("phase.tensorreg.import"),
            "io.read_s": sum(total("io." + f) for f in (
                "parse_tensor_file", "read_response_csv", "read_covariates_csv")),
            "io.write_s": sum(total(f) for f in (
                "model.save_model", "io.write_trace_csv", "io.write_pgm")),
            "model.dataset_s": total("phase.model.dataset"),
            "model.dataset_mb": self.notes.get("dataset_mb", 0.0),
            "model.fit.retained_mb": self.notes.get("retained_mb", 0.0),
        }
        bbd = "model.build_block_design"
        m[bbd + ".calls"] = count(bbd)
        m[bbd + ".s"] = total(bbd)
        m[bbd + ".gflop"] = attr_sum(bbd, "flop") / 1e9
        m[bbd + ".mb_moved"] = attr_sum(bbd, "bytes") / 2**20
        for kind in ("block", "ag"):
            def pred(a, kind=kind):
                return a.get("kind") == kind
            key = f"glm.irls_fit.{kind}"
            calls = count("glm.irls_fit", pred)
            iters = attr_sum("glm.irls_fit", "iters", pred)
            m[key + ".calls"] = calls
            m[key + ".s"] = total("glm.irls_fit", pred)
            m[key + ".iters"] = iters
            m[key + ".iters_per_call"] = iters / calls if calls else 0.0
        m["glm.penalized_fit.calls"] = count("glm.penalized_fit")
        m["glm.penalized_fit.s"] = total("glm.penalized_fit")
        m["glm.penalized_fit.iters"] = attr_sum("glm.penalized_fit", "iters")
        m["penalties.threshold_update.calls"] = self.calls("penalties.threshold_update")
        for name in ("glm.log_likelihood", "tensor_core.khatri_rao_chain",
                     "tensor_core.cp_to_full"):
            m[name + ".calls"] = count(name)
            m[name + ".s"] = total(name)
        fits = by_name.get("model.fit", ())
        restarts = count("glm.irls_fit", lambda a: a.get("restart") is True)
        m["model.fit.calls"] = len(fits)
        m["model.fit.self_s"] = sum(selfs[s[0]] for s in fits)
        m["model.fit.outer_cycles"] = count(
            "glm.irls_fit", lambda a: a.get("restart") is False)
        m["model.fit.restarts"] = restarts
        m["model.fit.failed_restarts"] = restarts - attr_sum("model.fit", "restarts_used")
        wall = total("model.fit")
        m["model.fit.cpu_per_wall"] = attr_sum("model.fit", "cpu") / wall if wall else 0.0
        m["model.normalize_identifiability.s"] = total("model.normalize_identifiability")
        m["model.score_and_information.s"] = total("model.score_and_information")
        m["trace.spans"] = len(self.spans)
        return m


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[4], span[5]))
    out = {}
    for span_id, _, _, _, start, end, _ in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[span_id] = (end - start) - covered
    return out
