"""Per-layer spans and counters, installed from outside the package.

Each traced name is replaced, in every loaded ``streamcvi`` module namespace
(and in module-level dicts such as ``cvi.UPDATERS``) that holds the original
object, by a wrapper that records calls and time. Spans nest through a stack,
so a span's self time is its duration minus the durations of the spans it
called. Counters record calls only; their time stays in the enclosing span.
A traced name that no longer exists is reported as missing, never raised.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# span name -> "module:attribute" targets; "Class.method" patches the class.
SPANS = {
    "engine.push": ["streamcvi.engine:StreamEngine.push"],
    "skmeans.step": ["streamcvi.skmeans:skmeans_step"],
    "oec.step": ["streamcvi.oec:oec_step"],
    "cvi.update": ["streamcvi.cvi:xb_update", "streamcvi.cvi:xb_lambda_update",
                   "streamcvi.cvi:db_update", "streamcvi.cvi:db_lambda_update"],
    "dispersion.update": ["streamcvi.dispersion:update_dispersion",
                          "streamcvi.dispersion:update_dispersion_forgetting"],
    "core.as_vector": ["streamcvi.core:as_vector"],
    "stream_io.read": ["streamcvi.stream_io:read_stream"],
    "stream_io.write": ["streamcvi.stream_io:write_trace",
                        "streamcvi.stream_io:write_events"],
}

# counter name -> targets; calls are counted, their time stays in the caller.
COUNTERS = {
    "oec.mahalanobis": ["streamcvi.oec:mahalanobis_sq"],
    "oec.regularize": ["streamcvi.oec:_regularize"],
    # One pairwise center-distance matrix per call: the separation h, and the
    # DB read-out whenever it has at least two centers.
    "cvi.pairwise": ["streamcvi.core:min_pairwise_center_distance_sq",
                     "streamcvi.cvi:_db_value"],
}


class Tracer:
    """Install with ``install()``, run the traced code, then ``uninstall()``."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (container, key, original, is_dict)

    def _span(self, name, fn):
        stack, calls, self_ns = self._stack, self.calls, self.self_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                calls[name] += 1
                self_ns[name] += dt - child
                if stack:
                    stack[-1] += dt
        return wrapper

    def _counter(self, name, fn, predicate):
        calls = self.calls

        def wrapper(*args, **kwargs):
            if predicate is None or predicate(args):
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, target, make_wrapper) -> bool:
        mod_name, attr = target.split(":")
        module = sys.modules.get(mod_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, method, None)
        if owner is None or original is None:
            return False
        wrapper = make_wrapper(original)
        if owner_name:
            self._patches.append((owner, method, original, False))
            setattr(owner, method, wrapper)
            return True
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("streamcvi"):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original, False))
                    setattr(mod, key, wrapper)
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            self._patches.append((val, dkey, original, True))
                            val[dkey] = wrapper
        return True

    def install(self) -> None:
        from streamcvi.core import PrototypeSet

        def has_two_centers(args) -> bool:
            return any(isinstance(a, PrototypeSet) and a.k >= 2 for a in args)

        # A DB read-out computes a distance matrix only with two or more centers.
        predicates = {"streamcvi.cvi:_db_value": has_two_centers}
        self.missing = []
        for name, targets in SPANS.items():
            self.calls.setdefault(name, 0)
            self.self_ns.setdefault(name, 0)
            found = [self._patch(t, lambda fn, n=name: self._span(n, fn)) for t in targets]
            if not any(found):
                self.missing.append(name)
        for name, targets in COUNTERS.items():
            self.calls.setdefault(name, 0)
            found = [
                self._patch(t, lambda fn, n=name, t=t: self._counter(n, fn, predicates.get(t)))
                for t in targets
            ]
            if not any(found):
                self.missing.append(name)

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._patches):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches = []
