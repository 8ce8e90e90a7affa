"""In-memory span tracer that wraps molfp's public functions from outside.

Nothing under ``src/molfp`` is instrumented.  While a :class:`Tracer` is
installed, every module-level binding of a traced function in a loaded
``molfp`` module is replaced by a wrapper, so calls made inside
``molfp.cli.main`` are timed too.  Each call records a span (name,
start, end, parent span, records handled); a layer's self time is its
spans' duration minus the time covered by their direct children.

Pool workers are forked with the wrappers in place, but their spans stay
in the worker; the parent measures the pool itself through
:class:`MeasuredPool`, which has workers pickle their results so that
the parent can count the bytes and time the unpickling.
"""

from __future__ import annotations

import json
import pickle
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span: [name id, start ns, end ns, parent index, records]
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([self._name_id(name), _now(), 0, parent, 1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, records: int = 1) -> None:
        span = self.spans[idx]
        span[2] = _now()
        span[4] = records
        self._stack.pop()

    def span(self, name: str):
        return _SpanContext(self, name)

    def wrap(self, name: str, fn, records=None, on_result=None):
        """A wrapper that records one span per call.  ``records(args,
        result)`` gives the records the call handled (default 1);
        ``on_result(result)`` may add counts."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx)
                raise
            tracer.end(idx, records(args, result) if records else 1)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---------------------------------------------------------- patching

    def install(self, targets) -> None:
        """Patch each ``(function, name, records, on_result)`` target in
        every loaded molfp module that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "molfp" or n.startswith("molfp.")]
        for fn, name, records, on_result in targets:
            wrapper = self.wrap(name, fn, records, on_result)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # ----------------------------------------------------------- results

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, records, self ns and total ns."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for idx, (name_id, start, end, _, records) in enumerate(self.spans):
            row = out.setdefault(
                self.names[name_id], {"calls": 0, "records": 0, "self_ns": 0, "total_ns": 0}
            )
            row["calls"] += 1
            row["records"] += records
            row["self_ns"] += end - start - child_ns[idx]
            row["total_ns"] += end - start
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "columns": ["name", "start_ns", "end_ns", "parent", "records"],
                    "spans": [[self.names[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                    "counts": dict(self.counts),
                    "self_times": self.self_times(),
                },
                f,
            )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.records = 1

    def __enter__(self):
        self.idx = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.idx, self.records)


def _pickled_call(fn, *args):
    return pickle.dumps(fn(*args))


class _UnpicklingFuture:
    def __init__(self, future, tracer: Tracer) -> None:
        self._future = future
        self._tracer = tracer

    def result(self, timeout=None):
        payload = self._future.result(timeout)
        self._tracer.counts["engine.result_bytes"] += len(payload)
        t0 = _now()
        value = pickle.loads(payload)
        self._tracer.counts["engine.result_unpickle_ns"] += _now() - t0
        return value


def measured_pool(tracer: Tracer):
    """A ProcessPoolExecutor class whose futures report the pickled size
    and the unpickling time of each worker result to ``tracer``."""

    class MeasuredPool(ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            if kwargs:
                raise TypeError("MeasuredPool.submit takes positional arguments only")
            return _UnpicklingFuture(super().submit(_pickled_call, fn, *args), tracer)

    return MeasuredPool
