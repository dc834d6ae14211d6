"""Outside-in tracing: spans recorded around calls into spherepref.

The tracer rebinds public attributes (module functions, class attributes,
oracle callbacks) to wrappers, and restores the originals on ``restore``.
Nothing inside the package is edited, so the spans sit at the boundaries
the benchmark can see from outside.

A span is [name, start, end, parent, op, attrs, callback_s]. Callbacks
(oracle comparisons and utilities, called up to millions of times) are not
spans: each adds its count and time to an aggregate keyed by callback name
and enclosing span name, and its time to the enclosing span's callback_s,
so self times stay exact without keeping a record per call.
"""

from __future__ import annotations

import dataclasses
import json
from time import perf_counter

NAME, START, END, PARENT, OP, ATTRS, CALLBACK_S = range(7)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = 0
        self.callbacks: dict = {}  # (callback, enclosing span name) -> [calls, seconds]
        self._saved: list = []

    # -- wrappers -------------------------------------------------------

    def wrap(self, name, fn, attrs=None):
        """A span around every call of fn; attrs(args, kwargs, result) labels it."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def callback(self, name, fn):
        """Count and time every call of fn without recording a span for it."""
        spans, stack, table = self.spans, self.stack, self.callbacks

        def counted(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                enclosing = spans[stack[-1]] if stack else None
                key = (name, enclosing[NAME] if enclosing else None)
                agg = table.get(key)
                if agg is None:
                    agg = table[key] = [0, 0.0]
                agg[0] += 1
                agg[1] += dt
                if enclosing is not None:
                    enclosing[CALLBACK_S] += dt

        return counted

    def traced_oracle(self, oracle):
        """A copy of a comparison or utility oracle whose callbacks are counted."""
        fields = {}
        for field, label in (("compare", "axioms.oracle"), ("utility", "axioms.oracle"), ("fn", "cardinal.utility")):
            fn = getattr(oracle, field, None)
            if fn is not None:
                fields[field] = self.callback(label, fn)
        return dataclasses.replace(oracle, **fields)

    # -- rebinding ------------------------------------------------------

    def rebind(self, owner, attr, value):
        """Set owner.attr to value until ``restore``."""
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, value)

    def patch(self, owner, attr, name, attrs=None):
        """Rebind owner.attr to a traced wrapper; staticmethods stay static."""
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            self.rebind(owner, attr, staticmethod(self.wrap(name, raw.__func__, attrs)))
        else:
            self.rebind(owner, attr, self.wrap(name, raw, attrs))

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list:
        """Per span: duration minus its direct children and counted callbacks."""
        own = [s[END] - s[START] - s[CALLBACK_S] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def dump(self, path) -> None:
        """Write every span and callback aggregate once, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                                     "op": s[OP], "attrs": s[ATTRS], "callback_s": s[CALLBACK_S]}) + "\n")
            for (name, within), (calls, seconds) in sorted(self.callbacks.items(), key=str):
                fh.write(json.dumps({"callback": name, "within": within, "calls": calls, "seconds": seconds}) + "\n")
