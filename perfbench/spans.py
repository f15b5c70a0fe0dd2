"""In-memory spans around the benchmark's calls into the program.

A traced run wraps module attributes of the program, so a call made through
the attribute (by the benchmark, or by the program itself, as the weighting
sweeps do) records one span: name, start, end, parent span and operation.
Spans are kept in flat arrays and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self._restore: list[tuple[object, str, object]] = []
        self.units: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, units=None) -> None:
        """Replace module.attr by a wrapper that records a span per call and,
        given ``units``, adds units(*args) to self.units[name]."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if units is not None:
                self.units[name] = self.units.get(name, 0) + units(*args)
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration less its children's."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i, nid in enumerate(self.name):
            key = self.names[nid]
            out[key] = out.get(key, 0.0) + (self.end[i] - self.start[i]) - child[i]
        return out

    def child_counts(self, parent_name: str, child_name: str) -> int:
        """Spans named child_name whose parent span is named parent_name."""
        pid, cid = self._name_ids.get(parent_name), self._name_ids.get(child_name)
        return sum(
            1
            for i, p in enumerate(self.parent)
            if p >= 0 and self.name[i] == cid and self.name[p] == pid
        )

    def dump(self, path, extra: dict) -> None:
        """Write the spans column by column, with the run's own figures."""
        with open(path, "w") as fh:
            json.dump(
                {
                    **extra,
                    "names": self.names,
                    "spans": {
                        "name": self.name.tolist(),
                        "parent": self.parent.tolist(),
                        "op": self.op.tolist(),
                        "start": self.start.tolist(),
                        "end": self.end.tolist(),
                    },
                },
                fh,
            )
