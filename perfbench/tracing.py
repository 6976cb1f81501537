"""Outside-in span tracer for pillarkit.

``Tracer.install()`` wraps every public function of every loaded
``pillarkit`` module, plus ``Graph.__init__`` and ``RunConfig.resolve``,
and rebinds each module attribute that holds the original function object,
so call sites that did ``from .graph import induced_subgraph`` are caught
too.  Each call records one span: name, start, end, parent span, the
caller-set instance tag, whether it returned, and an optional amount read
from its arguments or result.  Spans stay in flat arrays in memory until
the run ends.  ``uninstall()`` puts every original back.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from functools import wraps

# Called once per vertex or per sample, with O(1) work each: a span would
# cost more than the call it measures.
_PER_VERTEX = {"pillarkit.graph.parity", "pillarkit.graph.induced_degree",
               "pillarkit.expander.epsilon"}

# Amounts recorded on a span, read from (args, result) after a normal return.
_AMOUNTS = {
    "graph.Graph": lambda args, result: args[0].n,
    "expander.check_expansion": lambda args, result: result.samples,
}


def _span_name(fn) -> str:
    layer = fn.__module__.rsplit(".", 1)[-1]
    qual = fn.__qualname__
    if qual.endswith(".__init__"):
        qual = qual[: -len(".__init__")]
    elif "." in qual:
        qual = qual.rsplit(".", 1)[-1]
    return f"{layer}.{qual}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self.nested = array("b")  # an enclosing span has the same name
        self.amount: dict[int, int] = {}  # span index -> amount, where one is read
        self.current_tag = -1
        self._stack: list[int] = []
        self._active: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- wrapping ------------------------------------------------------

    def wrap(self, fn):
        """A wrapper recording one span per call of ``fn``; the return
        value and any exception pass through unchanged."""
        name = _span_name(fn)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        amount = _AMOUNTS.get(name)
        clock = time.perf_counter
        stack, active = self._stack, self._active
        name_id, parent, tag, start, end = self.name_id, self.parent, self.tag, self.start, self.end
        ok, nested, amounts = self.ok, self.nested, self.amount

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            tag.append(self.current_tag)
            ok.append(0)
            nested.append(active[nid] > 0)
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[nid] -= 1
                stack.pop()
            ok[idx] = 1
            if amount is not None:
                amounts[idx] = amount(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap and rebind; call ``uninstall`` (or use ``with``) to undo."""
        import pillarkit

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "pillarkit" or k.startswith("pillarkit."))]
        wrappers = {}
        for mod in modules:
            for obj in vars(mod).values():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not obj.__name__.startswith("_")
                        and f"{obj.__module__}.{obj.__name__}" not in _PER_VERTEX):
                    wrappers[obj] = self.wrap(obj)
        for cls, attr in ((pillarkit.Graph, "__init__"), (pillarkit.RunConfig, "resolve")):
            self._rebind(cls, attr, self.wrap(vars(cls)[attr]))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(mod, attr, wrappers[obj])

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------

    _FIELDS = ("name_id", "parent", "tag", "start", "end", "ok", "nested")

    def analyse(self) -> tuple[dict[str, dict[str, float]], dict[int, float]]:
        """Per span name: calls, returns (normal exits), inclusive seconds of
        the outermost spans, self seconds and the summed amount.  Per
        instance tag: the seconds covered by its top-level spans.

        A span's self time is its duration minus its direct children's, so
        the self times of a tag's spans add up to the seconds its top-level
        spans cover."""
        start, end, parent = self.start, self.end, self.parent
        dur = array("d", (e - s for s, e in zip(start, end)))
        own = array("d", dur)
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= dur[i]
        rows = [{"calls": 0, "returns": 0, "s": 0.0, "self_s": 0.0, "amount": 0}
                for _ in self.names]
        covered: dict[int, float] = defaultdict(float)
        for i, nid in enumerate(self.name_id):
            row = rows[nid]
            row["calls"] += 1
            row["returns"] += self.ok[i]
            row["self_s"] += own[i]
            if not self.nested[i]:
                row["s"] += dur[i]
            if parent[i] < 0:
                covered[self.tag[i]] += dur[i]
        for i, amount in self.amount.items():
            rows[self.name_id[i]]["amount"] += amount
        return dict(zip(self.names, rows)), dict(covered)

    def enclosing(self, inner: str, outer: str) -> set[int]:
        """Indices of ``outer`` spans that have an ``inner`` span below them."""
        if inner not in self._ids or outer not in self._ids:
            return set()
        inner_id, outer_id = self._ids[inner], self._ids[outer]
        found = set()
        for i, nid in enumerate(self.name_id):
            if nid != inner_id:
                continue
            p = self.parent[i]
            while p >= 0:
                if self.name_id[p] == outer_id:
                    found.add(p)
                p = self.parent[p]
        return found

    def write(self, path) -> None:
        """A JSON header line (span names, amounts by span index, array
        order and typecodes, length) followed by each array's raw
        machine-order bytes."""
        header = {"names": self.names, "length": len(self), "amount": self.amount,
                  "arrays": [[f, getattr(self, f).typecode] for f in self._FIELDS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in self._FIELDS:
                getattr(self, f).tofile(fh)


def read_spans(path) -> tuple[list[str], dict[str, array], dict[int, int]]:
    """Span names, arrays and amounts from a file written by ``Tracer.write``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for f, code in header["arrays"]:
            arrays[f] = array(code)
            arrays[f].fromfile(fh, header["length"])
    return header["names"], arrays, {int(i): a for i, a in header["amount"].items()}
