"""Per-layer tracing from outside the package.

The tracer rebinds public functions of the package modules to wrappers.
The package calls its own functions through module attributes or module
globals, so the wrappers see the calls between modules and inside them.

* Span functions record a span (id, parent, op, name, start, end) and
  their self time: span time minus the time of the spans nested in it.
* Counted functions are the hot ones; they record only a call count and
  cumulative time, and since they call no wrapped function that time is
  also their self time.

Spans are kept in memory for the first pass only; counts and times cover
every pass and are reported per pass.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from time import perf_counter

SPAN_FUNCTIONS = {
    "cli": ("main",),
    "richardson": ("special_product", "clan_of_pair"),
    "weak_order": ("w_set", "weak_order_graph", "graph_json_dict", "graph_dot"),
    "permutations": ("enumerate_by_length",),
    "clans": ("enumerate_clans",),
    "oracle": ("schubert_poly", "multiply", "expand_schubert", "restrict_to_degree"),
}
COUNTED_FUNCTIONS = {
    "clans": ("normalize", "mate", "format_clan"),
    "weak_order": ("act", "act_simple", "classify_root"),
    "permutations": ("reduced_word",),
}


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}  # self time of spans, cumulative of counted
        self.work = {"w_set.size": 0, "w_set.acts": 0, "perms": 0, "product_terms": 0,
                     "restrict.in": 0, "restrict.kept": 0}
        self.spans: list[tuple] = []
        self.record = True
        self.op_id = 0
        self._stack: list[list] = []  # [span id, time of nested spans]
        self._next_id = 0
        self._wrapped: list[tuple] = []  # (module, attribute, original, wrapper)
        for module, names in SPAN_FUNCTIONS.items():
            for name in names:
                self._wrap(module, name, self._span)
        for module, names in COUNTED_FUNCTIONS.items():
            for name in names:
                self._wrap(module, name, self._counted)

    def _wrap(self, module, name, kind):
        mod = getattr(self.pkg, module)
        key = f"{module}.{name}"
        self.calls[key] = 0
        self.seconds[key] = 0.0
        original = getattr(mod, name)
        self._wrapped.append((mod, name, original, kind(key, original)))

    def install(self):
        for mod, name, _, wrapper in self._wrapped:
            setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original, _ in self._wrapped:
            setattr(mod, name, original)

    @contextlib.contextmanager
    def suspended(self):
        """Run the benchmark's own checks on the bare package."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _counted(self, key, fn):
        calls, seconds = self.calls, self.seconds

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += perf_counter() - start
                calls[key] += 1

        return wrapper

    def _span(self, key, fn):
        calls, seconds, stack, work = self.calls, self.seconds, self._stack, self.work
        note = _WORK_NOTES.get(key)

        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1] if stack else None
            acts_before = calls["weak_order.act"]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                seconds[key] += end - start - frame[1]
                calls[key] += 1
                if self.record:
                    self.spans.append((frame[0], parent[0] if parent else None,
                                       self.op_id, key, start, end))
            if note is not None:
                note(work, args, result, calls["weak_order.act"] - acts_before)
            return result

        return wrapper

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass, as name -> (value, unit)."""
        out = {}
        for key in self.calls:
            out[f"{key}.calls"] = (self.calls[key] / passes, "count")
            out[f"{key}.self_s"] = (self.seconds[key] / passes, "s")
        w = self.work
        out["weak_order.w_set.useful_ratio"] = (_ratio(w["w_set.size"], w["w_set.acts"]), "ratio")
        out["permutations.enumerate_by_length.perms"] = (w["perms"] / passes, "count")
        out["oracle.product_terms"] = (w["product_terms"] / passes, "count")
        out["oracle.restrict.kept_ratio"] = (_ratio(w["restrict.kept"], w["restrict.in"]), "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per span, in start order, times from the first start."""
        spans = sorted(self.spans)  # span ids are handed out in start order
        origin = spans[0][4] if spans else 0.0
        with path.open("w") as f:
            for span_id, parent, op, name, start, end in spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                    "start": start - origin, "end": end - origin}) + "\n")


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _note_w_set(work, args, result, acts):
    work["w_set.size"] += len(result)
    work["w_set.acts"] += acts


def _note_enumerate(work, args, result, acts):
    work["perms"] += len(result)


def _note_multiply(work, args, result, acts):
    work["product_terms"] += len(result.coeffs)


def _note_restrict(work, args, result, acts):
    work["restrict.in"] += len(args[0])
    work["restrict.kept"] += len(result)


_WORK_NOTES = {
    "weak_order.w_set": _note_w_set,
    "permutations.enumerate_by_length": _note_enumerate,
    "oracle.multiply": _note_multiply,
    "oracle.restrict_to_degree": _note_restrict,
}
