"""Outside-in tracer for steinv's layers.

`Tracer.install()` replaces each public entry point listed in ENTRIES by
a timing wrapper, at every name the function is bound to: module
attributes, re-bindings made by ``from ... import`` in other steinv
modules and in the package namespace, and class attributes (so
``FieldElement.__mul__`` and its alias ``__rmul__`` are both covered).
Nothing under ``src/`` is edited; untraced runs never import this module.

Each wrapped call is a span (id, parent span, entry, op, start, end).
Spans stay in memory, up to SPAN_CAP of them, and `write()` stores them
when the run ends.  Aggregates cover every call: calls and self time
(span time minus the time of wrapped calls made inside it) per entry,
exceptions escaping each layer, and the few derived counts that the
per-layer metrics need.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# layer -> [(entry name, attribute path in the layer's module)].  Targets
# sharing an entry name pool their counts (both `contains` methods, the
# two `expand` functions).
ENTRIES = {
    "numbers": [
        ("sign", "FieldElement.sign"),
        ("mul", "FieldElement.__mul__"),
        ("inverse", "FieldElement.inverse"),
        ("add", "FieldElement.__add__"),
        ("sub", "FieldElement.__sub__"),
        ("sub", "FieldElement.__rsub__"),
        ("neg", "FieldElement.__neg__"),
        ("div", "FieldElement.__truediv__"),
        ("div", "FieldElement.__rtruediv__"),
        ("pow", "FieldElement.__pow__"),
        ("eq", "FieldElement.__eq__"),
        ("compare", "FieldElement.__lt__"),
        ("compare", "FieldElement.__le__"),
        ("compare", "FieldElement.__gt__"),
        ("compare", "FieldElement.__ge__"),
        ("refine_root", "RealAlgebraicField.refine_root"),
        ("field", "RealAlgebraicField.__init__"),
        ("approx", "approx"),
    ],
    "intlinalg": [
        ("hermite_normal_form", "hermite_normal_form"),
        ("smith_normal_form", "smith_normal_form"),
        ("cokernel_invariants", "cokernel_invariants"),
        ("localize_factors", "localize_factors"),
        ("reduce", "AbelianInvariants.reduce"),
    ],
    "modules": [
        ("contains", "BreakpointModule.contains"),
        ("contains", "SlopeGroup.contains"),
        ("coordinates", "BreakpointModule.coordinates"),
        ("norm", "BreakpointModule.norm"),
        ("multiplication_matrix", "BreakpointModule.multiplication_matrix"),
        ("same_module", "BreakpointModule.same_module"),
        ("scaled", "BreakpointModule.scaled"),
        ("equals", "SlopeGroup.equals"),
        ("scale_equivalence", "scale_equivalence"),
        ("breakpoint_module", "BreakpointModule.__init__"),
        ("slope_group", "SlopeGroup.__init__"),
        ("stein_triple", "SteinTriple.__init__"),
    ],
    "elements": [
        ("compose", "PLMap.compose"),
        ("inverse", "PLMap.inverse"),
        ("make_plmap", "make_plmap"),
        ("from_prefix_pairs", "from_prefix_pairs"),
        ("to_prefix_pairs", "to_prefix_pairs"),
        ("generator_library", "generator_library"),
        ("random_word", "random_word"),
        ("fixed_point_report", "PLMap.fixed_point_report"),
        ("act_on_cut", "PLMap.act_on_cut"),
    ],
    "coding": [
        ("expand", "n_adic_expand"),
        ("expand", "beta_expand"),
        ("value", "n_adic_value"),
        ("value", "beta_word_value"),
        ("beta_cut_point", "beta_cut_point"),
        ("substitute_tau", "substitute_tau"),
        ("embed_v2_cut", "embed_v2_cut"),
        ("embed_v2_element", "embed_v2_element"),
    ],
    "classify": [
        ("classify_pair", "classify_pair"),
        ("rank_one_report", "rank_one_report"),
        ("coinvariants", "coinvariants"),
        ("class_of", "class_of"),
        ("order_embedding_exists", "order_embedding_exists"),
    ],
    "document": [
        ("parse_spec", "parse_spec"),
        ("triple_to_json", "triple_to_json"),
        ("verdict_to_json", "verdict_to_json"),
        ("dump_json", "dump_json"),
    ],
    "cli": [
        ("main", "main"),
        ("build_parser", "build_parser"),
    ],
}

LAYERS = list(ENTRIES)
SPAN_CAP = 250_000


class Tracer:
    def __init__(self):
        self.names = []  # entry index -> "layer.entry"
        self.entry_layer = []  # entry index -> layer index
        self.calls = []
        self.self_s = []
        self.errors = [0] * len(LAYERS)
        self.bindings = {}  # "layer.entry" -> names rebound
        self.missing = []
        self.op = 0  # the op the current spans belong to
        self.refined_signs = 0
        self.compose_pieces_in = 0
        self.compose_pieces_out = 0
        self.scale_found = 0
        self._stack = []
        self._next_span = 0
        self._spans = {k: array(t) for k, t in
                       (("id", "q"), ("parent", "q"), ("entry", "i"), ("op", "q"),
                        ("start", "d"), ("end", "d"))}
        self.dropped_spans = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "steinv" or name.startswith("steinv."))
        ]
        by_name = {m.__name__: m for m in modules}
        indices = {}
        for li, layer in enumerate(LAYERS):
            for entry, target in ENTRIES[layer]:
                key = f"{layer}.{entry}"
                original = _resolve(by_name.get(f"steinv.{layer}"), target)
                if original is None:
                    self.missing.append(f"{layer}:{target}")
                    continue
                if key not in indices:
                    indices[key] = len(self.names)
                    self.names.append(key)
                    self.entry_layer.append(li)
                    self.calls.append(0)
                    self.self_s.append(0.0)
                wrapper = self._wrap(original, indices[key], key)
                count = _rebind(modules, original, wrapper)
                self.bindings[key] = self.bindings.get(key, 0) + count

    def _wrap(self, fn, idx, key):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        spans = self._spans
        s_id, s_parent, s_entry = spans["id"], spans["parent"], spans["entry"]
        s_op, s_start, s_end = spans["op"], spans["start"], spans["end"]
        clock = time.perf_counter
        tracer = self
        layer = self.entry_layer[idx]
        after = {
            "numbers.sign": self._after_sign,
            "numbers.refine_root": self._after_refine,
            "elements.compose": self._after_compose,
            "modules.scale_equivalence": self._after_scale,
        }.get(key)

        def wrapper(*args, **kwargs):
            span = tracer._next_span
            tracer._next_span = span + 1
            parent = stack[-1][2] if stack else -1
            frame = [idx, 0.0, span, False]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or tracer.entry_layer[stack[-2][0]] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                calls[idx] += 1
                self_s[idx] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if len(s_id) < SPAN_CAP:
                    s_id.append(span)
                    s_parent.append(parent)
                    s_entry.append(idx)
                    s_op.append(tracer.op)
                    s_start.append(start)
                    s_end.append(end)
                else:
                    tracer.dropped_spans += 1
            if after is not None:
                after(args, result, frame)
            return result

        return functools.update_wrapper(wrapper, fn)

    def begin_op(self, number: int) -> None:
        """Spans from here on belong to op `number`.  Clears the call
        stack, which a deadline interrupt can leave with stale frames."""
        self.op = number
        self._stack.clear()

    # -- derived counts -----------------------------------------------------

    def _after_sign(self, args, result, frame):
        if frame[3]:
            self.refined_signs += 1

    def _after_refine(self, args, result, frame):
        # mark the innermost open sign call as one that refined the root
        sign = self.names.index("numbers.sign")
        for outer in reversed(self._stack):
            if outer[0] == sign:
                outer[3] = True
                break

    def _after_compose(self, args, result, frame):
        self.compose_pieces_in += len(args[0].pieces) + len(args[1].pieces)
        self.compose_pieces_out += len(result.pieces)

    def _after_scale(self, args, result, frame):
        self.scale_found += bool(result.found)

    # -- results ------------------------------------------------------------

    def count(self, key) -> int:
        return self.calls[self.names.index(key)] if key in self.names else 0

    def self_time(self, key) -> float:
        return self.self_s[self.names.index(key)] if key in self.names else 0.0

    def metrics(self) -> dict:
        """Per-layer figures for one traced pass, named as in BENCHMARK.json."""
        out = {}
        for li, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = sum(
                s for s, l in zip(self.self_s, self.entry_layer) if l == li
            )
            out[f"{layer}.errors"] = self.errors[li]
        for key in (
            "numbers.sign", "numbers.refine_root", "numbers.mul", "numbers.inverse",
            "elements.compose", "elements.inverse", "elements.make_plmap",
            "coding.embed_v2_element", "coding.expand",
            "modules.contains", "modules.norm", "modules.scale_equivalence",
            "classify.classify_pair", "classify.coinvariants",
            "intlinalg.hermite_normal_form", "intlinalg.smith_normal_form",
            "document.parse_spec", "cli.main",
        ):
            out[f"{key}.calls"] = self.count(key)
        for key in ("numbers.sign", "numbers.inverse", "elements.compose",
                    "elements.make_plmap", "modules.scale_equivalence"):
            out[f"{key}.self_s"] = self.self_time(key)
        signs = self.count("numbers.sign")
        composes = self.count("elements.compose")
        scales = self.count("modules.scale_equivalence")
        out["numbers.sign.refined_share"] = self.refined_signs / signs if signs else 0.0
        out["elements.compose.pieces_in_mean"] = (
            self.compose_pieces_in / composes if composes else 0.0
        )
        out["elements.compose.pieces_out_mean"] = (
            self.compose_pieces_out / composes if composes else 0.0
        )
        out["modules.scale_equivalence.found_share"] = (
            self.scale_found / scales if scales else 0.0
        )
        return out

    def write(self, path, header: dict) -> None:
        """Header line (stamp, entries, aggregates), then one JSON array
        [id, parent, entry, op, start, end] per span, gzip-compressed."""
        spans = self._spans
        head = dict(header)
        head.update(
            entries=self.names,
            bindings=self.bindings,
            missing=self.missing,
            calls=dict(zip(self.names, self.calls)),
            self_s=dict(zip(self.names, self.self_s)),
            spans=len(spans["id"]),
            dropped_spans=self.dropped_spans,
        )
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(head) + "\n")
            for row in zip(spans["id"], spans["parent"], spans["entry"],
                           spans["op"], spans["start"], spans["end"]):
                out.write(json.dumps(row) + "\n")


def _resolve(module, target):
    """The function object at `target` ("name" or "Class.name"), taken
    from the class __dict__ so that inherited attributes are skipped."""
    if module is None:
        return None
    owner = module
    *path, attr = target.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = vars(owner).get(attr)
    return value if callable(value) else None


def _rebind(modules, original, wrapper) -> int:
    """Point every module and class attribute bound to `original` at
    `wrapper`; returns how many names were rebound."""
    count = 0
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)
                count += 1
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if member is original:
                        setattr(value, attr, wrapper)
                        count += 1
    return count
