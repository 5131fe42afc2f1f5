"""Span recorder that times primpoints' public functions from outside.

`install()` re-binds every target below, in every loaded ``primpoints.*``
namespace that holds it, with a wrapper that appends one span per call:
``(name, start, end, parent, tag)``.  ``parent`` is the index of the
enclosing span (-1 for none) and ``tag`` is an outcome label for the few
targets whose ratio metrics need one.  Spans stay in memory until
``dump()``; nothing under ``src/`` is modified.

Only public names are targets, so renaming or deleting a private helper
never breaks the recorder.  A target that no longer exists is reported by
``install()`` as absent instead of raising.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# layer -> public functions timed in that layer ("Class.method" patches the
# class attribute).  The metrics name each of these functions.
TARGETS = {
    "cli": ["main"],
    "prospect": ["classify_specialization", "fiber_polynomial"],
    "numfield": ["is_primitive_field", "trager_factor", "nf_norm", "resolvent_cubic"],
    "exactalg": ["factor_over_rationals", "factor_mod_p", "hensel_lift", "resultant"],
    "hypcurve": [
        "riemann_roch_basis",
        "function_degree",
        "function_series",
        "LaurentSeries.nth_root",
    ],
    "contract": ["imprimitive_locus_test", "decompose_totally_ramified"],
    "linalg": ["nullspace", "in_span", "SpanChecker.contains"],
}

# Entry points of the prospect layer: wrapped so that the sweep and sampling
# loops count as prospect self time rather than cli self time.  They get no
# per-function metrics.
LAYER_ENTRIES = {"prospect": ["prospect", "density_experiment"]}


def _tag_status(spec):
    return spec.status


def _tag_imprimitive(result):
    return "imprimitive" if result.is_imprimitive else "primitive"


TAGGERS = {
    "prospect.classify_specialization": _tag_status,
    "contract.imprimitive_locus_test": _tag_imprimitive,
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = [-1]

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        tagger = TAGGERS.get(name)

        def timed(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tag = tagger(result) if tagger is not None and result is not None else None
                spans[idx] = (name, start, end, parent, tag)

        return functools.wraps(fn)(timed)

    def install(self):
        """Wrap every target; returns the list of absent target names."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "primpoints" or name.startswith("primpoints."))
        }
        for layer in TARGETS:
            mod = modules.get(f"primpoints.{layer}")
            for attr in TARGETS[layer] + LAYER_ENTRIES.get(layer, []):
                name = f"{layer}.{attr}"
                if mod is None:
                    self.absent.append(name)
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name, None)
                    fn = cls.__dict__.get(meth) if isinstance(cls, type) else None
                    if not callable(fn):
                        self.absent.append(name)
                        continue
                    setattr(cls, meth, self._wrap(name, fn))
                    continue
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    self.absent.append(name)
                    continue
                wrapped = self._wrap(name, fn)
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapped)
        return self.absent

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


def self_times(spans):
    """Per-span self time: duration minus the time covered by child spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]
