"""Every function that perfbench/spans.py times must exist under its name,
except the retired targets below, which must be gone.

The span recorder reports a missing target as "absent" instead of raising,
so a rename in src/ would otherwise only show up as a lost metric.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# Targets that spans.py still names but src/ deleted on purpose: the
# Fraction Laurent-series layer, replaced by integer expansions at infinity,
# a span checker with no caller, and the general norm over a number field,
# which only a Trager factorization off a field's own modulus needed.  Their
# metrics read as absent.
RETIRED = {
    ("hypcurve", "function_series"),
    ("hypcurve", "LaurentSeries.nth_root"),
    ("linalg", "SpanChecker.contains"),
    ("numfield", "nf_norm"),
}


def _targets():
    spans = _load_spans()
    out = []
    for table in (spans.TARGETS, spans.LAYER_ENTRIES):
        for layer, attrs in table.items():
            out.extend((layer, attr) for attr in attrs)
    return out


def _resolves(layer, attr):
    mod = importlib.import_module(f"primpoints.{layer}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        # the recorder patches the attribute defined on the class itself
        return isinstance(cls, type) and callable(cls.__dict__.get(meth))
    return callable(getattr(mod, attr, None))


@pytest.mark.parametrize(
    "layer, attr", [target for target in _targets() if target not in RETIRED]
)
def test_bench_target_resolves(layer, attr):
    assert _resolves(layer, attr)


def test_retired_targets_are_gone():
    assert RETIRED <= set(_targets())
    for layer, attr in RETIRED:
        assert not _resolves(layer, attr)
        assert not hasattr(importlib.import_module("primpoints"), attr.split(".")[0])
