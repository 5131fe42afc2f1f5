"""Every function that perfbench/spans.py times must exist under its name.

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


def _targets():
    spans = _load_spans()
    out = []
    for table in (spans.TARGETS, spans.LAYER_ENTRIES):
        for layer, attrs in table.items():
            out.extend((layer, attr) for attr in attrs)
    return out


@pytest.mark.parametrize("layer, attr", _targets())
def test_bench_target_resolves(layer, attr):
    mod = importlib.import_module(f"primpoints.{layer}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        assert isinstance(cls, type)
        # the recorder patches the attribute defined on the class itself
        assert callable(cls.__dict__.get(meth))
    else:
        assert callable(getattr(mod, attr, None))
