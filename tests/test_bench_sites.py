"""The benchmark's tracer rebinds package names at their call sites
(``perfbench/spans.py``). A rename in the package would silently drop a
layer from every traced run, so pin that each site still resolves."""

import importlib
import importlib.util
import os

import pytest

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module,name", spans.PATCH_SITES)
def test_patch_site_resolves(module, name):
    target = importlib.import_module(f"blockmerge.{module}")
    assert callable(getattr(target, name, None)), f"blockmerge.{module}.{name} is gone"


def test_counters_and_sites_name_the_same_functions():
    assert set(spans.COUNTERS) == {name for _, name in spans.PATCH_SITES}
