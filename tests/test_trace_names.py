"""The library names perfbench/tracing.py wraps by lookup all exist, so a
rename fails here and not only in a traced benchmark run."""

import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module, attr, name",
                         tracing._SPANNED + tracing._COUNTED,
                         ids=lambda v: getattr(v, "__name__", v))
def test_traced_name_exists(module, attr, name):
    # quadrature.kronrod_panel is a None placeholder that keeps its name
    assert hasattr(module, attr), f"{module.__name__}.{attr} ({name}) is gone"
