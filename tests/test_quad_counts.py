"""tools/quad_counts.py counts, from the integrands, the calls and
abscissae that each QuadResult records."""

import importlib.util
import pathlib

from mbint import mellin_barnes as mb

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "quad_counts", ROOT / "tools" / "quad_counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_agree_with_the_results(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    results = []
    integrate_adaptive = mb.integrate_adaptive

    def recorded(*args, **kwargs):
        results.append(integrate_adaptive(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(mb, "integrate_adaptive", recorded)
    counts = _tool().pass_counts("tabulate_quad", 1)
    assert mb.integrate_adaptive is recorded  # the tool restores it
    assert counts == (len(results), sum(r.calls for r in results),
                      sum(r.evaluated for r in results))
    assert counts[0] == 300
