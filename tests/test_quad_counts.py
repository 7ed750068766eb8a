"""tools/quad_counts.py counts, from the integrands, the calls and
abscissae that each QuadResult records."""

import collections
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
    spread = tuple(sum(min(r.calls, 3) == k for r in results)
                   for k in (1, 2, 3))
    assert counts == (len(results), sum(r.calls for r in results),
                      sum(r.evaluated for r in results), spread)
    assert counts[0] == 300


def test_a_line_starts_at_its_last_depth(monkeypatch):
    # tabulate_quad seed 1 from an empty plan memo took 529 integrand
    # calls on 63,692 points when every z started from the opening; each z
    # that starts at its line's last depth takes at most 360 calls in all,
    # on at most 15% more points
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setattr(mb, "_PLANS", collections.OrderedDict())
    integrals, made, points, spread = _tool().pass_counts("tabulate_quad", 1)
    assert integrals == 300 and sum(spread) == 300
    assert made <= 360
    assert points <= 1.15 * 63692
