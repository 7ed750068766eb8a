"""tools/reply_digest.py lists one line per benchmark reply, the same on
every run over the same checkout."""

import collections
import importlib.util
import pathlib

from mbint import mellin_barnes as mb

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "reply_digest", ROOT / "tools" / "reply_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reply_digest_on_a_slice_of_one_workload(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    tool = _tool()
    replies = list(tool.reply_lines(["series_bank"], [1], 12))
    assert len(replies) == 12
    # returned values by repr, refusals by type, message and context
    assert any(line.startswith("EvalResult(value=") for line in replies)
    assert "HigherOrderPoleError: coincident poles on the chosen side " \
        "{'location': (2+0j)}" in replies
    assert list(tool.reply_lines(["series_bank"], [1], 12)) == replies


def test_cold_and_warm_plans_reply_bit_for_bit(monkeypatch):
    # tabulate_quad's six parameter sets at 50 z each: the calls that read
    # one memoized plan per set reply as calls that each build a fresh one
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    tool = _tool()
    monkeypatch.setattr(mb, "_PLANS", collections.OrderedDict())
    warming = list(tool.reply_lines(["tabulate_quad"], [1]))
    assert len(mb._PLANS) == 6
    warm = list(tool.reply_lines(["tabulate_quad"], [1]))
    with monkeypatch.context() as patched:
        patched.setattr(mb, "_PLANS", collections.OrderedDict())
        patched.setattr(mb, "PLAN_MEMO", 0)  # each plan dropped at once
        cold = list(tool.reply_lines(["tabulate_quad"], [1]))
        assert not mb._PLANS
    assert len(cold) == 300
    assert all(line.startswith("EvalResult(value=") for line in cold)
    assert cold == warming == warm
