"""tools/reply_digest.py lists one line per benchmark reply, the same on
every run over the same checkout."""

import importlib.util
import pathlib

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
