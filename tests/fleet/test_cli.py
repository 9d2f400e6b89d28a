"""``python -m repro.fleet`` on bad input: a clean error, never a
traceback."""

import pytest

from repro.fleet.__main__ import main


def test_unknown_bug_is_a_clean_error(capsys):
    assert main(["--bugs", "nosuch-1"]) == 2
    captured = capsys.readouterr()
    assert "error: unknown bug 'nosuch-1'" in captured.err
    assert "Traceback" not in captured.err
    assert "Traceback" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["--agents", "1"],
        ["--shards", "0"],
        ["--shards", "2", "--monitor"],
        ["--shards", "2", "--dashboard-port", "0"],
    ],
    ids=["too-few-agents", "no-shards", "sharded-monitor", "sharded-dashboard"],
)
def test_bad_fleet_shape_is_a_clean_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert "Traceback" not in captured.out
