"""``python -m repro.fleet`` on bad input: a clean error, never a
traceback."""

from repro.fleet.__main__ import main


def test_unknown_bug_is_a_clean_error(capsys):
    assert main(["--bugs", "nosuch-1"]) == 2
    captured = capsys.readouterr()
    assert "error: unknown bug 'nosuch-1'" in captured.err
    assert "Traceback" not in captured.err
    assert "Traceback" not in captured.out
