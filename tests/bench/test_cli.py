"""Unit tests for the `python -m repro.bench` CLI (runners stubbed)."""

import pytest

import repro.bench.__main__ as cli


@pytest.fixture
def stubbed(monkeypatch):
    calls = []
    for name in list(cli.RUNNERS):
        monkeypatch.setitem(cli.RUNNERS, name, lambda n=name: calls.append(n))
    return calls


def test_single_experiment(stubbed):
    assert cli.main(["fig6"]) == 0
    assert stubbed == ["fig6"]


def test_multiple_experiments(stubbed):
    cli.main(["fig7", "table1"])
    assert stubbed == ["fig7", "table1"]


def test_all_runs_everything(stubbed):
    cli.main(["all"])
    assert sorted(stubbed) == sorted(cli.RUNNERS)


def test_unknown_experiment_rejected(stubbed):
    with pytest.raises(SystemExit):
        cli.main(["fig99"])
    assert stubbed == []
