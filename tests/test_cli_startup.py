"""What ``rydsim.cli.main`` sets up before a run: its parser and its
default worker count."""

import os

import pytest

from rydsim import cli


def _parsers(monkeypatch, argv):
    """The ``command`` of each parser ``main(argv)`` builds, and its exit status."""
    build, built = cli.build_parser, []

    def recorded(command=None):
        built.append(command)
        return build(command)
    monkeypatch.setattr(cli, "build_parser", recorded)
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    return built, status


def test_a_command_builds_only_its_own_parser(monkeypatch, capsys, tmp_path):
    argv = ["dump-hamiltonian", "--model", "toric", "--lx", "2", "--ly", "2",
            "--out", str(tmp_path / "h.txt")]
    assert _parsers(monkeypatch, argv) == (["dump-hamiltonian"], 0)
    with pytest.raises(SystemExit):
        cli.build_parser("dump-hamiltonian").parse_args(["heisenberg", "--lx", "2"])
    assert "invalid choice: 'heisenberg'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,status", [
    ([], 2), (["--version"], 0), (["--help"], 0), (["bogus"], 2),
    (["--lx", "2", "toric-cool"], 2),
])
def test_no_leading_command_builds_every_parser(monkeypatch, capsys, argv, status):
    assert _parsers(monkeypatch, argv) == ([None], status)


def test_default_workers_are_the_cpus_of_the_affinity_mask(monkeypatch):
    # os.cpu_count() also counts CPUs outside the mask, which would
    # oversubscribe a restricted cpuset
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cli._workers() == 1
