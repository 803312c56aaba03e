"""Tests for the experiment CLI."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cli import build_parser, main
from repro.sharding import ShardCoordinator


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_exactly_three_subcommands(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        assert sorted(sub.choices) == ["recover", "run", "serve"]

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.preset == "paper-default"
        # Overrides are unset until given: the preset supplies the shape.
        assert args.m is None and args.f is None and args.rounds is None

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "does-not-exist"])


class TestCommands:
    def test_recover_empty_dir_is_clean(self, tmp_path, capsys):
        code = main(["recover", "--dir", str(tmp_path / "nothing")])
        out = capsys.readouterr().out
        assert code == 0
        assert "(empty)" in out


#: One `run` per host: argv and what the host's report must say.
RUN_CASES = {
    "inproc-shape-overrides": (
        ["run", "--providers", "8", "--collectors", "4", "--governors", "3",
         "--r", "2", "--rounds", "3", "--batch", "8", "--misreporters", "1"],
        ["scenario: paper-default", "l=8 n=4 m=3 r=2", "properties hold: True",
         "chain height: 3"],  # no argue admitted in round 3: no closing block
    ),
    "inproc-preset": (["run", "smoke"], ["properties hold: True"]),
    "inproc-rounds-override": (
        ["run", "paper-default", "--rounds", "2"],
        ["2 rounds", "properties hold: True"],
    ),
    "net-in-memory": (
        ["run", "durable-smoke", "--seed", "3", "--rounds", "2"],
        ["scenario: durable-smoke", "final height 2", "auditor clean: True"],
    ),
    "shard": (
        ["run", "sharded-smoke", "--rounds", "3"],
        ["[serial backend]", "aggregate committed: 43 tx",
         "cross-shard atomicity clean: True",
         "properties hold on all shards: True"],
    ),
    "stream-synthetic": (
        ["run", "stream-smoke", "--rounds", "4", "--providers", "2000",
         "--seed", "3"],
        ["scenario: stream-smoke", "l=2000", "4 rounds", "transactions    77",
         "touched reputation rows:"],
    ),
}


class TestRunCommand:
    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    def test_run_on_every_host(self, case, capsys):
        argv, expected = RUN_CASES[case]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        for text in expected:
            assert text in out

    def test_durable_run_then_recover(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        code = main([
            "run", "durable-smoke", "--seed", "3",
            "--dir", str(ledger), "--rounds", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario: durable-smoke" in out
        assert "auditor clean: True" in out
        assert out.count("round ") >= 2

        code = main(["recover", "--dir", str(ledger)])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovery:" in out
        assert "tip:" in out

    def test_durable_resume_appends(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        argv = ["run", "durable-smoke", "--seed", "3", "--dir", str(ledger)]
        assert main([*argv, "--rounds", "2"]) == 0
        first = capsys.readouterr().out
        assert main([*argv, "--rounds", "1"]) == 0
        second = capsys.readouterr().out

        def height(text):
            return int(text.rsplit("final height ", 1)[1].split()[0])

        assert height(second) > height(first)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--providers", "5", "--collectors", "4", "--r", "3"], "not divisible"),
            (["stream-smoke", "--providers", "7"], "not divisible"),
            (["--batch", "2000"], "exceeds b_limit"),
            (["smoke", "--workers", "2"], "does not read workers"),
            (["sharded-quad", "--dir", "x"], "does not read storage_dir"),
            (["stream-smoke", "--misreporters", "1"], "does not read behavior_factory"),
            (["smoke", "--rounds", "-2"], "rounds must be >= 1"),
            (["smoke", "--rounds", "0"], "rounds must be >= 1"),
            (["smoke", "--batch", "-3"], "batch must be >= 0"),
            (["sharded-smoke", "--workers", "0"], "workers must be >= 1"),
            (["sharded-smoke", "--workers", "-1"], "workers must be >= 1"),
            (["smoke", "--misreporters", "-1"], "misreporters must be in [0, 4]"),
            (["smoke", "--misreporters", "9"], "misreporters must be in [0, 4]"),
            (["smoke", "--collectors", "8", "--misreporters", "9"],
             "misreporters must be in [0, 8]"),
            (["smoke", "--round-delay", "-1"], "round delay must be >= 0"),
        ],
    )
    def test_bad_configuration_is_a_one_line_error(self, argv, message, capsys):
        assert main(["run", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parallel
    def test_failed_sharded_run_reaps_its_workers(self, monkeypatch):
        def boom(self):
            raise RuntimeError("super-round failed")

        monkeypatch.setattr(ShardCoordinator, "run_super_round", boom)
        with pytest.raises(RuntimeError, match="super-round failed"):
            main(["run", "sharded-smoke", "--workers", "2", "--rounds", "1"])
        assert not [
            child.name for child in multiprocessing.active_children()
            if child.name.startswith("shard-worker-")
        ]
