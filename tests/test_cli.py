"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_knows_all_commands():
    parser = build_parser()
    args = parser.parse_args(["table1", "--small"])
    assert args.command == "table1"
    assert args.small


def test_unknown_command_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["bogus"])


def test_main_patterns_command_prints_table(capsys):
    exit_code = main(["patterns", "--small"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Table 2" in captured.out
    assert "DNSDB" in captured.out


def test_main_table1_small_scenario(capsys):
    exit_code = main(["table1", "--small", "--subscriber-lines", "400"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Amazon IoT" in captured.out


def test_main_discovery_summary(capsys):
    exit_code = main(["discovery", "--small", "--subscriber-lines", "400"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "discovered IPv4 addresses" in captured.out


def test_scale_zero_is_rejected_by_the_parser():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["table1", "--scale", "0"])
    with pytest.raises(SystemExit):
        parser.parse_args(["table1", "--scale", "-0.5"])
    with pytest.raises(SystemExit):
        parser.parse_args(["table1", "--scale", "nan"])
    with pytest.raises(SystemExit):
        parser.parse_args(["table1", "--scale", "inf"])
    with pytest.raises(SystemExit):
        parser.parse_args(["table1", "--subscriber-lines", "0"])


def test_explicit_scenario_options_are_applied():
    from repro.cli import _make_config

    parser = build_parser()
    args = parser.parse_args(["table1", "--small", "--scale", "0.5", "--subscriber-lines", "123"])
    config = _make_config(args)
    assert config.scale == 0.5
    assert config.n_subscriber_lines == 123
    # Omitted options keep the preset's values.
    args = parser.parse_args(["table1", "--small"])
    config = _make_config(args)
    assert config.scale == 0.01


def test_sweep_command_runs_a_grid(capsys, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    exit_code = main(
        [
            "sweep",
            "--small",
            "--subscriber-lines", "40",
            "--axis", "sampling_ratio=1,4",
            "--metrics", "traffic",
            "--workers", "1",
            "--ledger", str(ledger),
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Sweep results (2 scenarios)" in captured.out
    assert "sampling_ratio=1" in captured.out
    assert ledger.exists()
    assert len(ledger.read_text().splitlines()) == 2


def test_sweep_resume_reuses_completed_scenarios(capsys, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    base_args = [
        "sweep",
        "--small",
        "--subscriber-lines", "40",
        "--axis", "sampling_ratio=1,4",
        "--metrics", "traffic",
        "--workers", "1",
    ]
    assert main([*base_args, "--ledger", str(ledger)]) == 0
    capsys.readouterr()
    exit_code = main([*base_args, "--resume", str(ledger)])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "resumed from" in out
    assert "2 scenario(s) reused" in out and "0 re-run" in out
    assert len(ledger.read_text().splitlines()) == 2, "a full resume appends nothing"


def test_sweep_resume_rejects_missing_or_corrupt_ledger(capsys, tmp_path):
    args = ["sweep", "--small", "--subscriber-lines", "40", "--axis", "sampling_ratio=1"]
    with pytest.raises(SystemExit) as excinfo:
        main([*args, "--resume", str(tmp_path / "nope.jsonl")])
    assert excinfo.value.code == 2
    assert "--resume" in capsys.readouterr().err

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema": 99}\n{"schema": 99}\n')
    with pytest.raises(SystemExit) as excinfo:
        main([*args, "--resume", str(bad)])
    assert excinfo.value.code == 2
    assert "unknown ledger schema" in capsys.readouterr().err


def test_sweep_retry_and_timeout_flags_reach_the_runner():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        [
            "sweep", "--small", "--axis", "sampling_ratio=1",
            "--retries", "2", "--timeout", "30", "--backoff", "0.1", "--max-failures", "5",
        ]
    )
    assert args.retries == 2
    assert args.timeout == 30.0
    assert args.backoff == 0.1
    assert args.max_failures == 5


def test_sweep_rejects_bad_axis(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--small", "--axis", "bogus_field=1,2"])


def test_cache_ls_and_prune(capsys, tmp_path):
    store = tmp_path / "store"
    exit_code = main(["cache", "ls", "--store", str(store)])
    assert exit_code == 0
    assert "is empty" in capsys.readouterr().out

    main(
        [
            "sweep",
            "--small",
            "--subscriber-lines", "40",
            "--axis", "sampling_ratio=1,4",
            "--workers", "1",
            "--store", str(store),
        ]
    )
    capsys.readouterr()
    exit_code = main(["cache", "ls", "--store", str(store)])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "raw-export" in out

    exit_code = main(["cache", "prune", "--store", str(store)])
    assert exit_code == 0
    assert "pruned" in capsys.readouterr().out
    exit_code = main(["cache", "ls", "--store", str(store)])
    assert "is empty" in capsys.readouterr().out


def test_sweep_rejects_invalid_axis_value_as_parser_error(capsys):
    """A value that parses but fails config validation is a clean parser error."""
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--small", "--axis", "scale=-1"])
    assert excinfo.value.code == 2
    assert "scale must be positive" in capsys.readouterr().err


def test_sweep_rejects_a_nan_axis_value_as_parser_error(capsys):
    """NaN parses as a float but is no scenario value: the sweep stops before any run."""
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "sweep", "--small", "--subscriber-lines", "60",
                "--axis", "volume_sigma=nan,0.75", "--metrics", "traffic",
            ]
        )
    assert excinfo.value.code == 2
    assert "volume_sigma must be finite" in capsys.readouterr().err


def test_sweep_rejects_more_scanner_lines_than_subscriber_lines(capsys):
    """Clamping 100 scanner lines to 60 lines made every line a scanner: 0 clean flows, ok."""
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "sweep", "--small", "--subscriber-lines", "60",
                "--axis", "n_scanner_lines=100", "--metrics", "traffic",
            ]
        )
    assert excinfo.value.code == 2
    assert "n_scanner_lines (100) exceeds n_subscriber_lines (60)" in capsys.readouterr().err


def test_sweep_exits_nonzero_when_scenarios_fail(capsys, monkeypatch):
    from repro.sweeps import metrics as metrics_module

    def explode(context):
        raise RuntimeError("boom")

    monkeypatch.setitem(metrics_module.SWEEP_METRICS, "traffic", explode)
    exit_code = main(
        ["sweep", "--small", "--subscriber-lines", "40", "--axis", "sampling_ratio=1"]
    )
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "1 of 1 scenarios FAILED" in out
    assert "boom" in out
