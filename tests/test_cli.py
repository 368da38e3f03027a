"""Tests for the python -m repro command-line interface."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args):
    """Run the interpreter on ``src`` in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env)


def run_cli(*argv):
    """Run ``python -m repro`` in a subprocess; the traceback-free
    exit contract must hold for real invocations, not just main()."""
    return run_python("-m", "repro", *argv)


class TestCli:
    def test_nodes_lists_library(self, capsys):
        assert main(["nodes"]) == 0
        out = capsys.readouterr().out
        assert "65nm" in out
        assert "350nm" in out

    def test_node_detail(self, capsys):
        assert main(["node", "65nm"]) == 0
        out = capsys.readouterr().out
        assert "feature_size_nm" in out
        assert "65" in out

    def test_node_accepts_bare_number(self, capsys):
        assert main(["node", "90"]) == 0
        assert "90" in capsys.readouterr().out

    def test_unknown_node_fails_cleanly(self, capsys):
        assert main(["node", "7nm"]) == 1
        assert "available" in capsys.readouterr().err

    def test_scorecard(self, capsys):
        assert main(["scorecard"]) == 0
        out = capsys.readouterr().out
        assert "benefit_vs_prev" in out
        assert "sync_region_mm" in out

    def test_leakage_with_options(self, capsys):
        assert main(["leakage", "--gates", "1000",
                     "--frequency", "5e8"]) == 0
        assert "leakage_fraction" in capsys.readouterr().out

    def test_figures_index(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "tab_body_bias" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestStartup:
    def test_cli_import_loads_no_scipy_subprocess(self):
        """scipy loads where a command uses it, not at CLI start-up."""
        result = run_python("-c", "import sys, repro.__main__; print(*("
                            "m for m in sys.modules "
                            "if m.split('.')[0] == 'scipy'))")
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []


class TestChainYieldCommand:
    def test_smoke_table(self, capsys):
        assert main(["chain-yield", "--dies", "8",
                     "--nodes", "350nm,65nm"]) == 0
        out = capsys.readouterr().out
        assert "yield_fraction" in out
        assert "350nm" in out
        assert "65nm" in out

    def test_spec_knobs_parsed(self, capsys):
        assert main(["chain-yield", "--dies", "4", "--nodes", "350nm",
                     "--enob-min", "12"]) == 0
        out = capsys.readouterr().out
        # 12 ENOB from an 8-bit chain: everything fails
        assert " 0 " in out or " 0\n" in out or " 0 |" in out \
            or "0 |" in out

    def test_unknown_node_fails_cleanly(self, capsys):
        assert main(["chain-yield", "--nodes", "7nm"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_bad_dies_value_is_typed(self, capsys):
        assert main(["chain-yield", "--dies", "0",
                     "--nodes", "65nm"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_checkpoint_is_written_without_shards(self, capsys,
                                                  tmp_path):
        path = tmp_path / "ck.json"
        assert main(["chain-yield", "--dies", "4", "--nodes", "65nm",
                     "--checkpoint", str(path)]) == 0
        assert path.is_file()

    def test_chaos_is_armed_without_shards(self, capsys):
        assert main(["chain-yield", "--dies", "4", "--nodes", "65nm",
                     "--retries", "0", "--chaos-seed", "0",
                     "--chaos-crash", "1", "--chaos-hang", "0",
                     "--chaos-poison", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "no shard completed" in captured.err

    def test_bad_limit_fails_before_any_worker(self, capsys):
        assert main(["chain-yield", "--dies", "4", "--nodes", "65nm",
                     "--dnl-limit", "-1", "--backend", "process"]) == 1
        assert capsys.readouterr().err == (
            "error: dnl_limit must be a positive finite number, "
            "got -1.0\n")


#: What the ``repro`` console script runs (``pyproject.toml``).
CONSOLE_SCRIPT = ("import sys; from repro.__main__ import main; "
                  "sys.exit(main())")


class TestClosedStdout:
    """``repro nodes | head -1``: once the reader has gone, the run
    ends with status 1 and nothing on stderr, whether a ``print`` or
    the last flush meets the closed pipe."""

    @pytest.mark.parametrize("buffered", [False, True],
                             ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("entry", [("-m", "repro"),
                                       ("-c", CONSOLE_SCRIPT)],
                             ids=["module", "console-script"])
    @pytest.mark.parametrize("argv", [["nodes"], ["node", "65nm"],
                                      ["figures"]], ids=" ".join)
    def test_exits_one_without_traceback(self, argv, entry, buffered):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, *entry, *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (1, "")


class TestCliHardening:
    def test_unknown_subcommand_exits_cleanly(self):
        result = run_cli("frobnicate")
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        assert "invalid choice" in result.stderr

    def test_unknown_node_subprocess_one_liner(self):
        result = run_cli("node", "7nm")
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error:")
        assert "available" in result.stderr

    def test_strict_flag_accepted_on_clean_run(self, capsys):
        assert main(["--strict", "nodes"]) == 0
        assert "65nm" in capsys.readouterr().out

    def test_out_of_calibration_warns_but_succeeds(self, capsys):
        from repro.robust import ModelDomainWarning
        with pytest.warns(ModelDomainWarning, match="calibrated"):
            assert main(["leakage", "--temperature", "700"]) == 0

    def test_strict_promotes_warning_to_error(self, capsys):
        assert main(["--strict", "leakage",
                     "--temperature", "700"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (strict):")
        assert "calibrated" in err

    @pytest.mark.parametrize("command", ["yield", "chain-yield"])
    def test_bad_dies_names_n_dies(self, command, capsys):
        assert main([command, "--dies", "0"]) == 1
        assert capsys.readouterr().err == (
            "error: n_dies must be >= 1, got 0\n")

    @pytest.mark.parametrize("argv, name", [
        (["soc-noise", "--seed", "-1"], "seed"),
        (["soc-noise", "--seed", "-1", "--backend", "process",
          "--shards", "2"], "seed"),
        (["soc-noise", "--frequency", "0"], "frequency"),
        (["soc-noise", "--frequency", "nan"], "frequency"),
        (["soc-noise", "--frequency", "inf"], "frequency"),
        (["soc-noise", "--frequency", "-1"], "frequency"),
        (["leakage", "--frequency", "nan"], "frequency"),
        (["leakage", "--frequency", "inf"], "frequency"),
        (["yield", "--dies", "1000", "--chaos-crash", "-1"],
         "crash_rate"),
        (["yield", "--dies", "1000", "--chaos-crash", "nan"],
         "crash_rate"),
        (["yield", "--dies", "1000", "--chaos-crash", "inf"],
         "crash_rate"),
        (["yield", "--dies", "1000", "--chaos-crash", "2"],
         "crash_rate"),
        (["yield", "--dies", "1000", "--chaos-hang", "-0.5"],
         "hang_rate"),
        (["yield", "--dies", "1000", "--chaos-poison", "1.5"],
         "poison_rate"),
    ])
    def test_bad_value_is_one_error_line(self, argv, name, capsys):
        """Checked before any work starts, with or without the flags
        that use the value (``--chaos-seed`` arms the chaos rates)."""
        assert main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {name} ")


class TestSocNoiseCommand:
    def test_smoke_table(self, capsys):
        assert main(["soc-noise", "--gates", "400", "--blocks", "2",
                     "--cycles", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for column in ("gates", "events", "activity", "rms_uV",
                       "p2p_uV"):
            assert column in out

    def test_checkpoint_is_written_without_shards(self, capsys,
                                                  tmp_path):
        path = tmp_path / "ck.json"
        assert main(["soc-noise", "--gates", "400", "--blocks", "2",
                     "--cycles", "4", "--checkpoint", str(path)]) == 0
        assert path.is_file()

    def test_process_shards_print_the_unsharded_table(self, capsys):
        args = ["soc-noise", "--gates", "2000", "--blocks", "2",
                "--cycles", "10"]
        assert main(args) == 0
        unsharded = capsys.readouterr().out
        assert main(args + ["--shards", "2", "--backend", "process",
                            "--timeout", "10"]) == 0
        assert capsys.readouterr().out == unsharded

    def test_exhausted_budget_is_one_liner(self, capsys):
        assert main(["soc-noise", "--gates", "400", "--blocks", "2",
                     "--cycles", "4", "--event-budget", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "budget" in err


class TestYieldCommand:
    """The sharded executor behind ``python -m repro yield``: clean
    tables on success, honest degradation, traceback-free failures."""

    def test_sharded_run_prints_bounds(self, capsys):
        assert main(["yield", "--dies", "40", "--shards", "4"]) == 0
        out = capsys.readouterr().out
        for column in ("node", "metric", "yield_fraction",
                       "wilson_low", "wilson_high", "exact_low",
                       "exact_high"):
            assert column in out

    def test_shard_count_does_not_change_the_table(self, capsys):
        from repro.perf import clear_caches
        clear_caches()
        assert main(["yield", "--dies", "40", "--shards", "1"]) == 0
        one = capsys.readouterr().out
        clear_caches()
        assert main(["yield", "--dies", "40", "--shards", "5"]) == 0
        five = capsys.readouterr().out
        assert one == five

    def test_partial_result_warns_but_succeeds(self, capsys):
        # Chaos seed 0 at crash rate 0.5 with no retries fails shard
        # 2 of 4 and spares the rest: the degraded path, pinned.
        assert main(["yield", "--dies", "40", "--shards", "4",
                     "--retries", "0", "--chaos-seed", "0",
                     "--chaos-crash", "0.5", "--chaos-hang", "0",
                     "--chaos-poison", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: partial result:")
        assert "30/40" in captured.err
        assert "wilson_low" in captured.out

    def test_strict_partial_exits_nonzero_subprocess(self):
        result = run_cli("--strict", "yield", "--dies", "40",
                         "--shards", "4", "--retries", "0",
                         "--chaos-seed", "0", "--chaos-crash", "0.5",
                         "--chaos-hang", "0", "--chaos-poison", "0")
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert "partial result: 30/40" in result.stderr
        assert "Traceback" not in result.stderr

    def test_all_shards_failing_is_one_liner_subprocess(self):
        result = run_cli("yield", "--dies", "40", "--shards", "4",
                         "--retries", "0", "--chaos-seed", "1",
                         "--chaos-crash", "1", "--chaos-hang", "0",
                         "--chaos-poison", "0")
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert "no shard completed" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unknown_metric_is_one_liner_subprocess(self):
        result = run_cli("yield", "--metric", "sigma-vt")
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert "unknown yield metric" in result.stderr
        assert "Traceback" not in result.stderr

    def test_bad_checkpoint_path_is_one_liner_subprocess(self, tmp_path):
        path = tmp_path / "missing" / "ck.json"
        result = run_cli("yield", "--dies", "40", "--shards", "4",
                         "--checkpoint", str(path))
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert str(path) in result.stderr
        assert "Traceback" not in result.stderr

    def test_checkpoint_resume_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "ck.json")
        from repro.perf import clear_caches
        clear_caches()
        assert main(["yield", "--dies", "40", "--shards", "4",
                     "--checkpoint", path]) == 0
        first = capsys.readouterr().out
        clear_caches()
        assert main(["yield", "--dies", "40", "--shards", "4",
                     "--checkpoint", path, "--resume"]) == 0
        assert capsys.readouterr().out == first


class TestElectrothermalCommand:
    def test_smoke_table(self, capsys):
        assert main(["electrothermal", "--nodes", "65nm",
                     "--rth-points", "3", "--gates", "100000"]) == 0
        out = capsys.readouterr().out
        assert "junction_K" in out
        assert "65nm" in out

    @pytest.mark.parametrize("argv", [
        ["backends"],
        ["electrothermal", "--backend", "oracle"],
    ])
    def test_removed_path_switches_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_node_fails_cleanly(self, capsys):
        assert main(["electrothermal", "--nodes", "7nm"]) == 1
        assert "7nm" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--rth-points", "-3"),
        ("--rth-points", "0"),
        ("--rth-min", "0"),
        ("--rth-max", "inf"),
    ])
    def test_bad_rth_grid_is_one_liner_subprocess(self, flag, value):
        result = run_cli("electrothermal", "--nodes", "65nm", flag, value)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("error: " + flag[2:].replace("-", "_"))


#: Leading arguments that keep each subcommand's run small.
SMALL = {
    "chain-yield": ["--dies", "4", "--nodes", "65nm"],
    "yield": ["--dies", "1000"],
    "soc-noise": ["--gates", "200", "--blocks", "2", "--cycles", "2"],
    "electrothermal": ["--nodes", "65nm", "--rth-points", "2",
                       "--gates", "1000"],
    "leakage": ["--gates", "1000"],
}

#: The parameter an option feeds, where it is not the option's name.
PARAMETER = {
    "--dies": "n_dies", "--gates": "n_gates", "--blocks": "n_blocks",
    "--cycles": "n_cycles", "--shards": "n_shards",
    "--timeout": "timeout_s", "--retries": "max_retries",
    "--backoff": "backoff_initial_s", "--chaos-seed": "seed",
    "--chaos-crash": "crash_rate", "--chaos-hang": "hang_rate",
    "--chaos-poison": "poison_rate",
    ("soc-noise", "--gates"): "target_gates",
}

#: Edge values that are valid input, each with the reason.
ALLOWED = {
    ("--seed", "0"): "0 is a seed like any other",
    ("--chaos-seed", "0"): "0 is a seed like any other; the retries "
                           "outlast the default fault rates",
    ("--retries", "0"): "a shard may run exactly once",
    ("--backoff", "0"): "a failed shard may retry at once",
    ("--chaos-crash", "0"): "a rate of 0 injects no fault",
    ("--chaos-hang", "0"): "a rate of 0 injects no fault",
    ("--chaos-poison", "0"): "a rate of 0 injects no fault",
    ("--enob-min", "0"): "an ENOB floor every die meets",
    ("--enob-min", "-1"): "an ENOB floor every die meets",
    ("--limit", "0"): "a limit no die meets: yield 0 with valid bounds",
    ("--limit", "-1"): "a limit no die meets: yield 0 with valid bounds",
}


def subcommands():
    """``build_parser()``'s subcommand parsers by name."""
    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return commands.choices


def numeric_cases():
    """Every int option of every subcommand at 0 and -1, and every
    float option at 0, -1, nan and inf, read from ``build_parser()``."""
    for command, parser in subcommands().items():
        for action in parser._actions:
            if action.type not in (int, float):
                continue
            option = action.option_strings[0]
            values = ["0", "-1"] + (["nan", "inf"]
                                    if action.type is float else [])
            for value in values:
                yield pytest.param(command, option, value,
                                   id=f"{command} {option} {value}")


def run_main(argv):
    """``main(argv)``'s exit status, usage errors included."""
    try:
        return main(argv)
    except SystemExit as exit_info:
        return exit_info.code


class TestCliContract:
    """Generated from the parser: an edge value either runs cleanly
    (listed in ``ALLOWED``, no nan/inf printed) or is rejected with one
    stderr line naming the parameter it feeds -- never a traceback."""

    @pytest.mark.parametrize("command, option, value",
                             list(numeric_cases()))
    def test_numeric_edge_value(self, command, option, value, capsys):
        code = run_main([command, *SMALL.get(command, []), option, value])
        captured = capsys.readouterr()
        if code == 0:
            assert (option, value) in ALLOWED, captured.out
            assert not re.search(r"\b(nan|inf)\b", captured.out,
                                 re.IGNORECASE)
            return
        assert code in (1, 2)
        assert captured.out == ""
        parameter = PARAMETER.get((command, option)) or PARAMETER.get(
            option, option[2:].replace("-", "_"))
        [line] = captured.err.splitlines()
        assert re.search(rf"\b{parameter}\b", line), line

    @pytest.mark.parametrize("argv", [
        ["node"],
        ["chain-yield", "--dies", "4", "--nodes"],
        ["electrothermal", "--rth-points", "2", "--gates", "1000",
         "--nodes"],
        ["yield", "--dies", "1000", "--node"],
        ["soc-noise", *SMALL["soc-noise"], "--node"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("name", ["", "7nm"])
    def test_unknown_node_name(self, argv, name, capsys):
        """An empty name is unknown too: only an absent ``--nodes``
        means every node."""
        assert run_main([*argv, name]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: unknown technology node {name!r}")


#: Runs ``python -m repro`` on the arguments after ``-c`` and prints
#: the modules the command loaded as the last stderr line.
MODULE_PROBE = ("import runpy, sys\n"
                "try:\n"
                "    runpy.run_module('repro', run_name='__main__',\n"
                "                     alter_sys=True)\n"
                "finally:\n"
                "    print(*sorted(sys.modules), file=sys.stderr)\n")


def loaded_modules(*argv):
    """The modules ``python -m repro <argv>`` loads in a fresh
    interpreter."""
    result = run_python("-c", MODULE_PROBE, *argv)
    assert result.returncode == 0, result.stderr
    return result.stderr.splitlines()[-1].split()


def command_argvs():
    """Every subcommand of ``build_parser()`` with a small valid argv."""
    for command in subcommands():
        extra = ["65nm"] if command == "node" else SMALL.get(command, [])
        yield pytest.param([command, *extra], id=command)


class TestCommandImports:
    """Each command loads only what it runs."""

    @pytest.mark.parametrize("argv", list(command_argvs()))
    def test_no_command_loads_scipy_stats(self, argv):
        """``scipy.special`` serves every normal and beta quantile;
        ``scipy.stats`` alone takes about 0.6 s to import."""
        assert "scipy.stats" not in loaded_modules(*argv)

    def test_nodes_loads_no_analog_digital_or_scipy(self):
        loaded = loaded_modules("nodes")
        assert [name for name in loaded
                if name.split(".")[:2] in (["repro", "analog"],
                                           ["repro", "digital"])
                or name.split(".")[0] == "scipy"] == []
