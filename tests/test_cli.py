import csv
import json
import math
import os
import shlex
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import jsm2lab.cli
import jsm2lab.montecarlo
from jsm2lab.bounds import BOUND_REPORT_CSV_HEADER, SUFFICIENCY_CSV_HEADER
from jsm2lab.cli import DEFAULT_SEED, DEFAULT_TRIALS, main, parse_config, read_config_file
from jsm2lab.errors import ConfigError, DomainError
from jsm2lab.montecarlo import MC_CSV_COLUMNS


def _late(fn, seconds):
    """fn, called after a sleep of the given seconds."""

    def late(*args):
        time.sleep(seconds)
        return fn(*args)

    return late


class TestParseConfig:
    def test_defaults_fill_in(self):
        cfg = parse_config(["bounds", "--n", "16", "--k", "2", "--m", "8", "--s", "2"])
        assert cfg.command == "bounds"
        p = cfg.params
        assert (p.n, p.k, p.m, p.s) == (16, 2, 8, 2)
        assert p.sigma2 == 1.0 and p.xmin2 == 1.0 and p.rho == 2.0
        # canonical slack from the defaulted overshoot factor
        assert p.delta == pytest.approx((1.0 - 2.0 / 8.0) * 1.0 / 2.0)
        cfg = parse_config(["simulate", "--n", "16", "--k", "2", "--m", "8", "--s", "2"])
        assert cfg.seed == DEFAULT_SEED
        assert cfg.jobs == 1
        assert cfg.trials == DEFAULT_TRIALS

    def test_snr_sets_noise_floor(self):
        cfg = parse_config(
            ["bounds", "--n", "16", "--k", "2", "--m", "8", "--s", "2",
             "--xmin2", "4.0", "--snr", "8"]
        )
        assert cfg.params.sigma2 == pytest.approx(0.5)
        assert cfg.params.snr_min == pytest.approx(8.0)

    def test_snr_and_sigma2_conflict(self):
        with pytest.raises(ConfigError):
            parse_config(
                ["bounds", "--n", "16", "--k", "2", "--m", "8", "--s", "2",
                 "--snr", "4", "--sigma2", "0.5"]
            )

    def test_invalid_geometry_is_config_error(self):
        with pytest.raises(ConfigError, match="K < M"):
            parse_config(["bounds", "--n", "16", "--k", "10", "--m", "8", "--s", "2"])

    def test_unknown_flag(self):
        with pytest.raises(ConfigError):
            parse_config(["bounds", "--n", "16", "--k", "2", "--m", "8", "--s", "2", "--frobnicate", "1"])

    def test_fix_signal_parsing(self, tmp_path):
        base = ["simulate", "--n", "8", "--k", "2", "--m", "4", "--s", "2", "--trials", "8"]
        assert parse_config(base).fix_signal is True
        # the flag and the config-file entry go through one converter
        f = tmp_path / "fs.cfg"
        for text, want in [("false", False), ("no", False), ("0", False),
                           ("true", True), ("yes", True), ("1", True), ("No", False)]:
            assert parse_config(base + ["--fix-signal", text]).fix_signal is want
            f.write_text(f"fix_signal = {text}\n")
            assert parse_config(base + ["--config", str(f)]).fix_signal is want
        with pytest.raises(ConfigError):
            parse_config(base + ["--fix-signal", "maybe"])
        f.write_text("fix_signal = maybe\n")
        with pytest.raises(ConfigError):
            parse_config(base + ["--config", str(f)])

    def test_config_file_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# grid point\n"
            "n = 16\n"
            "k = 2\n"
            "m = 6\n"
            "s = 2\n"
            "trials = 32\n"
        )
        cfg = parse_config(["simulate", "--config", str(cfg_file), "--m", "7"])
        assert cfg.params.m == 7  # explicit flag wins over the file
        assert cfg.params.n == 16
        assert cfg.trials == 32

    def test_sweep_values_fill_swept_field(self):
        for axis in ("m", "M"):  # the axis name is case-insensitive
            cfg = parse_config(
                ["sweep", "--n", "8", "--k", "2", "--s", "2", "--trials", "8",
                 "--axis", axis, "--values", "3,5,7"]
            )
            assert cfg.axis == "m"
            assert tuple(cfg.values) == (3.0, 5.0, 7.0)
            assert cfg.params.m == 3

    def test_file_value_may_start_with_a_minus(self, tmp_path):
        # the entry reaches ProblemParams' own check, not the parser's
        f = tmp_path / "neg.cfg"
        f.write_text("delta = -1\n")
        with pytest.raises(ConfigError, match="delta override must be >= 0"):
            parse_config(["bounds", "--n", "8", "--k", "2", "--m", "4", "--s", "1", "--config", str(f)])

    def test_find_m_defaults_m_to_minimum(self):
        cfg = parse_config(
            ["find-m", "--n", "8", "--k", "2", "--s", "2", "--trials", "8", "--target", "0.5"]
        )
        assert cfg.params.m == 3

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            parse_config(["bounds", "--n", "16", "--k", "2", "--s", "2"])

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            parse_config(["trampoline", "--n", "16"])


class TestReadConfigFile:
    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "a.cfg"
        f.write_text("\n# full line comment\nn = 8  # trailing\n\nk=2\n")
        assert read_config_file(str(f), "bounds") == {"n": "8", "k": "2"}

    def test_underscore_alias_for_fix_signal(self, tmp_path):
        f = tmp_path / "b.cfg"
        f.write_text("fix_signal = false\n")
        assert read_config_file(str(f), "simulate") == {"fix-signal": "false"}

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "c.cfg"
        # --config is a flag only; a file does not name another file
        for text in ("banana = 3\n", "n = 8\nconfig = other.cfg\n"):
            f.write_text(text)
            with pytest.raises(ConfigError, match="unknown key"):
                read_config_file(str(f), "simulate")

    def test_bad_line(self, tmp_path):
        f = tmp_path / "d.cfg"
        f.write_text("just words\n")
        with pytest.raises(ConfigError, match="key=value"):
            read_config_file(str(f), "bounds")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            read_config_file("/nonexistent/path.cfg", "bounds")


class TestCommands:
    def test_bounds_output(self, capsys):
        rc = main(["bounds", "--n", "64", "--k", "4", "--s", "2", "--snr", "1", "--m", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == BOUND_REPORT_CSV_HEADER
        assert lines[2] == SUFFICIENCY_CSV_HEADER
        assert lines[4] == "below_necessary_m,true"
        assert len(lines[1].split(",")) == len(BOUND_REPORT_CSV_HEADER.split(","))

    def test_bounds_prints_a_warning_as_one_line(self, capsys):
        # N/K too small for the necessary count: the bound module warns
        rc = main(["bounds", "--n", "2", "--k", "1", "--m", "2", "--s", "1", "--snr", "10"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("below_necessary_m,false\n")
        assert captured.err.startswith("warning: necessary measurement count is vacuous")
        assert captured.err.count("\n") == 1
        assert "bounds.py" not in captured.err

    def test_bounds_above_necessary(self, capsys):
        rc = main(["bounds", "--n", "64", "--k", "4", "--s", "2", "--snr", "1", "--m", "32"])
        assert rc == 0
        assert "below_necessary_m,false" in capsys.readouterr().out

    def test_simulate_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "point.csv"
        rc = main(
            ["simulate", "--n", "8", "--k", "2", "--m", "5", "--s", "2",
             "--snr", "4", "--trials", "64", "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(MC_CSV_COLUMNS)
        assert len(lines) == 2
        meta = json.loads((tmp_path / "point.csv.meta.json").read_text())
        assert meta["rows"][0]["master_seed"] == 3
        assert meta["rows"][0]["trials"] == 64
        assert "wall_time_s" in meta

    def test_simulate_stdout_when_no_out(self, capsys):
        rc = main(
            ["simulate", "--n", "8", "--k", "2", "--m", "5", "--s", "2",
             "--snr", "4", "--trials", "32", "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith(",".join(MC_CSV_COLUMNS))

    def test_sweep_rows_and_trend(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = main(
            ["sweep", "--n", "8", "--k", "2", "--s", "2", "--snr", "4",
             "--trials", "32", "--seed", "5", "--axis", "m",
             "--values", "3,5", "--out", str(out)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert f"wrote 2 rows to {out}" in stdout
        assert "trend_residual," in stdout
        assert len(out.read_text().strip().split("\n")) == 3
        assert (tmp_path / "grid.csv.meta.json").exists()

    def test_sweep_rows_follow_increasing_grid_values(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = main(
            ["sweep", "--n", "8", "--k", "2", "--s", "2", "--snr", "4",
             "--trials", "16", "--seed", "5", "--axis", "m",
             "--values", "7,3,5", "--out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        lines = out.read_text().strip().split("\n")
        m_col = MC_CSV_COLUMNS.index("m")
        assert [line.split(",")[m_col] for line in lines[1:]] == ["3", "5", "7"]

    def test_find_m_table(self, capsys):
        rc = main(
            ["find-m", "--n", "8", "--k", "2", "--s", "2", "--snr", "100",
             "--trials", "64", "--seed", "9", "--target", "1.0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("m_star,3")
        assert "saturated,false" in out
        assert "m,event_fail,ci_low,ci_high" in out

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "8", "--k", "2", "--m", "5", "--s", "2", "--snr", "4"],
        ["simulate", "--n", "8", "--k", "2", "--m", "5", "--s", "2", "--snr", "4",
         "--fix-signal", "false", "--amplitude", "uniform", "--xmax", "2"],
        ["find-m", "--n", "10", "--k", "2", "--s", "8", "--snr", "30", "--target", "0.1"],
    ])
    def test_output_bytes_identical_across_jobs(self, argv, tmp_path, capsys):
        # three seed blocks, so --jobs 2 forks a second worker
        argv = argv + ["--trials", "600", "--seed", "9"]
        stdout, written = [], []
        for jobs in ("1", "2"):
            assert main(argv + ["--jobs", jobs]) == 0
            stdout.append(capsys.readouterr().out)
            out = tmp_path / f"jobs{jobs}.csv"
            assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
            assert capsys.readouterr().out == stdout[-1]
            written.append(out.read_bytes())
        assert stdout[0] == stdout[1]
        assert written[0] == written[1] == stdout[0].encode()

    def test_verify_passes(self, capsys):
        rc = main(["verify", "--seed", "7", "--trials", "2000"])
        out = capsys.readouterr().out
        lines = [l for l in out.strip().split("\n") if l]
        assert rc == 0
        # header plus one verdict per check, all passing
        assert all(l.endswith(",pass") for l in lines[1:])
        assert len(lines) >= 13

    def test_exit_code_2_on_bad_geometry(self, capsys):
        rc = main(["bounds", "--n", "16", "--k", "10", "--m", "8", "--s", "2"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n, k, message",
        [
            (3, 3, "find-m requires K < N, got K=3, N=3"),
            (3, 4, "find-m requires K < N, got K=4, N=3"),
            (0, 3, "n must be a positive integer, got 0"),
        ],
    )
    def test_find_m_refuses_k_not_below_n(self, n, k, message, capsys):
        # find-m sets M = K+1 itself, so the message names only K and N
        rc = main(["find-m", "--n", str(n), "--k", str(k), "--s", "1", "--trials", "10",
                   "--target", "0.1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_exit_code_2_on_inadmissible_delta(self, capsys):
        # the parser accepts any delta >= 0; the bound formulas refuse this one
        rc = main(
            ["bounds", "--n", "8", "--k", "2", "--m", "4", "--s", "1",
             "--snr", "10", "--delta", "5"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_exit_code_2_on_uniform_amplitude_without_xmax(self, capsys):
        rc = main(
            ["simulate", "--n", "6", "--k", "2", "--m", "4", "--s", "1",
             "--amplitude", "uniform"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_exit_code_1_on_broken_worker_pool(self, monkeypatch, capsys):
        def crash(config):
            raise ChildProcessError("worker process 4321 ended (status -9) without its counts")

        monkeypatch.setattr(jsm2lab.cli, "run", crash)
        rc = main(["simulate", "--n", "6", "--k", "2", "--m", "4", "--s", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_exit_code_1_on_broken_worker_pool_inside_a_run(self, monkeypatch, capsys):
        # a worker process that dies is a run-level failure, not a sweep row's error;
        # the caller runs its block only once the child has begun its own
        caller, (began, child_began) = os.getpid(), os.pipe()
        run_block = jsm2lab.montecarlo._run_block

        def block(unit):
            if os.getpid() != caller:
                os.write(child_began, b"x")
                os._exit(3)
            os.read(began, 1)
            return run_block(unit)

        monkeypatch.setattr(jsm2lab.montecarlo, "_run_block", block)
        try:
            # two seed blocks, so the run forks one child
            rc = main(
                ["simulate", "--n", "6", "--k", "2", "--m", "4", "--s", "1",
                 "--trials", "300", "--jobs", "2"]
            )
        finally:
            os.close(began)
            os.close(child_began)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: worker process") and captured.err.count("\n") == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_warning_line_without_fork(self, monkeypatch, capsys):
        argv = ["simulate", "--n", "6", "--k", "2", "--m", "4", "--s", "1", "--trials", "300"]
        assert main(argv + ["--jobs", "1"]) == 0
        expected = capsys.readouterr().out
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert main(argv + ["--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err.startswith("warning: no os.fork") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "8", "--k", "2", "--m", "5", "--s", "2", "--snr", "4"],
        ["find-m", "--n", "10", "--k", "2", "--s", "8", "--snr", "30", "--target", "0.1"],
    ])
    def test_jobs_above_the_usable_cpus_warn_once_and_fork_no_more(self, argv, monkeypatch, capsys):
        # three seed blocks per map, and one usable CPU: nothing is forked
        argv = argv + ["--trials", "600", "--seed", "9"]
        assert main(argv + ["--jobs", "1"]) == 0
        expected = capsys.readouterr().out

        def fork():
            raise AssertionError("forked a worker on one usable CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", fork)
        assert main(argv + ["--jobs", "1000"]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == "warning: jobs=1000 exceeds the usable CPUs, 1; workers are capped at 1\n"

    def test_a_refused_fork_exits_1_with_every_child_reaped(self, monkeypatch, capsys):
        forks, fork = [], os.fork

        def second_fork_refused():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "fork", second_fork_refused)
        # three seed blocks on three CPUs: two forks, and the second fails
        rc = main(["simulate", "--n", "6", "--k", "2", "--m", "4", "--s", "1",
                   "--trials", "600", "--jobs", "3"])
        captured = capsys.readouterr()
        assert rc == 1 and len(forks) == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "flags, code",
        [
            # an explicit 0 reaches the checks instead of meaning "default"
            (["--trials", "0"], 2),
            (["--jobs", "0"], 2),
            (["--cap", "0"], 2),  # the budget is the decoder's constant, no flag
            (["--jobs", "-1"], 2),
            (["--rho", "inf"], 2),
            (["--seed", "-3"], 2),
            # one value each that a flag's type, choices or converter refuses
            (["--n", "6.5"], 2),
            (["--snr", "ten"], 2),
            (["--amplitude", "gaussian"], 2),
            # sweep's flags, which simulate does not read
            (["--axis", "q"], 2),
            (["--values", "1,x"], 2),
            (["--fix-signal", "maybe"], 2),
        ],
    )
    def test_simulate_refuses_bad_run_values(self, flags, code, tmp_path, capsys):
        # refused alike as a flag and as a config-file entry
        entries = [("n", "6"), ("k", "2"), ("m", "4"), ("s", "1"), ("trials", "10")]
        entries += [(flag[2:], value) for flag, value in zip(flags[::2], flags[1::2])]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in entries))
        errors = []
        for argv in (
            ["simulate"] + [token for key, value in entries for token in (f"--{key}", value)],
            ["simulate", "--config", str(cfg)],
        ):
            assert main(argv) == code
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1
            errors.append(captured.err)
        flag_error, file_error = errors
        if flag_error.startswith("error: unrecognized arguments:"):
            # a key that names no flag is refused at its file line
            flag_error = f"error: {cfg}:{len(entries)}: unknown key {flags[0][2:]!r} for simulate\n"
        elif flag_error.startswith("error: argument --"):
            # a value the parser refuses names the file line it came from
            flag_error = flag_error.replace("error:", f"error: {cfg}:{len(entries)}:", 1)
        assert file_error == flag_error

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["bounds", "--n", "8", "--k", "2", "--m", "4", "--s", "1"], ["--trials", "0"]),
            (["bounds", "--n", "8", "--k", "2", "--m", "4", "--s", "1"], ["--jobs", "0"]),
            (["verify", "--trials", "10"], ["--rho", "inf"]),
            (["verify", "--trials", "10"], ["--jobs", "-3"]),
            (["simulate", "--n", "8", "--k", "2", "--m", "4", "--s", "1", "--trials", "10"],
             ["--axis", "m", "--values", "3,4,5"]),
            # find-m's M is always K+1, whatever M is given
            (["find-m", "--n", "8", "--k", "2", "--s", "1", "--trials", "10", "--target", "0.5"],
             ["--m", "15"]),
            (["find-m", "--n", "8", "--k", "2", "--s", "1", "--trials", "10", "--target", "0.5"],
             ["--m", "2"]),
            (["sweep", "--n", "8", "--k", "2", "--s", "1", "--trials", "10", "--axis", "m",
              "--values", "3,4"], ["--target", "0.5"]),
            # a prefix of a flag does not stand for it
            (["verify", "--trials", "10"], ["--s", "3"]),
            (["simulate", "--n", "8", "--k", "2", "--m", "4", "--s", "1"], ["--tri", "10"]),
        ],
        ids=lambda v: v[0] if v[0][0] != "-" else "+".join(
            f"{key[2:]}={value}" for key, value in zip(v[::2], v[1::2])
        ),
    )
    def test_refuses_a_flag_the_command_does_not_read(self, argv, bad, tmp_path, capsys):
        # refused alike as a flag and as a config-file entry
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key[2:]} = {value}\n" for key, value in zip(bad[::2], bad[1::2])))
        expected = [
            f"error: unrecognized arguments: {' '.join(bad)}\n",
            f"error: {cfg}:1: unknown key {bad[0][2:]!r} for {argv[0]}\n",
        ]
        for run, error in zip((argv + bad, argv + ["--config", str(cfg)]), expected):
            assert main(run) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == error

    def test_readme_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        examples = [
            shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("jsm2lab ")
        ]
        assert {argv[1] for argv in examples} == set(jsm2lab.cli._COMMAND_FLAGS)
        for argv in examples:
            assert parse_config(argv[1:]).command == argv[1]

    @pytest.mark.parametrize("snr", ["0", "-1", "inf", "nan"])
    def test_bounds_refuses_a_non_positive_or_non_finite_snr(self, snr, capsys):
        rc = main(["bounds", "--n", "8", "--k", "2", "--s", "1", "--m", "4", "--snr", snr])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_bounds_clamps_a_bound_past_the_range_of_exp(self, capsys):
        # log_upper is 971.5 here, beyond the 709.78 at which math.exp overflows
        rc = main(["bounds", "--n", "3000", "--k", "300", "--m", "301", "--s", "1", "--snr", "1"])
        assert rc == 0
        header, row = capsys.readouterr().out.split("\n")[:2]
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["log_upper"]) > 709.8
        assert cells["upper_clamped"] == "1.0"

    @pytest.mark.parametrize(
        "flags, leaves_range",
        [
            ("--snr 1e-20", False),
            ("--snr 1e300", False),
            ("--xmin2 1e-300 --snr 10", False),
            ("--snr 1e-300", True),  # t^2 underflows, so nu2 divides by zero
            ("--snr 10 --rho 1e20", False),
            ("--xmin2 1e200 --snr 1", False),  # rescalings of --xmin2 1 --snr 1
            ("--xmin2 1e-200 --snr 1", False),
        ],
    )
    def test_closed_forms_out_of_float_range(self, flags, leaves_range, tmp_path, capsys):
        point = ["--n", "6", "--k", "2", "--s", "1", *flags.split()]
        rc = main(["bounds", "--m", "4", *point])
        captured = capsys.readouterr()
        if leaves_range:
            assert rc == 2
            assert captured.out == ""
            assert captured.err.startswith("error: closed forms leave float range")
            assert captured.err.count("\n") == 1
        else:
            assert rc == 0
            assert captured.err == ""
            bound_header, bound_row, suff_header, suff_row = captured.out.splitlines()[:4]
            cells = dict(zip(f"{bound_header},{suff_header}".split(","), f"{bound_row},{suff_row}".split(",")))
            snr_min = float(cells["xmin2"]) / float(cells["sigma2"])
            for name, cell in cells.items():
                # Corollary 2's cells are NaN below SNR_min = 1, by design
                assert math.isfinite(float(cell)) or (name.startswith("m_cor2") and snr_min < 1.0), name
        # the sweep computes only the upper bound, which stays in range at every point
        out = tmp_path / "grid.csv"
        argv = ["sweep", *point, "--trials", "4", "--axis", "m", "--values", "3,4", "--out", str(out)]
        assert main(argv) == 0
        errors = [row["error"] for row in csv.DictReader(out.read_text().splitlines())]
        assert errors == ["", ""]

    def test_sweep_refuses_a_zero_snr_grid_value(self, capsys):
        rc = main(
            ["sweep", "--n", "8", "--k", "2", "--s", "1", "--m", "4", "--trials", "10",
             "--axis", "snr", "--values", "10,0"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("axis", ["q", "delta"])
    def test_sweep_refuses_an_unknown_axis(self, axis, capsys):
        rc = main(
            ["sweep", "--n", "8", "--k", "2", "--s", "1", "--m", "4", "--trials", "10",
             "--axis", axis, "--values", "1,2"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flags", [["--axis", "q"], ["--values", "1,x"]], ids=["axis", "values"])
    def test_sweep_refuses_a_bad_grid_flag_value(self, flags, tmp_path, capsys):
        # refused alike as a flag and as a config-file entry, which names its line
        argv = ["sweep", "--n", "8", "--k", "2", "--s", "1", "--m", "4", "--trials", "10"]
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"{flags[0][2:]} = {flags[1]}\n")
        errors = []
        for run in (argv + flags, argv + ["--config", str(cfg)]):
            assert main(run) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            errors.append(captured.err)
        assert errors[0].startswith(f"error: argument {flags[0]}:")
        assert errors[1] == errors[0].replace("error:", f"error: {cfg}:1:", 1)

    @pytest.mark.parametrize("value", ["inf", "nan", "3.7"])
    @pytest.mark.parametrize("m_flag", [["--m", "4"], []], ids=["m-given", "m-from-values"])
    def test_sweep_refuses_a_non_integer_grid_value(self, value, m_flag, capsys):
        # ProblemParams is the one check of a dimension, given or seeded
        rc = main(
            ["sweep", "--n", "8", "--k", "2", "--s", "1", "--trials", "10",
             "--axis", "m", "--values", value] + m_flag
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("trials", ["-5", "0"])
    def test_verify_refuses_fewer_than_one_trial(self, trials, capsys):
        rc = main(["verify", "--seed", "7", "--trials", trials])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_verify_refuses_a_negative_seed(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("seed = -3\n")
        for argv in (["verify", "--seed", "-3"], ["verify", "--config", str(cfg)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_verify_keeps_its_sample_floor_for_one_trial(self, capsys):
        assert main(["verify", "--seed", "7", "--trials", "1"]) == 0
        assert capsys.readouterr().out.startswith("name,observed,reference,margin,status")
        # at 2,000 samples a fixed 2% band on mgf_empirical failed seeds 5,
        # 9, 21, 22, 23, 36 and 38; its five-sigma band fails none
        failed = [s for s in range(40) if main(["verify", "--seed", str(s), "--trials", "1"]) != 0]
        assert failed == []

    def test_verify_reports_an_error_of_its_sampler_thread(self, monkeypatch, capsys):
        def fail(*args):
            raise DomainError("rank-deficient Gaussian block encountered")

        monkeypatch.setattr(jsm2lab.cli, "sample_z_correct", fail)
        before = threading.active_count()
        assert main(["verify", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rank-deficient Gaussian block encountered\n"
        assert threading.active_count() == before

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_verify_joins_its_sampler_thread_when_the_caller_raises(self, error, monkeypatch):
        # the thread's sampler is still running when the caller's first one raises
        monkeypatch.setattr(jsm2lab.cli, "sample_z_correct", _late(jsm2lab.cli.sample_z_correct, 0.2))

        def fail(*args):
            raise error("stop")

        monkeypatch.setattr(jsm2lab.cli, "sample_quadform", fail)
        before = threading.active_count()
        with pytest.raises(error, match="stop"):
            main(["verify", "--trials", "1"])
        assert threading.active_count() == before

    def test_verify_rows_do_not_depend_on_which_thread_finishes_first(self, monkeypatch):
        expected = jsm2lab.cli._verify_rows(7, 20000)
        monkeypatch.setattr(jsm2lab.cli, "sample_z_correct", _late(jsm2lab.cli.sample_z_correct, 0.05))
        assert jsm2lab.cli._verify_rows(7, 20000) == expected
        monkeypatch.undo()
        for name in ("sample_quadform", "sample_z_incorrect", "laurent_massart_check"):
            monkeypatch.setattr(jsm2lab.cli, name, _late(getattr(jsm2lab.cli, name), 0.05))
        assert jsm2lab.cli._verify_rows(7, 20000) == expected

    def test_fourth_moment_squares_twice_like_pow(self):
        # Squaring twice rounds differently from ** 4, but only in the last bits,
        # also where the mean offset dwarfs the spread.
        rng = np.random.default_rng(24)
        for i in range(1000):
            offset = (0.0, 3.0, 1e4, 1e8)[i % 4]
            draws = offset + rng.standard_normal(int(rng.integers(2, 3000))) * rng.uniform(0.1, 10.0)
            if i % 3 == 0:
                draws = offset + np.square(draws - offset)  # skewed, chi-square-like
            dev = draws - draws.mean()
            expected = np.mean(dev**4)
            assert jsm2lab.cli._fourth_central_moment(draws) == pytest.approx(expected, rel=1e-12)

    def test_exit_code_4_on_budget(self, capsys):
        rc = main(
            ["simulate", "--n", "40", "--k", "10", "--m", "20", "--s", "1", "--trials", "4"]
        )
        assert rc == 4
        assert "error:" in capsys.readouterr().err

    def test_exit_code_1_on_unwritable_out(self, tmp_path, monkeypatch, capsys):
        # the output is opened before any work: no run, nothing on stdout
        def no_run(*args, **kwargs):
            raise AssertionError("the run started before --out was opened")

        monkeypatch.setattr(jsm2lab.cli, "sweep", no_run)
        (tmp_path / "point.csv.meta.json").mkdir()
        point = ["--n", "16", "--k", "2", "--m", "8", "--s", "2"]
        for argv in (
            ["bounds"] + point + ["--out", "/nonexistent-dir/x.csv"],
            ["sweep", "--n", "16", "--k", "2", "--s", "2", "--axis", "m", "--values", "3,5,7,9",
             "--trials", "20000", "--out", "/nonexistent-dir/g.csv"],
            # a directory in place of the CSV, and in place of its sidecar
            ["simulate"] + point + ["--out", str(tmp_path)],
            ["simulate"] + point + ["--out", str(tmp_path / "point.csv")],
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1
