"""Black-box CLI tests: CSV schemas, exit codes, determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlshaping
from nlshaping import cli
from nlshaping.cli import _grid, default_probes, format_cell, main
from nlshaping.shaping import excess_kurtosis, mb_pmf

TINY_CFG = """\
# single-channel regression link
channels = 1
samples_per_symbol = 4
symbols_per_channel = 8192
steps = 100
seed = 11
"""


def run_cli(args):
    return main(args)


def read_csv(path):
    metadata, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            metadata[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return metadata, header, rows


def payload(path):
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["mi-curve", "--order", "16"])  # missing --snr-min/max
        assert exc.value.code == 2

    def test_unknown_family_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["mi-curve", "--order", "16", "--snr-min", "10",
                     "--snr-max", "10", "--families", "bogus"])
        assert exc.value.code == 2

    def test_repeated_family_is_2(self, capsys):
        # power_sweep seeds each run by family name, so a repeat is refused
        # before any compute.
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--order", "16", "--families", "opt,gaussian,opt",
                     "--power-min", "0", "--power-max", "0"])
        assert exc.value.code == 2
        assert "listed twice" in capsys.readouterr().err

    def test_numerical_failure_is_1(self, tmp_path, capsys):
        cfg = tmp_path / "link.cfg"
        cfg.write_text(TINY_CFG + "gamma_per_w_km = 0\n", encoding="utf-8")
        code = run_cli(["estimate-c", "--config", str(cfg), "--probe-power", "6"])
        assert code == 1
        assert "no measurable NLI" in capsys.readouterr().err

    def test_config_error_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "link.cfg"
        cfg.write_text("channels = 1\nbogus_key = 3\n", encoding="utf-8")
        code = run_cli(["simulate", "--config", str(cfg),
                        "--power-min", "0", "--power-max", "0"])
        assert code == 1
        assert "link.cfg:2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--order", "16", "--power-min", "0", "--power-max", "0"],
        ["estimate-c", "--order", "16"],
    ])
    def test_duplicate_config_key_is_1_before_compute(self, argv, tmp_path, monkeypatch,
                                                      capsys):
        from nlshaping import ssfm

        def no_compute(*args, **kwargs):
            raise AssertionError("compute ran on a config with a duplicate key")

        for name in ("build_modulations", "power_sweep", "estimate_c", "default_probes"):
            monkeypatch.setattr(cli, name, no_compute)
        for name in ("generate_wdm", "propagate"):
            monkeypatch.setattr(ssfm, name, no_compute)
        cfg = tmp_path / "link.cfg"
        cfg.write_text(TINY_CFG + "steps = 400\n", encoding="utf-8")
        assert run_cli(argv + ["--config", str(cfg)]) == 1
        assert f"{cfg}:7: duplicate key 'steps' (first set on line 5)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--order", "16", "--power-min", "0", "--power-max", "0"],
        ["estimate-c", "--order", "16"],
    ])
    @pytest.mark.parametrize("config, message", [
        ("missing.cfg", "'missing.cfg' does not exist"),
        (".", "'.' is a directory"),
    ])
    def test_bad_config_is_2_before_compute(self, argv, config, message, tmp_path,
                                            monkeypatch, capsys):
        # Both ended in a traceback from open() in read_config.
        from nlshaping import ssfm

        def no_compute(*args, **kwargs):
            raise AssertionError("compute ran before --config was checked")

        for name in ("build_modulations", "power_sweep", "estimate_c", "default_probes"):
            monkeypatch.setattr(cli, name, no_compute)
        for name in ("generate_wdm", "propagate"):
            monkeypatch.setattr(ssfm, name, no_compute)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--config", config])
        assert exc.value.code == 2
        assert f"error: argument --config: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mi-curve", "--order", "16", "--snr-min", "10", "--snr-max", "10"],
        ["pmf", "--order", "16", "--snr", "18", "--family", "mb"],
        ["simulate", "--order", "16", "--families", "mb",
         "--power-min", "0", "--power-max", "0"],
        ["estimate-c", "--order", "16"],
    ])
    @pytest.mark.parametrize("out", ["missing-dir/x.csv", "."])
    def test_bad_out_fails_before_compute(self, argv, out, tmp_path, monkeypatch,
                                          capsys):
        from nlshaping import cli

        def no_compute(*args, **kwargs):
            raise AssertionError("compute ran before --out was checked")

        for name in ("mi_curve", "power_sweep", "estimate_c"):
            monkeypatch.setattr(cli, name, no_compute)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--out", out])
        assert exc.value.code == 2
        assert "error: argument --out" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["mi-curve", "--order", "100", "--snr-min", "10", "--snr-max", "10"],
         "argument --order: invalid choice: 100"),
        (["pmf", "--order", "32", "--snr", "18", "--family", "mb"],
         "argument --order: invalid choice: 32"),
        (["simulate", "--order", "4", "--power-min", "0", "--power-max", "0"],
         "argument --order: invalid choice: 4"),
        (["estimate-c", "--order", "8192"], "argument --order: invalid choice: 8192"),
        (["mi-curve", "--order", "16", "--snr-min", "11", "--snr-max", "10"],
         "--snr-max 10 is below --snr-min 11"),
        (["mi-curve", "--order", "16", "--snr-min", "10", "--snr-max", "11",
          "--snr-step", "0"], "--snr-step must be positive, got 0"),
        (["mi-curve", "--order", "16", "--snr-min", "nan", "--snr-max", "10"],
         "argument --snr-min: must be finite, got 'nan'"),
        (["mi-curve", "--order", "16", "--snr-min", "10", "--snr-max", "10",
          "--c", "inf"], "argument --c: must be finite, got 'inf'"),
        (["pmf", "--order", "16", "--snr=-inf", "--family", "opt"],
         "argument --snr: must be finite, got '-inf'"),
        (["simulate", "--order", "16", "--power-min", "nan", "--power-max", "0"],
         "argument --power-min: must be finite, got 'nan'"),
        (["simulate", "--order", "16", "--power-min", "1", "--power-max", "0"],
         "--power-max 0 is below --power-min 1"),
        (["simulate", "--order", "16", "--power-min", "0", "--power-max", "1",
          "--power-step", "-0.5"], "--power-step must be positive, got -0.5"),
        (["simulate", "--order", "16", "--power-min", "0", "--power-max", "0",
          "--cal-snr", "nan"], "argument --cal-snr: must be finite, got 'nan'"),
        (["estimate-c", "--probe-power", "abc"],
         "argument --probe-power: invalid float value: 'abc'"),
        (["mi-curve", "--order", "16", "--snr-min", "17.5", "--snr-max", "18",
          "--snr-step", "1e-9"], "gives 500000000 grid points; at most 10000 are allowed"),
        (["mi-curve", "--order", "16", "--snr-min", "0", "--snr-max", "1",
          "--snr-step", "1e-320"], "gives inf grid points"),
        (["simulate", "--order", "16", "--power-min", "0", "--power-max", "1",
          "--power-step", "1e-4"], "gives 10001 grid points; at most 10000 are allowed"),
        (["simulate", "--power-min", "-1e3", "--power-max", "0", "--power-step", "1e-4"],
         "gives 10000001 grid points; at most 10000 are allowed"),
        (["mi-curve", "--order", "64", "--c=1.5", "--snr-min", "18", "--snr-max", "18"],
         "argument --c: c must be in [0, 1), got 1.5"),
        (["pmf", "--order", "16", "--c=-2", "--snr", "0", "--family", "mb"],
         "argument --c: c must be in [0, 1), got -2.0"),
        (["simulate", "--order", "16", "--c", "-1e-3", "--power-min", "0", "--power-max", "0"],
         "argument --c: c must be in [0, 1), got -0.001"),
        # A negative seed failed in the first run, after the design step.
        (["simulate", "--order", "16", "--power-min", "0", "--power-max", "0", "--seed", "-1"],
         "argument --seed: must be at least 0, got -1"),
        (["estimate-c", "--seed", "-3"], "argument --seed: must be at least 0, got -3"),
    ])
    def test_bad_argument_is_2_before_compute(self, argv, message, monkeypatch, capsys):
        def no_compute(*args, **kwargs):
            raise AssertionError("compute ran before the arguments were checked")

        for name in ("square_qam", "mi_curve", "build_modulations", "power_sweep",
                     "estimate_c", "default_probes"):
            monkeypatch.setattr(cli, name, no_compute)
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("symbols_per_channel = 4096", "symbols_per_channel = 4096 is too few"),
        ("alpha_db_per_km = -0.2", "alpha_db_per_km must be at least 0 (span loss >= 0 dB)"),
        ("gamma_per_w_km = nan", "gamma_per_w_km must be finite"),
        ("span_km = nan", "span_km must be finite"),
        ("edfa_nf_db = -40", "edfa_nf_db must be at least 0 dB (noise factor F >= 1), got -40.0"),
    ])
    @pytest.mark.parametrize("command", [
        ["simulate", "--families", "gaussian", "--power-min", "0", "--power-max", "0"],
        ["estimate-c"],
    ])
    def test_unmeasurable_link_is_1_before_propagate(self, command, line, message,
                                                     tmp_path, monkeypatch, capsys):
        from nlshaping import ssfm

        def no_link(*args, **kwargs):
            raise AssertionError("the link ran before it was checked")

        for name in ("generate_wdm", "propagate"):
            monkeypatch.setattr(ssfm, name, no_link)
        # The line replaces TINY_CFG's own setting of its key, if any: a
        # repeated key is an error of its own.
        key = line.partition("=")[0]
        kept = [ln for ln in TINY_CFG.splitlines(keepends=True) if not ln.startswith(key)]
        cfg = tmp_path / "link.cfg"
        cfg.write_text("".join(kept) + line + "\n", encoding="utf-8")
        assert run_cli(command + ["--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mi-curve", "--order", "16", "--snr-min", "10", "--snr-max", "10"],
        ["pmf", "--order", "16", "--snr", "18", "--family", "mb"],
        ["simulate", "--order", "16", "--families", "mb",
         "--power-min", "0", "--power-max", "0"],
        ["estimate-c", "--order", "16"],
    ])
    def test_compute_error_is_1(self, argv, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise ValueError("no optimum")

        for name in ("mi_curve", "power_sweep", "estimate_c"):
            monkeypatch.setattr(cli, name, fail)
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {argv[0]} failed: no optimum\n"
        assert captured.out == ""

    @pytest.mark.parametrize("line, argv, message", [
        ("symbols_per_channel = 4096\n", ["--power-min", "0", "--power-max", "0"],
         "symbols_per_channel = 4096 is too few to measure: need 5000, 10000 samples "
         "over the two polarizations"),
        ("", ["--power-min", "0", "--power-max", "0.001", "--power-step", "0.0004"],
         "launch powers 0.0 and 0.0004 dBm round to the same milli-dBm seed key; "
         "space the grid by at least 0.001 dB"),
    ], ids=["unmeasurable-link", "shared-seed-key"])
    def test_sweep_checks_run_before_the_design(self, line, argv, message, tmp_path,
                                                 monkeypatch, capsys):
        # power_sweep's own checks, with its messages and exit code 1,
        # before build_modulations designs a pmf.
        designs = []
        monkeypatch.setattr(cli, "mi_curve", lambda *args: designs.append(args))
        kept = [ln for ln in TINY_CFG.splitlines(keepends=True)
                if not (line and ln.startswith(line.partition("=")[0]))]
        cfg = tmp_path / "link.cfg"
        cfg.write_text("".join(kept) + line, encoding="utf-8")
        assert run_cli(["simulate", "--config", str(cfg), "--order", "4096",
                        "--families", "opt", *argv]) == 1
        assert capsys.readouterr().err == f"error: simulate failed: {message}\n"
        assert designs == []

    def test_search_cap_in_a_worker_is_1(self, monkeypatch, capsys):
        from nlshaping import nl_model

        monkeypatch.setattr(nl_model, "_TAILORED_MAXFEV", 3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert run_cli(["mi-curve", "--order", "16", "--snr-min", "10",
                        "--snr-max", "11", "--snr-step", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: mi-curve failed: tailored-family search")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_success_is_0(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli(["mi-curve", "--order", "16", "--snr-min", "10",
                        "--snr-max", "10", "--out", str(out)]) == 0

    def test_default_output_is_stdout(self, capsys):
        assert run_cli(["mi-curve", "--order", "16", "--snr-min", "10",
                        "--snr-max", "10"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("# tool: nlshaping")
        assert "snr_gauss_db,family," in captured


# Required arguments of each subcommand, with which one numeric option at
# a time is given a negative number in exponent form.
REQUIRED = {
    "mi-curve": ["--snr-min", "0", "--snr-max", "0"],
    "pmf": ["--snr", "0", "--family", "mb"],
    "simulate": ["--power-min", "0", "--power-max", "0"],
    "estimate-c": [],
}


@pytest.mark.parametrize("command, option", [
    ("mi-curve", "--snr-min"), ("mi-curve", "--snr-max"), ("mi-curve", "--snr-step"),
    ("pmf", "--snr"), ("simulate", "--cal-snr"), ("simulate", "--power-min"),
    ("simulate", "--power-max"), ("simulate", "--power-step"), ("estimate-c", "--probe-power"),
])
def test_negative_exponent_reaches_its_option(command, option):
    # argparse on its own reads -1e3 as an unknown option on Python 3.11.
    args = cli.build_parser().parse_args([command, *REQUIRED[command], option, "-1e3"])
    assert getattr(args, option[2:].replace("-", "_")) == -1000.0


def test_help_before_a_negative_number_prints_help(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["simulate", "--help", "-1e3"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: nlshaping simulate")


class TestGrid:
    @pytest.mark.parametrize("lo, hi, step", [
        (15.0, 20.0, 0.3), (0.0, 0.3, 0.1), (0.0, 1.0, 0.1), (-3.0, 7.0, 0.7),
        (17.5, 18.0, 0.5), (4.0, 4.0, 1.0),
    ])
    def test_never_passes_maximum(self, lo, hi, step):
        grid = _grid(lo, hi, step)
        assert grid[0] == lo
        assert grid[-1] <= hi
        # the next step would pass hi, beyond rounding
        assert lo + len(grid) * step > hi + 1e-9 * step

    def test_exact_steps_unchanged(self):
        assert _grid(17.5, 18.0, 0.5) == [17.5, 18.0]
        assert _grid(15.0, 20.0, 0.3)[-1] == pytest.approx(19.8)

    def test_cap_admits_a_full_grid(self, monkeypatch, capsys):
        sizes = []

        def no_design(constellation, c, grid, families):
            sizes.append(len(grid))
            return []

        monkeypatch.setattr(cli, "mi_curve", no_design)
        assert run_cli(["mi-curve", "--order", "16", "--snr-min", "0",
                        "--snr-max", "0.9999", "--snr-step", "1e-4"]) == 0
        assert sizes == [cli.MAX_GRID_POINTS]


@pytest.fixture(scope="module")
def curve(tmp_path_factory):
    out = tmp_path_factory.mktemp("curve") / "c.csv"
    assert run_cli(["mi-curve", "--order", "16", "--snr-min", "10",
                    "--snr-max", "11", "--snr-step", "0.5",
                    "--out", str(out)]) == 0
    return read_csv(out), out


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    base = tmp_path_factory.mktemp("pmf")
    out = {}
    for family in ("mb", "opt"):
        path = base / f"{family}.csv"
        assert run_cli(["pmf", "--order", "256", "--snr", "18",
                        "--family", family, "--out", str(path)]) == 0
        out[family] = read_csv(path)
    return out


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    base = tmp_path_factory.mktemp("sim")
    cfg = base / "link.cfg"
    cfg.write_text(TINY_CFG, encoding="utf-8")
    out = base / "sweep.csv"
    args = ["simulate", "--config", str(cfg), "--order", "16",
            "--families", "uniform,gaussian", "--power-min", "0",
            "--power-max", "1", "--power-step", "1",
            "--seed", "7", "--out", str(out)]
    assert run_cli(args) == 0
    return args, out, base


class TestMiCurveCsv:
    def test_schema_and_row_count(self, curve):
        (metadata, header, rows), _ = curve
        assert header == ["snr_gauss_db", "family", "lambda", "nu1", "nu2",
                          "kurtosis", "effective_snr_db", "mi_4d", "delta_mi_4d"]
        assert len(rows) == 3 * 3  # three grid points, three families
        assert metadata["quadrature_order"] == "16"

    def test_family_parameter_cells(self, curve):
        (_, _, rows), _ = curve
        for row in rows:
            family = row[1]
            if family == "uniform":
                assert row[2] == row[3] == row[4] == ""
            elif family == "mb":
                assert row[2] != "" and row[3] == row[4] == ""
            else:
                assert row[2] == "" and row[3] != "" and row[4] != ""

    def test_delta_mi_identity(self, curve):
        (_, _, rows), _ = curve
        for row in rows:
            snr = float(row[0])
            mi = float(row[7])
            delta = float(row[8])
            assert delta == pytest.approx(mi - 2 * math.log2(1 + 10 ** (snr / 10)),
                                          abs=1e-10)

    def test_rows_sorted_and_dominant(self, curve):
        (_, _, rows), _ = curve
        by_snr = {}
        for row in rows:
            by_snr.setdefault(row[0], {})[row[1]] = float(row[7])
        for snr, families in by_snr.items():
            assert families["opt"] >= families["mb"] - 1e-9
            assert families["mb"] >= families["uniform"] - 1e-9
        keys = [(float(r[0]), r[1]) for r in rows]
        assert keys == sorted(keys, key=lambda t: (t[0], ["uniform", "mb", "opt"].index(t[1])))

    def test_round_trip_serialization(self, curve):
        (_, _, rows), _ = curve
        for row in rows:
            for cell in row[2:]:
                if cell:
                    assert format_cell(float(cell)) == cell

    def test_payload_deterministic(self, curve, tmp_path):
        _, first = curve
        again = tmp_path / "again.csv"
        assert run_cli(["mi-curve", "--order", "16", "--snr-min", "10",
                        "--snr-max", "11", "--snr-step", "0.5",
                        "--out", str(again)]) == 0
        assert payload(first) == payload(again)

    def test_family_subset_matches_full_run_with_one_mb_search(
        self, curve, tmp_path, mb_searches
    ):
        out = tmp_path / "subset.csv"
        assert run_cli(["mi-curve", "--order", "16", "--snr-min", "10",
                        "--snr-max", "11", "--snr-step", "0.5",
                        "--families", "opt,mb", "--out", str(out)]) == 0
        # Forked workers search part of the grid and log in no fixed order.
        assert sorted(snr for _, snr in mb_searches()) == [10.0, 10.5, 11.0]
        (_, _, full_rows), _ = curve
        _, _, rows = read_csv(out)
        assert rows == [r for r in full_rows if r[1] != "uniform"]

    def test_uniform_only_with_c_zero_is_plain_awgn(self, tmp_path):
        from nlshaping import mi_awgn_2d, normalized, square_qam, uniform_pmf

        out = tmp_path / "u.csv"
        assert run_cli(["mi-curve", "--order", "64", "--snr-min", "12",
                        "--snr-max", "12", "--families", "uniform",
                        "--c", "0", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 1
        c = square_qam(64)
        pmf = uniform_pmf(c)
        want = 2 * mi_awgn_2d(normalized(c, pmf), pmf, 12.0)
        assert float(rows[0][7]) == pytest.approx(want, abs=1e-9)


class TestPmfCsv:
    def test_probabilities_sum_to_one(self, tables):
        for family, (_, _, rows) in tables.items():
            total = sum(float(r[4]) for r in rows)
            assert total == pytest.approx(1.0, abs=1e-9)
            assert len(rows) == 256

    def test_ring_constant(self, tables):
        for family, (_, _, rows) in tables.items():
            by_ring = {}
            for r in rows:
                by_ring.setdefault(r[3], set()).add(r[4])
            assert all(len(v) == 1 for v in by_ring.values())

    def test_opt_suppresses_tail_against_mb(self, tables):
        # The optimized pmf trades entropy for kurtosis: lighter outermost
        # ring and lower kurtosis than the MB table at the same point.
        def outer_mass(rows):
            outer = max(float(r[3]) for r in rows)
            return sum(float(r[4]) for r in rows if float(r[3]) == outer)

        def kurtosis(rows):
            p = np.array([float(r[4]) for r in rows])
            r2 = np.array([float(r[3]) for r in rows])
            return float(p @ r2**2 / (p @ r2) ** 2 - 2)

        (_, _, mb_rows) = tables["mb"]
        (_, _, opt_rows) = tables["opt"]
        assert outer_mass(opt_rows) < outer_mass(mb_rows)
        assert kurtosis(opt_rows) < kurtosis(mb_rows)

    def test_metadata_records_parameters(self, tables):
        # Each table lists its own family's parameters and no other's.
        metadata, _, _ = tables["opt"]
        assert "nu1" in metadata and "nu2" in metadata
        assert "lam" not in metadata
        assert float(metadata["kurtosis"]) < 0
        metadata, _, _ = tables["mb"]
        assert "lam" in metadata and float(metadata["lam"]) > 0
        assert "nu1" not in metadata and "nu2" not in metadata
        assert float(metadata["kurtosis"]) < 0


class TestSimulateCsv:
    def test_schema(self, sim):
        _, out, _ = sim
        metadata, header, rows = read_csv(out)
        assert header == ["launch_dbm", "family", "snr_db", "mi_4d", "kurtosis"]
        assert len(rows) == 4  # two powers, two families
        assert metadata["config.channels"] == "1"
        assert metadata["config.steps"] == "100"
        assert metadata["seed"] == "7"
        assert "split-step" in metadata["propagation"]

    def test_identical_seed_identical_payload(self, sim):
        args, out, base = sim
        again = base / "sweep2.csv"
        rerun = args[:-1] + [str(again)]
        assert run_cli(rerun) == 0
        assert payload(out) == payload(again)

    def test_power_grid_of_one(self, sim, tmp_path):
        _, _, base = sim
        out = tmp_path / "single.csv"
        cfg = base / "link.cfg"
        assert run_cli(["simulate", "--config", str(cfg), "--order", "16",
                        "--families", "uniform", "--power-min", "2",
                        "--power-max", "2", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0][1] == "uniform"


class TestEstimateCCsv:
    def test_r_squared_reported_in_range(self, tmp_path):
        # gamma at 4x the physical value makes NLI measurable even on the
        # tiny single-channel link, keeping this a fast contract test
        cfg = tmp_path / "link.cfg"
        cfg.write_text(TINY_CFG + "gamma_per_w_km = 4.8\n", encoding="utf-8")
        out = tmp_path / "fit.csv"
        code = run_cli(["estimate-c", "--config", str(cfg), "--probe-power", "9",
                        "--out", str(out)])
        assert code == 0
        metadata, header, rows = read_csv(out)
        assert header[0] == "row"
        probe_rows = [r for r in rows if r[0] == "probe"]
        summary = [r for r in rows if r[0] == "summary"]
        assert len(probe_rows) == 3 and len(summary) == 1
        r2 = float(summary[0][8])
        assert 0.0 <= r2 <= 1.0
        for row in probe_rows:
            assert float(row[4]) > 0.0


def fresh_lines(code: str, **env_vars: str | None) -> list[str]:
    """The lines a fresh interpreter prints running ``code`` on this
    checkout's package, with ``env_vars`` set in its environment (None
    removes a variable)."""
    src = str(Path(nlshaping.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    return proc.stdout.splitlines()


def fresh_run(code: str) -> tuple[set[str], int]:
    """(scipy, multiprocessing and concurrent modules loaded, ``os.fork``
    calls made) by a fresh interpreter running ``code``."""
    script = ("import os\nforks = []\nfork = os.fork\n"
              "os.fork = lambda: forks.append(1) or fork()\n"
              + code + "\nimport sys\nprint('MODULES:' + ' '.join(sorted("
              "m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent'))))"
              "\nprint('FORKS:', len(forks))")
    lines = fresh_lines(script)
    modules = next(x for x in lines if x.startswith("MODULES:"))[len("MODULES:"):].split()
    forks = int(next(x for x in lines if x.startswith("FORKS:")).split()[1])
    return set(modules), forks


class TestImportBudget:
    """scipy.optimize takes about 0.6 s to import and scipy.fft about 0.3 s.
    No command loads any scipy: the design commands and estimate-c's deep
    probe search with the package's own routines, and the link's FFTs go
    through numpy.fft. A single design point starts no worker process and
    does not import multiprocessing. Nothing imports concurrent.futures:
    parallel work runs in forked processes."""

    def test_package_import_loads_no_scipy(self):
        assert fresh_run("import nlshaping, nlshaping.cli") == (set(), 0)

    @pytest.mark.parametrize("argv", [
        ["mi-curve", "--order", "16", "--snr-min", "10", "--snr-max", "10"],
        ["pmf", "--order", "16", "--snr", "12", "--family", "opt"],
    ])
    def test_design_commands_load_no_scipy(self, argv, tmp_path):
        argv = argv + ["--out", str(tmp_path / "out.csv")]
        assert fresh_run(f"from nlshaping import cli\nassert cli.main({argv!r}) == 0") == (set(), 0)

    def test_grid_design_forks_one_worker_per_extra_cpu(self, tmp_path):
        argv = ["mi-curve", "--order", "16", "--snr-min", "10", "--snr-max", "12",
                "--out", str(tmp_path / "out.csv")]
        code = ("os.sched_getaffinity = lambda pid: {0, 1}\n"
                f"from nlshaping import cli\nassert cli.main({argv!r}) == 0\n"
                "import multiprocessing\nassert multiprocessing.active_children() == []")
        modules, forks = fresh_run(code)
        assert not any(m.startswith("scipy") for m in modules)
        assert forks == 1

    def test_simulate_loads_no_scipy(self, tmp_path):
        cfg = tmp_path / "link.cfg"
        cfg.write_text(TINY_CFG, encoding="utf-8")
        argv = ["simulate", "--config", str(cfg), "--order", "16", "--families", "opt",
                "--power-min", "0", "--power-max", "0", "--out", str(tmp_path / "sim.csv")]
        loaded, _ = fresh_run(f"from nlshaping import cli\nassert cli.main({argv!r}) == 0")
        assert not any(m.startswith("scipy") for m in loaded)

    def test_estimate_c_loads_no_scipy(self, tmp_path):
        # With scipy's entry set to None, any scipy import fails.
        cfg = tmp_path / "link.cfg"
        cfg.write_text(TINY_CFG, encoding="utf-8")
        argv = ["estimate-c", "--config", str(cfg), "--out", str(tmp_path / "fit.csv")]
        code = ("import sys\nsys.modules['scipy'] = None\n"
                f"from nlshaping import cli\nassert cli.main({argv!r}) == 0\n"
                "del sys.modules['scipy']")
        loaded, _ = fresh_run(code)
        assert not any(m.startswith("scipy") for m in loaded)

    def test_two_run_simulate_forks_once(self, tmp_path):
        # Two CPUs and two runs: the caller takes one and a forked worker
        # the other; the design point before them runs in the caller.
        cfg = tmp_path / "link.cfg"
        cfg.write_text(TINY_CFG, encoding="utf-8")
        argv = ["simulate", "--config", str(cfg), "--order", "16", "--families", "opt,gaussian",
                "--power-min", "0", "--power-max", "0", "--out", str(tmp_path / "sim.csv")]
        code = ("os.sched_getaffinity = lambda pid: {0, 1}\n"
                f"from nlshaping import cli\nassert cli.main({argv!r}) == 0\n"
                "import multiprocessing\nassert multiprocessing.active_children() == []")
        loaded, forks = fresh_run(code)
        assert not any(m.startswith("scipy") for m in loaded)
        assert forks == 1

    def test_physical_constants_equal_scipy(self):
        from scipy import constants

        from nlshaping import ssfm

        assert ssfm.LIGHT_SPEED == constants.c
        assert ssfm.PLANCK == constants.h


class TestOneBlasThread:
    """Imported before numpy, the package limits OpenBLAS to one thread
    unless the user set ``OPENBLAS_NUM_THREADS``, and the link's results do
    not depend on the BLAS thread count."""

    REPORT = "import os\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"

    def test_import_runs_one_blas_thread(self):
        code = ("import nlshaping\n" + self.REPORT
                + "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else '')")
        setting, threads = fresh_lines(code, OPENBLAS_NUM_THREADS=None)
        assert setting == "1"
        if not threads:
            pytest.skip("no /proc/self/task to count the threads")
        assert int(threads) == 1

    def test_user_setting_kept(self):
        assert fresh_lines("import nlshaping\n" + self.REPORT, OPENBLAS_NUM_THREADS="2") == ["2"]

    def test_numpy_first_keeps_its_pool(self):
        code = "import numpy\nimport nlshaping\n" + self.REPORT
        assert fresh_lines(code, OPENBLAS_NUM_THREADS=None) == ["None"]

    def test_link_bits_independent_of_thread_count(self):
        # generate_wdm's Parseval power sums 2^17 samples and the
        # receiver's least-squares gain 2^14 symbols a row: a BLAS dot of
        # more than 10^4 splits its sum over its threads.
        code = (
            "import hashlib\n"
            "from nlshaping import LinkConfig, estimate_snr, gaussian_modulation, generate_wdm, receive\n"
            "cfg = LinkConfig(channels=1, samples_per_symbol=4, symbols_per_channel=16384, steps=100)\n"
            "field = generate_wdm(cfg, gaussian_modulation(), 0.0, seed=5)\n"
            "rx = receive(field, cfg, 0)\n"
            "for out in (field.samples, rx):\n"
            "    print(hashlib.sha256(out.tobytes()).hexdigest())\n"
            "print(estimate_snr(rx, field.tx_symbols[0]).hex())"
        )
        one = fresh_lines(code, OPENBLAS_NUM_THREADS="1")
        assert fresh_lines(code, OPENBLAS_NUM_THREADS="2") == one


class TestDefaultProbes:
    @pytest.mark.parametrize("order", [256, 1024, 4096])
    def test_deep_probe_kurtosis(self, order):
        # 60 does not bracket the root here: the MB kurtosis at u = 60 is
        # -0.172 at 256QAM and -0.000 at 1024QAM.
        probe = default_probes(order)[2]
        assert probe.name == "mb_deep"
        kurt = excess_kurtosis(probe.constellation, probe.pmf)
        assert kurt == pytest.approx(-0.9, abs=1e-9)

    @pytest.mark.parametrize("order, hi", [(16, 60.0), (64, 60.0), (256, 240.0),
                                           (1024, 960.0), (4096, 3840.0)])
    def test_deep_rate_matches_brentq(self, order, hi, monkeypatch):
        # Oracle: scipy's brentq on the documented bracket [1e-3, hi]. The
        # bisection's midpoint lies within 1e-12 of the sign change and
        # brentq within its xtol of 2e-12 plus 4 eps of the root.
        from scipy.optimize import brentq

        from nlshaping.search import bisect

        roots = []
        monkeypatch.setattr(cli, "bisect", lambda *a, **k: roots.append(bisect(*a, **k)) or roots[-1])
        probe = default_probes(order)[2]
        constellation = probe.constellation
        pu = float(np.mean(constellation.sq_magnitudes))

        def kurt_at(u):
            return excess_kurtosis(constellation, mb_pmf(constellation, u / pu))

        u_deep = brentq(lambda u: kurt_at(u) + 0.9, 1e-3, hi)
        root, = roots
        assert abs(root - u_deep) <= 3e-12 + 4 * np.finfo(np.float64).eps * u_deep
        assert np.array_equal(probe.pmf.probs, mb_pmf(constellation, root / pu).probs)
        assert kurt_at(root) == pytest.approx(-0.9, abs=1e-9)

    def test_cap_names_the_order(self, monkeypatch):
        monkeypatch.setattr(cli, "DEEP_PROBE_U_CAP", 100.0)
        with pytest.raises(ValueError, match="256QAM"):
            default_probes(256)

    def test_estimate_c_runs_at_256qam(self, tmp_path):
        cfg = tmp_path / "link.cfg"
        cfg.write_text(TINY_CFG + "gamma_per_w_km = 4.8\n", encoding="utf-8")
        out = tmp_path / "fit.csv"
        assert run_cli(["estimate-c", "--config", str(cfg), "--order", "256",
                        "--probe-power", "9", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        kurtoses = [float(r[2]) for r in rows if r[0] == "probe"]
        assert kurtoses[2] == pytest.approx(-0.9, abs=1e-9)
