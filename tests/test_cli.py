"""Black-box CLI tests: CSV schemas, exit codes, determinism."""

import math

import numpy as np
import pytest

from nlshaping.cli import _grid, format_cell, main

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

        for name in ("mi_curve", "optimize_mb", "optimize_tailored",
                     "power_sweep", "estimate_c"):
            monkeypatch.setattr(cli, name, no_compute)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--out", out])
        assert exc.value.code == 2
        assert "error: argument --out" in capsys.readouterr().err

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


@pytest.fixture(scope="module")
def curve(tmp_path_factory):
    out = tmp_path_factory.mktemp("curve") / "c.csv"
    assert run_cli(["mi-curve", "--order", "16", "--snr-min", "10",
                    "--snr-max", "11", "--snr-step", "0.5",
                    "--delta-mi", "--out", str(out)]) == 0
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
                        "--delta-mi", "--out", str(again)]) == 0
        assert payload(first) == payload(again)

    def test_family_subset_matches_full_run_with_one_mb_search(
        self, curve, tmp_path, monkeypatch
    ):
        from nlshaping import nl_model

        calls = []
        real = nl_model.optimize_mb

        def counting(*args, **kwargs):
            calls.append(args[1].snr_gauss_db)
            return real(*args, **kwargs)

        monkeypatch.setattr(nl_model, "optimize_mb", counting)
        out = tmp_path / "subset.csv"
        assert run_cli(["mi-curve", "--order", "16", "--snr-min", "10",
                        "--snr-max", "11", "--snr-step", "0.5",
                        "--families", "opt,mb", "--out", str(out)]) == 0
        assert calls == [10.0, 10.5, 11.0]
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
        metadata, _, _ = tables["opt"]
        assert "nu1" in metadata and "nu2" in metadata
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
