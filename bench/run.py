#!/usr/bin/env python3
"""One run of one nlshaping benchmark workload.

    python3 bench/run.py --workload design-1024 --seed 1 --seconds 5 --trace 0

Run it from the root of a source checkout: the program is imported from
``./src`` and nowhere else, so a directory without the sources exits with
code 2 and prints no result. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` each operation runs as a user runs it, unwrapped: a CLI
workload starts ``python -m nlshaping.cli`` per operation, and the library
workload calls ``nlshaping`` in this process. The end-to-end metrics come
from these runs. With ``--trace 1`` the same operations run once in this
process with every public function of the package wrapped (see
``spans.py``), and the per-layer metrics come from the spans.

Every run does whole rounds of its workload until ``--seconds`` have
passed, at least one. Outputs are checked against ``reference.py`` and
against properties the methods must have, never against stored output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

C = 0.69
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

# design-1024: a two-point ascending grid through 18 dB, all three families.
DESIGN_ORDER = 1024
DESIGN_ARGS = ["mi-curve", "--order", "1024", "--c", str(C),
               "--snr-min", "17.5", "--snr-max", "18", "--snr-step", "0.5"]
DESIGN_GRID = (17.5, 18.0)
# Optimizer tolerances, in the scaled units u = lam * P_u, v = (nu1 P_u, nu2 P_u^2)
# with P_u the uniform mean power of the raw grid: xatol 1e-6 for MB, 2e-4
# for the tailored simplex. Nudges go well beyond them.
MB_NUDGE_U = 2e-3
TAILORED_NUDGE_V = 1e-2
# Largest rise of the reference MI (bit/4D) a nudge may show: rounding of
# the 12-digit CSV parameters and of the quadrature sums.
NUDGE_MI_TOL = 1e-9
GAIN_AT_18DB = (0.05, 0.15)

# link-256: desk-scale default link, one launch power near the optimum.
LINK_ORDER = 256
LINK_FAMILIES = ("opt", "gaussian")
LINK_POWER_DBM = 4.0
LINK_CAL_SNR_DB = 18.0
DESK_SCALE = {"channels": 3.0, "symbols_per_channel": 16384.0,
              "samples_per_symbol": 8.0, "steps": 400.0}

# mc-check-256: operating points of acceptance criterion 2 and its tolerance.
MC_ORDER = 256
MC_SNRS_DB = (5.0, 10.0, 18.0)
MC_P_U = 2.0 * (MC_ORDER - 1) / 3.0
# (name, nu1, nu2) on the raw grid: uniform, MB at lam P_u = 1 as in
# criterion 2, and the tailored pmf near the 256QAM optimum at 18 dB.
MC_PMFS = (("uniform", 0.0, 0.0), ("mb", 1.0 / MC_P_U, 0.0), ("opt", -1.0e-3, 4.4e-5))
# 19 chunks of the estimator's 2^15: standard error about 0.0018 bit, so the
# 0.01 bit tolerance sits more than five standard errors out.
MC_SAMPLES = 19 * (1 << 15)
MC_TOL_BITS = 0.01

MI_TOL_4D = 1e-8      # 12 significant digits of a value near 12 bit/4D
REL_TOL = 1e-9

WORKLOADS = ("design-1024", "link-256", "mc-check-256")


class Checks:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def expect(self, ok: bool, what: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup_s() -> float:
    """Median wall time of a fresh interpreter importing the CLI module,
    which imports the whole package."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nlshaping.cli"], env=child_env(),
                       cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_cli(args: list[str]) -> str | None:
    """Run one CLI command in a fresh interpreter; its stdout, or None if it failed."""
    proc = subprocess.run([sys.executable, "-m", "nlshaping.cli", *args], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"nlshaping {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return proc.stdout


def run_cli_in_process(args: list[str]) -> str | None:
    from nlshaping import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.main(args)
    return buffer.getvalue() if status == 0 else None


def parse_csv(text: str) -> tuple[dict, list[dict]]:
    """(metadata, rows) of the CLI's CSV: '# key: value' lines, a header,
    then comma-separated rows."""
    metadata, lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            metadata[key] = value
        elif line:
            lines.append(line.split(","))
    header, body = lines[0], lines[1:]
    return metadata, [dict(zip(header, row)) for row in body]


def num(cell: str) -> float:
    return float(cell) if cell else 0.0


def close(a: float, b: float, abs_tol: float = 0.0, rel_tol: float = REL_TOL) -> bool:
    return math.isclose(a, b, abs_tol=abs_tol, rel_tol=rel_tol)


# --- design-1024 -------------------------------------------------------------

def design_reference(family: str, lam: float, nu1: float, nu2: float,
                     snr_gauss_db: float) -> tuple[float, float, float]:
    """(kurtosis, effective SNR in dB, mi_4d) of a family's parameters on
    the nonlinear model's effective channel, from the reference code."""
    probs = ref.shaped_pmf(DESIGN_ORDER, nu1, nu2) if family == "opt" else ref.shaped_pmf(DESIGN_ORDER, lam)
    kurt = ref.excess_kurtosis(DESIGN_ORDER, probs)
    eff = ref.effective_snr_db(snr_gauss_db, C, kurt)
    if family == "opt":
        return kurt, eff, 2.0 * ref.dense_mi_2d(DESIGN_ORDER, probs, eff)
    return kurt, eff, 2.0 * ref.pam_mi_2d(DESIGN_ORDER, lam, eff)


def check_design(text: str, checks: Checks) -> None:
    _, rows = parse_csv(text)
    checks.expect(len(rows) == 3 * len(DESIGN_GRID), f"design rows: {len(rows)}")
    p_u = 2.0 * (DESIGN_ORDER - 1) / 3.0
    by_point = {}
    for row in rows:
        snr, family = float(row["snr_gauss_db"]), row["family"]
        lam, nu1, nu2 = num(row["lambda"]), num(row["nu1"]), num(row["nu2"])
        mi_4d = float(row["mi_4d"])
        by_point[(snr, family)] = mi_4d
        where = f"design {family} at {snr} dB"
        kurt, eff, mi_ref = design_reference(family, lam, nu1, nu2, snr)
        checks.expect(close(float(row["kurtosis"]), kurt, abs_tol=1e-10), f"{where}: kurtosis")
        checks.expect(close(float(row["effective_snr_db"]), eff), f"{where}: effective SNR")
        checks.expect(close(float(row["delta_mi_4d"]), mi_4d - ref.gaussian_mi_4d(snr), abs_tol=MI_TOL_4D),
                      f"{where}: delta_mi_4d")
        checks.expect(abs(mi_4d - mi_ref) < MI_TOL_4D, f"{where}: mi_4d {mi_4d} vs reference {mi_ref}")
        if family == "mb":
            nudges = [(lam + s * MB_NUDGE_U / p_u, 0.0, 0.0) for s in (-1, 1)]
        elif family == "opt":
            dv1, dv2 = TAILORED_NUDGE_V / p_u, TAILORED_NUDGE_V / p_u**2
            nudges = [(0.0, nu1 + a * dv1, nu2 + b * dv2) for a, b in ((-1, 0), (1, 0), (0, -1), (0, 1))]
        else:
            nudges = []
        for n_lam, n_nu1, n_nu2 in nudges:
            nudged = design_reference(family, n_lam, n_nu1, n_nu2, snr)[2]
            checks.expect(nudged <= mi_ref + NUDGE_MI_TOL,
                          f"{where}: nudge to ({n_lam}, {n_nu1}, {n_nu2}) raises MI by {nudged - mi_ref}")
    for snr in DESIGN_GRID:
        uni, mb, opt = (by_point.get((snr, f), math.nan) for f in ("uniform", "mb", "opt"))
        checks.expect(opt >= mb - 1e-12 and mb >= uni - 1e-12,
                      f"design nesting at {snr} dB: {uni}, {mb}, {opt}")
    gain = by_point.get((18.0, "opt"), math.nan) - by_point.get((18.0, "mb"), math.nan)
    checks.expect(GAIN_AT_18DB[0] <= gain <= GAIN_AT_18DB[1], f"opt - mb gain at 18 dB: {gain}")


# --- link-256 ------------------------------------------------------------------

def link_args(seed: int) -> list[str]:
    return ["simulate", "--order", str(LINK_ORDER), "--c", str(C), "--cal-snr", str(LINK_CAL_SNR_DB),
            "--families", ",".join(LINK_FAMILIES), "--power-min", str(LINK_POWER_DBM),
            "--power-max", str(LINK_POWER_DBM), "--seed", str(seed)]


def reference_mb_design(order: int, c: float, snr_gauss_db: float) -> float:
    """MB rate maximizing the reference MI on the model's effective channel."""
    from scipy.optimize import minimize_scalar

    p_u = 2.0 * (order - 1) / 3.0

    def neg_mi(u: float) -> float:
        lam = u / p_u
        kurt = ref.excess_kurtosis(order, ref.shaped_pmf(order, lam))
        return -ref.pam_mi_2d(order, lam, ref.effective_snr_db(snr_gauss_db, c, kurt))

    grid = np.concatenate([[0.0], np.geomspace(0.01, 30.0, 60)])
    best = int(np.argmin([neg_mi(u) for u in grid]))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    res = minimize_scalar(neg_mi, bounds=(lo, hi), method="bounded", options={"xatol": 1e-9})
    return float(res.x) / p_u


def check_link(text: str, checks: Checks, seed: int, pmfs: dict | None = None) -> None:
    """``pmfs`` maps family -> probabilities when the traced run saw them."""
    metadata, rows = parse_csv(text)
    for key, value in DESK_SCALE.items():
        checks.expect(float(metadata.get(f"config.{key}", "nan")) == value, f"link config.{key}")
    checks.expect(int(metadata.get("config.seed", -1)) == seed, "link seed")
    checks.expect([r["family"] for r in rows] == list(LINK_FAMILIES), f"link families: {rows}")
    ase_snr = ref.ase_only_snr_db(
        LINK_POWER_DBM, float(metadata["config.span_km"]), float(metadata["config.alpha_db_per_km"]),
        float(metadata["config.edfa_nf_db"]), float(metadata["config.center_wavelength_nm"]),
        float(metadata["config.baud_ghz"]))
    mb_lam = reference_mb_design(LINK_ORDER, C, LINK_CAL_SNR_DB)
    mb_kurt = ref.excess_kurtosis(LINK_ORDER, ref.shaped_pmf(LINK_ORDER, mb_lam))
    for row in rows:
        family, snr, mi_4d = row["family"], float(row["snr_db"]), float(row["mi_4d"])
        kurt = float(row["kurtosis"])
        where = f"link {family}"
        checks.expect(float(row["launch_dbm"]) == LINK_POWER_DBM, f"{where}: launch power")
        checks.expect(snr < ase_snr, f"{where}: SNR {snr} not below ASE-only {ase_snr}")
        if family == "gaussian":
            checks.expect(kurt == 0.0, f"{where}: kurtosis {kurt}")
            checks.expect(close(mi_4d, ref.gaussian_mi_4d(snr), abs_tol=MI_TOL_4D), f"{where}: mi_4d")
            continue
        # The tailored design lowers the kurtosis below that of the best MB
        # pmf, which is the point of the family.
        checks.expect(-1.0 < kurt < mb_kurt, f"{where}: kurtosis {kurt} not in (-1, MB optimum {mb_kurt})")
        h_bits = math.log2(LINK_ORDER)
        if pmfs is not None:
            checks.expect(close(kurt, ref.excess_kurtosis(LINK_ORDER, pmfs[family]), abs_tol=1e-10),
                          f"{where}: kurtosis vs the transmitted pmf")
            h_bits = ref.entropy_bits(pmfs[family])
        checks.expect(0.0 < mi_4d <= 2.0 * h_bits + 1e-9, f"{where}: mi_4d {mi_4d} outside (0, {2 * h_bits}]")


# --- mc-check-256 --------------------------------------------------------------

def mc_round_plan(seed: int):
    """Each pmf at one of the three SNRs, rotated by the seed so that the
    seeds together cover all nine pairs; every round costs the same."""
    return [(pmf, MC_SNRS_DB[(i + seed) % len(MC_SNRS_DB)]) for i, pmf in enumerate(MC_PMFS)]


def mc_seed(seed: int, round_index: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, round_index, k]).generate_state(1)[0])


def mc_reference(name: str, nu1: float, nu2: float, snr_db: float) -> float:
    if name == "opt":
        return ref.dense_mi_2d(MC_ORDER, ref.shaped_pmf(MC_ORDER, nu1, nu2), snr_db)
    return ref.pam_mi_2d(MC_ORDER, nu1, snr_db)


def mc_round(seed: int, round_index: int) -> list[tuple]:
    import nlshaping as nls

    constellation = nls.square_qam(MC_ORDER)
    outputs = []
    for k, ((name, nu1, nu2), snr_db) in enumerate(mc_round_plan(seed)):
        pmf = nls.tailored_pmf(constellation, nu1, nu2)
        unit = nls.normalized(constellation, pmf)
        estimate, _ = nls.mi_monte_carlo(unit, pmf, snr_db, MC_SAMPLES, mc_seed(seed, round_index, k))
        outputs.append((name, nu1, nu2, snr_db, estimate))
    return outputs


# --- runs ----------------------------------------------------------------------

def cpu_s_now() -> float:
    """CPU of this process and of its children that have ended."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def run_rounds(workload: str, seed: int, seconds: float, cli_runner):
    """Whole rounds until ``seconds`` have passed, at least one.

    Returns (outputs, attempted, failed, per-round wall s, per-round CPU s).
    A CLI round that fails counts all its items as failed.
    """
    outputs, walls, cpus = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        cpu0, t0 = cpu_s_now(), time.perf_counter()
        if workload == "mc-check-256":
            outputs.extend(mc_round(seed, len(walls)))
            attempted += len(MC_PMFS)
        else:
            design = workload == "design-1024"
            items = len(DESIGN_GRID) if design else len(LINK_FAMILIES)
            text = cli_runner(DESIGN_ARGS if design else link_args(seed))
            attempted += items
            if text is None:
                failed += items
            else:
                outputs.append(text)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_s_now() - cpu0)
    return outputs, attempted, failed, walls, cpus


def timed_run(workload: str, seed: int, seconds: float):
    """Untraced run: (end-to-end metrics, outputs to check, attempted, failed)."""
    setup_s = measure_setup_s()
    outputs, attempted, failed, walls, cpus = run_rounds(workload, seed, seconds, run_cli)
    peak_rss_kib = max(resource.getrusage(who).ru_maxrss
                       for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    items = (attempted - failed) * (MC_SAMPLES if workload == "mc-check-256" else 1)
    metrics = {
        "throughput": (60.0 * items / sum(walls), "items/min"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mib": (peak_rss_kib / 1024.0, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, outputs, attempted, failed


def propagate_observer(args, kwargs, result) -> dict:
    field, config = args[0], args[1]
    alpha_per_m = config.alpha_db_per_km * math.log(10.0) / 10.0 / 1e3
    p_in = float(np.mean(np.abs(field.samples) ** 2))
    p_out = float(np.mean(np.abs(result.samples) ** 2))
    return {"steps": config.steps, "power_ratio": p_out / p_in,
            "expected_ratio": math.exp(-alpha_per_m * config.span_km * 1e3)}


def modulations_observer(args, kwargs, result) -> dict:
    return {"pmfs": {m.name: m.pmf.probs.tolist() for m in result if not m.is_gaussian}}


def traced_run(workload: str, seed: int, seconds: float, checks: Checks):
    """Traced run: (per-layer metrics, outputs to check, attempted, failed,
    the pmfs ``build_modulations`` returned or None)."""
    import spans

    tracer = spans.Tracer()
    spans.install(tracer, observers={"ssfm.propagate": propagate_observer,
                                     "cli.build_modulations": modulations_observer})
    outputs, attempted, failed, _, _ = run_rounds(workload, seed, seconds, run_cli_in_process)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
    for span in tracer.spans:
        if span["name"] == "ssfm.propagate":
            ratio, expected = span["power_ratio"], span["expected_ratio"]
            checks.expect(abs(ratio / expected - 1.0) < 1e-9,
                          f"propagate power ratio {ratio} vs exp(-alpha L) {expected}")
    pmfs = [s["pmfs"] for s in tracer.spans if s["name"] == "cli.build_modulations"]
    pmfs = {name: np.asarray(probs) for name, probs in pmfs[-1].items()} if pmfs else None
    return spans.layer_metrics(tracer), outputs, attempted, failed, pmfs


def check_outputs(workload: str, outputs, seed: int, checks: Checks, pmfs=None) -> None:
    for output in outputs:
        if workload == "design-1024":
            check_design(output, checks)
        elif workload == "link-256":
            check_link(output, checks, seed, pmfs)
        else:
            name, nu1, nu2, snr_db, estimate = output
            expected = mc_reference(name, nu1, nu2, snr_db)
            checks.expect(abs(estimate - expected) < MC_TOL_BITS,
                          f"mc {name} at {snr_db} dB: {estimate} vs reference {expected}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nlshaping" / "__init__.py").is_file():
        print(f"error: no nlshaping sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    checks = Checks()
    if args.trace:
        metrics, outputs, attempted, failed, pmfs = traced_run(args.workload, args.seed, args.seconds, checks)
    else:
        metrics, outputs, attempted, failed = timed_run(args.workload, args.seed, args.seconds)
        pmfs = None
    check_outputs(args.workload, outputs, args.seed, checks, pmfs)

    result = {
        "correct": not checks.failures and bool(outputs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({**result, "checks": checks.count, "check_failures": checks.failures}, handle, indent=1)
    print(f"{checks.count} checks, {len(checks.failures)} failed", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
