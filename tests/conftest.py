"""Fixtures shared by the test modules."""

# First, before any test module loads numpy: imported before numpy, the
# package runs BLAS on one thread in this process too (see
# nlshaping/__init__.py), as in every CLI process.
import nlshaping  # noqa: F401  isort: skip

import math
import multiprocessing
import os

import pytest

# The exact SI values of Planck's constant (J s) and the speed of light (m/s).
PLANCK_J_S = 6.62607015e-34
LIGHT_SPEED_M_S = 299792458.0


@pytest.fixture
def ase_budget_db():
    """``ase_budget_db(config, launch_dbm)``: the per-channel SNR of a link
    whose only impairment is ASE, restated from the ``LinkConfig``'s fields
    as an oracle that calls nothing of the package: half the dual-pol launch
    power against the per-polarization ASE (h nu / 2)(G F - 1) in the
    symbol band."""

    def budget(config, launch_dbm: float) -> float:
        gain = 10.0 ** (config.alpha_db_per_km * config.span_km / 10.0)
        nf = 10.0 ** (config.edfa_nf_db / 10.0)
        nu = LIGHT_SPEED_M_S / (config.center_wavelength_nm * 1e-9)
        psd = PLANCK_J_S * nu / 2.0 * (gain * nf - 1.0)
        p_pol = 1e-3 * 10.0 ** (launch_dbm / 10.0) / 2.0
        return 10.0 * math.log10(p_pol / (psd * config.baud_ghz * 1e9))

    return budget


@pytest.fixture
def mb_searches(tmp_path, monkeypatch):
    """Log of ``optimize_mb`` calls across processes: forked workers cannot
    write to the test's memory, so every process appends (pid, SNR) lines
    to one file. Calling the fixture's value reads and clears the log."""
    from nlshaping import nl_model

    log = tmp_path / "mb-searches"
    real = nl_model.optimize_mb

    def logged(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {args[1].snr_gauss_db!r}\n")
        return real(*args, **kwargs)

    def read() -> list[tuple[int, float]]:
        lines = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
        log.unlink(missing_ok=True)
        return [(int(pid), float(snr)) for pid, snr in (line.split() for line in lines)]

    monkeypatch.setattr(nl_model, "optimize_mb", logged)
    return read


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes the fork helper see n usable CPUs: n = 1 forces
    the serial loop, n > 1 forked workers, whatever the host has."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_cpus


@pytest.fixture
def failing_starts(monkeypatch):
    """``failing_starts(k)`` makes the k-th start of a worker process, and
    every later one, fail as under a process or memory limit. It returns
    the list of processes whose start was tried."""
    real_start = multiprocessing.process.BaseProcess.start
    starts = []

    def fail_from(k: int) -> list:
        def start(process):
            starts.append(process)
            if len(starts) >= k:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            real_start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        return starts

    return fail_from
