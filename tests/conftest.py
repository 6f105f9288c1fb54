"""Fixtures shared by the test modules."""

import multiprocessing
import os

import pytest


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
