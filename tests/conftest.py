"""Fixtures shared by the test modules."""

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
