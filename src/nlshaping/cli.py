"""Command-line interface emitting plot-ready CSV.

Subcommands: ``mi-curve`` (shaping gains versus Gaussian-reference SNR),
``pmf`` (the optimized distribution at one operating point), ``simulate``
(launch-power sweeps over the split-step link), and ``estimate-c``
(kurtosis-sensitivity fit from simulation probes).

Exit codes: 0 success, 1 numerical failure, 2 usage error. All numeric
payload cells use 12 significant digits, so identical arguments always
reproduce byte-identical payloads.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from . import __version__
from .awgn_mi import DEFAULT_ORDER, gauss_hermite
from .constellation import normalized, square_qam
from .nl_model import (
    DEFAULT_C,
    Family,
    MiCurvePoint,
    NlChannelModel,
    mi_curve,
    optimize_mb,
    optimize_tailored,
)
from .shaping import build_pmf, excess_kurtosis, mb_pmf, uniform_pmf
from .ssfm import (
    LinkConfig,
    Modulation,
    estimate_c,
    gaussian_modulation,
    power_sweep,
    read_config,
)

SHAPED_FAMILIES = ("uniform", "mb", "opt")

# Relative slack, in steps, for a grid maximum that the steps reach up
# to floating-point rounding (e.g. 0.1 * 3 > 0.3).
GRID_TOL = 1e-9


def format_cell(value) -> str:
    """Fixed 12-significant-digit serialization; empty for None."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def write_csv(stream, metadata: dict, header: list[str], rows) -> None:
    for key, value in metadata.items():
        stream.write(f"# {key}: {value}\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(format_cell(cell) for cell in row) + "\n")


def base_metadata(**extra) -> dict:
    md = {
        "tool": f"nlshaping {__version__}",
        "command": " ".join(sys.argv[1:]),
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quadrature_order": DEFAULT_ORDER,
    }
    md.update(extra)
    return md


def _open_out(args):
    if args.out is None:
        return sys.stdout, False
    return open(args.out, "w", encoding="utf-8"), True


def _out_path(text: str) -> str:
    """Validate ``--out`` at parse time, so a bad path fails before any
    compute: it must not be a directory, and its directory must exist
    and be writable."""
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    parent = path.parent
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(f"directory {str(parent)!r} does not exist")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise argparse.ArgumentTypeError(f"directory {str(parent)!r} is not writable")
    return text


def _parse_families(text: str, allowed) -> list[str]:
    names = [item.strip() for item in text.split(",") if item.strip()]
    for name in names:
        if name not in allowed:
            raise argparse.ArgumentTypeError(
                f"unknown family {name!r}; choose from {', '.join(allowed)}"
            )
    if not names:
        raise argparse.ArgumentTypeError("at least one family is required")
    return names


def _grid(lo: float, hi: float, step: float) -> list[float]:
    if hi < lo:
        raise ValueError("grid maximum must be >= minimum")
    if step <= 0:
        raise ValueError("grid step must be positive")
    # A step that would pass hi is never taken; one that reaches it up to
    # rounding is, and lands on hi.
    count = int(np.floor((hi - lo) / step + GRID_TOL)) + 1
    return [min(lo + i * step, hi) for i in range(count)]


def _point_row(point: MiCurvePoint) -> list:
    params = point.params
    lam = params.lam if point.family is Family.MAXWELL_BOLTZMANN else None
    nu1 = params.nu1 if point.family is Family.KURTOSIS_TAILORED else None
    nu2 = params.nu2 if point.family is Family.KURTOSIS_TAILORED else None
    return [
        point.snr_gauss_db, point.family.value, lam, nu1, nu2,
        point.kurtosis, point.effective_snr_db, point.mi_4d, point.delta_mi_4d,
    ]


def cmd_mi_curve(args) -> int:
    try:
        constellation = square_qam(args.order)
        grid = _grid(args.snr_min, args.snr_max, args.snr_step)
        rule = gauss_hermite(DEFAULT_ORDER)
        families = tuple(Family(name) for name in args.families)
        rows = [
            _point_row(point)
            for points in mi_curve(constellation, args.c, grid, rule, families)
            for point in points
        ]
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: mi-curve failed: {exc}", file=sys.stderr)
        return 1

    stream, close = _open_out(args)
    try:
        write_csv(
            stream,
            base_metadata(order=args.order, c=args.c,
                          snr_grid_db=f"{args.snr_min}:{args.snr_max}:{args.snr_step}",
                          families=",".join(args.families),
                          optimizer="coarse-grid + bounded/simplex refinement"),
            ["snr_gauss_db", "family", "lambda", "nu1", "nu2", "kurtosis",
             "effective_snr_db", "mi_4d", "delta_mi_4d"],
            rows,
        )
    finally:
        if close:
            stream.close()
    return 0


def cmd_pmf(args) -> int:
    try:
        constellation = square_qam(args.order)
        model = NlChannelModel(c=args.c, snr_gauss_db=args.snr)
        rule = gauss_hermite(DEFAULT_ORDER)
        if args.family == "mb":
            _, point = optimize_mb(constellation, model, rule)
        else:
            _, _, point = optimize_tailored(constellation, model, rule)
        pmf = build_pmf(constellation, point.params)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: pmf optimization failed: {exc}", file=sys.stderr)
        return 1

    unit = normalized(constellation, pmf)
    ring_sq = np.empty(unit.order)
    for ring in unit.rings:
        ring_sq[ring.indices] = ring.sq_magnitude
    rows = [
        [i, unit.points[i].real, unit.points[i].imag, ring_sq[i], pmf.probs[i]]
        for i in range(unit.order)
    ]
    stream, close = _open_out(args)
    try:
        write_csv(
            stream,
            base_metadata(order=args.order, c=args.c, snr_gauss_db=args.snr,
                          family=args.family,
                          lam=format_cell(point.params.lam),
                          nu1=format_cell(point.params.nu1),
                          nu2=format_cell(point.params.nu2),
                          kurtosis=format_cell(point.kurtosis)),
            ["point_index", "re", "im", "ring_sq_magnitude", "probability"],
            rows,
        )
    finally:
        if close:
            stream.close()
    return 0


def _config_metadata(config: LinkConfig) -> dict:
    return {f"config.{f.name}": getattr(config, f.name)
            for f in dataclass_fields(LinkConfig)}


def build_modulations(names, order: int, c: float, cal_snr_db: float):
    """Resolve family tags into concrete modulations. Shaped families are
    optimized once against the calibration model and reused across the
    sweep, mirroring how shaped transmitters are provisioned."""
    constellation = square_qam(order)
    model = NlChannelModel(c=c, snr_gauss_db=cal_snr_db)
    rule = gauss_hermite(DEFAULT_ORDER)
    mb = None
    out = []
    for name in names:
        if name == "gaussian":
            out.append(gaussian_modulation())
            continue
        if name in ("mb", "opt") and mb is None:
            mb = optimize_mb(constellation, model, rule)
        if name == "uniform":
            pmf = uniform_pmf(constellation)
        elif name == "mb":
            pmf = mb_pmf(constellation, mb[0])
        else:
            _, _, point = optimize_tailored(constellation, model, rule, mb=mb)
            pmf = build_pmf(constellation, point.params)
        out.append(Modulation(name, constellation, pmf))
    return out


def cmd_simulate(args) -> int:
    try:
        config = read_config(args.config) if args.config else LinkConfig.desk_scale()
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        powers = _grid(args.power_min, args.power_max, args.power_step)
        modulations = build_modulations(args.families, args.order, args.c, args.cal_snr)
        results = power_sweep(config, modulations, powers)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: simulate failed: {exc}", file=sys.stderr)
        return 1

    rows = [
        [r.launch_dbm_per_channel, r.family, r.snr_db, r.mi_4d, r.kurtosis]
        for r in results
    ]
    stream, close = _open_out(args)
    try:
        metadata = base_metadata(
            order=args.order, c=args.c, cal_snr_db=args.cal_snr,
            families=",".join(args.families), seed=config.seed,
            propagation="symmetrized split-step Manakov, 8/9 Kerr factor",
            receiver="full-band CDC, matched RRC, data-aided MMSE scaling",
        )
        metadata.update(_config_metadata(config))
        write_csv(stream, metadata,
                  ["launch_dbm", "family", "snr_db", "mi_4d", "kurtosis"], rows)
    finally:
        if close:
            stream.close()
    return 0


def default_probes(order: int = 64):
    """Uniform, Gaussian, and a deep Maxwell-Boltzmann probe: three
    well-separated kurtosis values for the NLI fit."""
    constellation = square_qam(order)
    pu = float(np.mean(constellation.sq_magnitudes))

    def kurt_at(u: float) -> float:
        return excess_kurtosis(constellation, mb_pmf(constellation, u / pu))

    # Rate chosen so the deep probe sits at excess kurtosis -0.9.
    u_deep = brentq(lambda u: kurt_at(u) + 0.9, 1e-3, 60.0)
    return [
        Modulation("uniform", constellation, uniform_pmf(constellation)),
        gaussian_modulation(),
        Modulation("mb_deep", constellation, mb_pmf(constellation, u_deep / pu)),
    ]


def cmd_estimate_c(args) -> int:
    try:
        config = read_config(args.config) if args.config else LinkConfig.desk_scale()
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        probes = default_probes(args.order)
        fit = estimate_c(config, probes, args.probe_power)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: estimate-c failed: {exc}", file=sys.stderr)
        return 1

    rows = [
        ["probe", p.family, p.kurtosis, p.snr_db, p.nli_variance_w,
         None, None, None, None]
        for p in fit.probes
    ]
    rows.append(["summary", None, None, None, None,
                 fit.eta1, fit.eta2, fit.c, fit.r_squared])
    stream, close = _open_out(args)
    try:
        metadata = base_metadata(
            probe_power_dbm=args.probe_power, order=args.order, seed=config.seed,
        )
        metadata.update(_config_metadata(config))
        write_csv(stream, metadata,
                  ["row", "family", "kurtosis", "snr_db", "nli_variance_w",
                   "eta1", "eta2", "c", "r_squared"],
                  rows)
    finally:
        if close:
            stream.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlshaping",
        description="Shaping-gain curves and fiber simulations for square QAM",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shaped(text):
        return _parse_families(text, SHAPED_FAMILIES)

    def sim_families(text):
        return _parse_families(text, SHAPED_FAMILIES + ("gaussian",))

    p = sub.add_parser("mi-curve", help="MI versus Gaussian-reference SNR")
    p.add_argument("--order", type=int, default=1024)
    p.add_argument("--c", type=float, default=DEFAULT_C)
    p.add_argument("--snr-min", type=float, required=True)
    p.add_argument("--snr-max", type=float, required=True)
    p.add_argument("--snr-step", type=float, default=0.5)
    p.add_argument("--families", type=shaped, default=list(SHAPED_FAMILIES))
    p.add_argument("--delta-mi", action="store_true",
                   help="ΔMI column is always emitted; flag kept for scripts")
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=cmd_mi_curve)

    p = sub.add_parser("pmf", help="optimized distribution at one SNR")
    p.add_argument("--order", type=int, default=256)
    p.add_argument("--c", type=float, default=DEFAULT_C)
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--family", choices=("mb", "opt"), required=True)
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("simulate", help="launch-power sweep over the fiber link")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--order", type=int, default=256)
    p.add_argument("--c", type=float, default=DEFAULT_C)
    p.add_argument("--cal-snr", type=float, default=18.0,
                   help="Gaussian-reference SNR the shaped pmfs are optimized for")
    p.add_argument("--families", type=sim_families,
                   default=["uniform", "mb", "opt"])
    p.add_argument("--power-min", type=float, required=True)
    p.add_argument("--power-max", type=float, required=True)
    p.add_argument("--power-step", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate-c", help="fit eta2/eta1 from simulation probes")
    p.add_argument("--config", default=None)
    p.add_argument("--order", type=int, default=64)
    p.add_argument("--probe-power", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=cmd_estimate_c)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
