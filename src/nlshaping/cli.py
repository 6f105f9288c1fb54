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
import math
import os
import re
import sys
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .awgn_mi import DEFAULT_ORDER
from .constellation import SUPPORTED_ORDERS, normalized, square_qam
from .nl_model import CURVE_FAMILIES, DEFAULT_C, Family, MiCurvePoint, NlChannelModel, mi_curve
from .search import bisect
from .shaping import build_pmf, excess_kurtosis, mb_pmf, uniform_pmf
from .ssfm import (
    LinkConfig,
    Modulation,
    estimate_c,
    gaussian_modulation,
    power_sweep,
    read_config,
)

SHAPED_FAMILIES = tuple(f.value for f in CURVE_FAMILIES)

# Excess kurtosis of estimate-c's deep Maxwell-Boltzmann probe, and the
# largest scaled rate lam * P_u searched for it (four times what 4096QAM
# needs).
DEEP_PROBE_KURTOSIS = -0.9
DEEP_PROBE_U_CAP = 15360.0

# Relative slack, in steps, for a grid maximum that the steps reach up
# to floating-point rounding (e.g. 0.1 * 3 > 0.3).
GRID_TOL = 1e-9

# Most points an SNR or power grid may have. Each point is a full design
# (or transmission run), so a grid near the cap already takes hours.
MAX_GRID_POINTS = 10_000


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


def _config_path(text: str) -> str:
    """Validate ``--config`` at parse time, as ``_out_path`` does
    ``--out``: it must be a readable regular file."""
    path = Path(text)
    if not path.is_file():
        problem = ("is a directory" if path.is_dir()
                   else "is not a regular file" if path.exists() else "does not exist")
        raise argparse.ArgumentTypeError(f"{text!r} {problem}")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"{text!r} is not readable")
    return text


def _finite(text: str) -> float:
    """A float argument that must be finite: nan and inf fail at parse
    time, naming the argument, before any compute."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reads ``--opt -1e3`` as ``--opt=-1e3``. argparse takes a token that
    starts with '-' for an option unless it matches its negative-number
    pattern, which on some Python versions knows no exponent form. Every
    long option but ``--help`` takes one value."""

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            last = joined[-1] if joined else ""
            if re.match(r"-\.?\d", arg) and re.fullmatch(r"--[^=]+", last) and last != "--help":
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


def _parse_families(text: str, allowed) -> list[str]:
    names = [item.strip() for item in text.split(",") if item.strip()]
    for name in names:
        if name not in allowed:
            raise argparse.ArgumentTypeError(
                f"unknown family {name!r}; choose from {', '.join(allowed)}"
            )
    if not names:
        raise argparse.ArgumentTypeError("at least one family is required")
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"family listed twice in {text!r}")
    return names


def _grid_count(lo: float, hi: float, step: float) -> float:
    """Points of ``_grid(lo, hi, step)``, as a float: inf when the span
    over the step overflows."""
    # A step that would pass hi is never taken; one that reaches it up to
    # rounding is, and lands on hi.
    return float(np.floor((hi - lo) / step + GRID_TOL)) + 1.0


def _grid(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... up to hi; ``main`` has checked lo <= hi,
    step > 0 and the point count."""
    return [min(lo + i * step, hi) for i in range(int(_grid_count(lo, hi, step)))]


def _family_params(point: MiCurvePoint) -> dict:
    """A design point's lam, nu1 and nu2, None for each parameter outside
    its family."""
    mb = point.family is Family.MAXWELL_BOLTZMANN
    tailored = point.family is Family.KURTOSIS_TAILORED
    return {"lam": point.params.lam if mb else None,
            "nu1": point.params.nu1 if tailored else None,
            "nu2": point.params.nu2 if tailored else None}


def _point_row(point: MiCurvePoint) -> list:
    return [
        point.snr_gauss_db, point.family.value, *_family_params(point).values(),
        point.kurtosis, point.effective_snr_db, point.mi_4d, point.delta_mi_4d,
    ]


def cmd_mi_curve(args):
    constellation = square_qam(args.order)
    grid = _grid(args.snr_min, args.snr_max, args.snr_step)
    families = tuple(Family(name) for name in args.families)
    rows = [
        _point_row(point)
        for points in mi_curve(constellation, args.c, grid, families)
        for point in points
    ]
    metadata = base_metadata(order=args.order, c=args.c,
                             snr_grid_db=f"{args.snr_min}:{args.snr_max}:{args.snr_step}",
                             families=",".join(args.families),
                             optimizer="coarse-grid + BFGS refinement")
    header = ["snr_gauss_db", "family", "lambda", "nu1", "nu2", "kurtosis",
              "effective_snr_db", "mi_4d", "delta_mi_4d"]
    return metadata, header, rows


def cmd_pmf(args):
    constellation = square_qam(args.order)
    ((point,),) = mi_curve(constellation, args.c, [args.snr], (Family(args.family),))
    pmf = build_pmf(constellation, point.params)

    unit = normalized(constellation, pmf)
    rows = [
        [i, unit.points[i].real, unit.points[i].imag, unit.sq_magnitudes[i], pmf.probs[i]]
        for i in range(unit.order)
    ]
    own_params = {name: format_cell(value)
                  for name, value in _family_params(point).items() if value is not None}
    metadata = base_metadata(order=args.order, c=args.c, snr_gauss_db=args.snr,
                             family=args.family, **own_params,
                             kurtosis=format_cell(point.kurtosis))
    return metadata, ["point_index", "re", "im", "ring_sq_magnitude", "probability"], rows


def _link_config(args) -> LinkConfig:
    """The ``--config`` file's link, or the desk-scale defaults, with
    ``--seed`` applied."""
    config = read_config(args.config) if args.config else LinkConfig()
    return config if args.seed is None else replace(config, seed=args.seed)


def _config_metadata(config: LinkConfig) -> dict:
    return {f"config.{f.name}": getattr(config, f.name)
            for f in dataclass_fields(LinkConfig)}


def build_modulations(names, order: int, c: float, cal_snr_db: float):
    """Resolve family tags into concrete modulations. Every family but the
    Gaussian is designed once, by one ``mi_curve`` point at the
    calibration SNR, and reused across the sweep, mirroring how shaped
    transmitters are provisioned."""
    constellation = square_qam(order)
    designed = tuple(Family(name) for name in names if name != "gaussian")
    params = {}
    if designed:
        (points,) = mi_curve(constellation, c, [cal_snr_db], designed)
        params = {point.family.value: point.params for point in points}
    return [
        gaussian_modulation() if name == "gaussian"
        else Modulation(name, constellation, build_pmf(constellation, params[name]))
        for name in names
    ]


def cmd_simulate(args):
    config = _link_config(args)
    powers = _grid(args.power_min, args.power_max, args.power_step)
    modulations = build_modulations(args.families, args.order, args.c, args.cal_snr)
    results = power_sweep(config, modulations, powers)

    rows = [
        [r.launch_dbm_per_channel, r.family, r.snr_db, r.mi_4d, r.kurtosis]
        for r in results
    ]
    metadata = base_metadata(
        order=args.order, c=args.c, cal_snr_db=args.cal_snr,
        families=",".join(args.families), seed=config.seed,
        propagation="symmetrized split-step Manakov, 8/9 Kerr factor",
        receiver="full-band CDC, matched RRC, data-aided MMSE scaling",
    )
    metadata.update(_config_metadata(config))
    return metadata, ["launch_dbm", "family", "snr_db", "mi_4d", "kurtosis"], rows


def default_probes(order: int = 64):
    """Uniform, Gaussian, and a deep Maxwell-Boltzmann probe: three
    well-separated kurtosis values for the NLI fit.

    The deep probe's rate is the root of kurtosis = DEEP_PROBE_KURTOSIS
    on u = lam * P_u in [1e-3, hi], bisected to within 2e-12 (brentq's
    default tolerance): hi starts at 60 and doubles until it brackets
    the root (60 up to 64QAM, 240 at 256QAM, 960 at 1024QAM, 3840 at
    4096QAM). Past DEEP_PROBE_U_CAP it raises ValueError.
    """
    constellation = square_qam(order)
    pu = constellation.uniform_power

    def excess(u: float) -> float:
        pmf = mb_pmf(constellation, u / pu)
        return excess_kurtosis(constellation, pmf) - DEEP_PROBE_KURTOSIS

    hi = 60.0
    while excess(hi) >= 0.0:
        hi *= 2.0
        if hi > DEEP_PROBE_U_CAP:
            raise ValueError(
                f"no Maxwell-Boltzmann rate up to lam * P_u = {DEEP_PROBE_U_CAP:g} "
                f"gives excess kurtosis {DEEP_PROBE_KURTOSIS} at {order}QAM"
            )
    u_deep = bisect(excess, 1e-3, hi, xtol=2e-12)
    return [
        Modulation("uniform", constellation, uniform_pmf(constellation)),
        gaussian_modulation(),
        Modulation("mb_deep", constellation, mb_pmf(constellation, u_deep / pu)),
    ]


def cmd_estimate_c(args):
    config = _link_config(args)
    probes = default_probes(args.order)
    fit = estimate_c(config, probes, args.probe_power)

    rows = [
        ["probe", p.family, p.kurtosis, p.snr_db, p.nli_variance_w,
         None, None, None, None]
        for p in fit.probes
    ]
    rows.append(["summary", None, None, None, None,
                 fit.eta1, fit.eta2, fit.c, fit.r_squared])
    metadata = base_metadata(
        probe_power_dbm=args.probe_power, order=args.order, seed=config.seed,
        snr_db="center channel received with no ASE: NLI plus linear crosstalk",
    )
    metadata.update(_config_metadata(config))
    header = ["row", "family", "kurtosis", "snr_db", "nli_variance_w",
              "eta1", "eta2", "c", "r_squared"]
    return metadata, header, rows


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nlshaping",
        description="Shaping-gain curves and fiber simulations for square QAM",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shaped(text):
        return _parse_families(text, SHAPED_FAMILIES)

    def sim_families(text):
        return _parse_families(text, SHAPED_FAMILIES + ("gaussian",))

    p = sub.add_parser("mi-curve", help="MI versus Gaussian-reference SNR")
    p.add_argument("--order", type=int, choices=SUPPORTED_ORDERS, default=1024)
    p.add_argument("--c", type=_finite, default=DEFAULT_C)
    p.add_argument("--snr-min", type=_finite, required=True)
    p.add_argument("--snr-max", type=_finite, required=True)
    p.add_argument("--snr-step", type=_finite, default=0.5)
    p.add_argument("--families", type=shaped, default=list(SHAPED_FAMILIES))
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=cmd_mi_curve)

    p = sub.add_parser("pmf", help="optimized distribution at one SNR")
    p.add_argument("--order", type=int, choices=SUPPORTED_ORDERS, default=256)
    p.add_argument("--c", type=_finite, default=DEFAULT_C)
    p.add_argument("--snr", type=_finite, required=True)
    p.add_argument("--family", required=True,
                   choices=[f.value for f in CURVE_FAMILIES if f is not Family.UNIFORM])
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("simulate", help="launch-power sweep over the fiber link")
    p.add_argument("--config", type=_config_path, default=None,
                   help="key = value config file")
    p.add_argument("--order", type=int, choices=SUPPORTED_ORDERS, default=256)
    p.add_argument("--c", type=_finite, default=DEFAULT_C)
    p.add_argument("--cal-snr", type=_finite, default=18.0,
                   help="Gaussian-reference SNR the shaped pmfs are optimized for")
    p.add_argument("--families", type=sim_families,
                   default=list(SHAPED_FAMILIES))
    p.add_argument("--power-min", type=_finite, required=True)
    p.add_argument("--power-max", type=_finite, required=True)
    p.add_argument("--power-step", type=_finite, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate-c", help="fit eta2/eta1 from simulation probes")
    p.add_argument("--config", type=_config_path, default=None)
    p.add_argument("--order", type=int, choices=SUPPORTED_ORDERS, default=64)
    p.add_argument("--probe-power", type=_finite, default=6.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=cmd_estimate_c)

    return parser


def _check_args(parser: argparse.ArgumentParser, args) -> None:
    """Usage errors of ``--c``, ``--seed`` and of the SNR and power grids,
    before any compute."""
    try:
        NlChannelModel(c=getattr(args, "c", DEFAULT_C))
    except ValueError as exc:
        parser.error(f"argument --c: {exc}")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        parser.error(f"argument --seed: must be at least 0, got {seed}")
    for axis in ("snr", "power"):
        lo = getattr(args, f"{axis}_min", None)
        if lo is None:
            continue
        hi, step = getattr(args, f"{axis}_max"), getattr(args, f"{axis}_step")
        if hi < lo:
            parser.error(f"--{axis}-max {hi:g} is below --{axis}-min {lo:g}")
        if step <= 0:
            parser.error(f"--{axis}-step must be positive, got {step:g}")
        count = _grid_count(lo, hi, step)
        if count > MAX_GRID_POINTS:
            parser.error(f"--{axis}-min {lo:g} to --{axis}-max {hi:g} in steps of {step:g} "
                         f"gives {count:.0f} grid points; at most {MAX_GRID_POINTS} are allowed")


def main(argv=None) -> int:
    """Run one command: its CSV goes to ``--out`` or standard output. A
    usage error exits 2 before any compute; a numerical failure prints
    one error line and returns 1."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_args(parser, args)
    try:
        metadata, header, rows = args.func(args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {args.command} failed: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        write_csv(sys.stdout, metadata, header, rows)
    else:
        with open(args.out, "w", encoding="utf-8") as stream:
            write_csv(stream, metadata, header, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
