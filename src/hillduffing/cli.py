"""Command-line interface.

Every command is deterministic: identical flags produce byte-identical
data files (floats are written with 17 significant digits, '.' decimal
separator, '\\n' line endings).  Grid commands write ``<name>.csv`` plus a
``<name>.meta.json`` sidecar echoing the full configuration; the sidecar
also records wall time, so only the CSV is byte-reproducible.

Exit codes: 0 success, 1 verification failure, 2 usage/config error or
failed integration, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import re
import sys
import time

from . import __version__, beam, criteria, duffing, hill, tongues, verify
from .errors import BracketNotFound, DomainError, IntegrationFailure, require_count

# let argparse accept range values like "-2:6:160" that begin with a minus
_NEGATIVE_RANGE = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(:\S*)?$")

# criteria-map's tests, in closed form for the squared-Duffing coefficients
_CRITERIA = {
    "li-zhang": criteria.SquaredDuffing.li_zhang,
    "zhukovskii": criteria.SquaredDuffing.zhukovskii,
    "burdina": criteria.SquaredDuffing.burdina,
}


def _parse_range(text: str) -> tuple[float, float, int]:
    """Parse 'lo:hi:count' with inclusive endpoints; ``tongues.axis_values``
    checks the values."""
    try:
        lo, hi, count = text.split(":")
        return float(lo), float(hi), int(count)
    except ValueError:
        raise DomainError("range must look like lo:hi:count with numbers lo, hi and "
                          f"an integer count, got {text!r}") from None


def _workers(args: argparse.Namespace) -> int:
    """``HILLDUFFING_WORKERS`` when set, else ``--workers``; ``map_cells``
    rejects a flag value below 1."""
    env = os.environ.get("HILLDUFFING_WORKERS")
    if not env:
        return args.workers
    try:
        return require_count("HILLDUFFING_WORKERS", int(env), 1)
    except ValueError:  # not an integer, or the DomainError of require_count
        raise DomainError(f"HILLDUFFING_WORKERS must be an integer >= 1, got {env!r}") from None


def _write_text(path: str, lines) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
    os.replace(tmp, path)


def _write_grid(args: argparse.Namespace, rows, cells: int, config: dict, wall: float) -> int:
    """Write ``<base>.csv`` from ``rows`` and the ``<base>.meta.json`` sidecar
    with ``config`` and the computation's wall time ``wall``."""
    base = args.out[:-4] if args.out.endswith(".csv") else args.out
    _write_text(base + ".csv", rows)
    payload = {
        "command": args.command,
        "config": config,
        "library_version": __version__,
        "wall_time_s": wall,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    _write_text(base + ".meta.json", [json.dumps(payload, indent=2, sort_keys=True)])
    print(f"wrote {base}.csv ({cells} cells) and {base}.meta.json")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    x_lo, x_hi, nx = _parse_range(args.x)
    y_lo, y_hi, ny = _parse_range(args.y)
    tol_boundary = 0.02 if args.paper_figures else args.tol_boundary
    workers = _workers(args)
    t0 = time.perf_counter()
    grid = tongues.scan(
        tongues.Plane(args.plane), (x_lo, x_hi), (y_lo, y_hi), (nx, ny),
        integrator_tol=args.tol, tol_boundary=tol_boundary, workers=workers,
    )
    wall = time.perf_counter() - t0
    config = dict(grid.meta, workers=workers, paper_figures=args.paper_figures)
    return _write_grid(args, grid.csv_rows(), nx * ny, config, wall)


def _criteria_cell(task) -> tuple[str, ...]:
    plane, x, y, names = task
    try:
        cell = criteria.SquaredDuffing(plane, x, y)
    except DomainError:
        return tuple("I" for _ in names)
    return tuple("S" if _CRITERIA[name](cell).guaranteed_stable else "I" for name in names)


def _criteria_rows(task) -> list[str]:
    """CSV rows of one ``tongues.map_columns`` block, column by column."""
    xs, ys, plane, names = task
    return [f"{x:.17g},{y:.17g}," + ",".join(_criteria_cell((plane, x, y, names)))
            for x in xs.tolist() for y in ys.tolist()]


def _cmd_criteria_map(args: argparse.Namespace) -> int:
    x_lo, x_hi, nx = _parse_range(args.x)
    y_lo, y_hi, ny = _parse_range(args.y)
    names = [n.strip() for n in args.criteria.split(",")]
    for n in names:
        if n not in _CRITERIA:
            raise DomainError(f"unknown criterion {n!r}; choose from {sorted(_CRITERIA)}")
    xs = tongues.axis_values(x_lo, x_hi, nx)
    ys = tongues.axis_values(y_lo, y_hi, ny)
    plane = tongues.Plane(args.plane)
    t0 = time.perf_counter()
    workers = _workers(args)
    blocks = tongues.map_columns(_criteria_rows, xs, ys, workers, plane, tuple(names))
    wall = time.perf_counter() - t0
    header = "x,y," + ",".join(n.replace("-", "_") for n in names)
    config = {
        "plane": args.plane, "x_range": [x_lo, x_hi], "y_range": [y_lo, y_hi],
        "resolution": [nx, ny], "criteria": names, "workers": workers, "blocks": len(blocks),
    }
    return _write_grid(args, itertools.chain([header], *blocks), nx * ny, config, wall)


def _cmd_tongue_bracket(args: argparse.Namespace) -> int:
    try:
        sample = tongues.trace_level_bracket(
            tongues.Plane(args.plane), args.ell, args.delta,
            threshold=args.threshold, integrator_tol=args.tol,
        )
    except BracketNotFound as exc:
        # thin tongues can legitimately evade the sampling resolution
        print(f"NOT FOUND: {exc}")
        return 0
    print(f"tongue {sample.ell} at delta={sample.delta:.17g}: "
          f"lower={sample.lower:.17g} upper={sample.upper:.17g} "
          f"(threshold {sample.threshold:.17g}, peak |trace| {sample.peak_trace:.17g})")
    if args.out:
        payload = dict(dataclasses.asdict(sample), plane=args.plane)
        _write_text(args.out, [json.dumps(payload, indent=2, sort_keys=True)])
    return 0


def _cmd_beam(args: argparse.Namespace) -> int:
    pair = beam.ModePair(args.m, args.n)
    result = beam.simulate(
        pair, args.delta, z_ratio=args.z_ratio, horizon=args.horizon,
        tol=args.tol, growth_factor=args.growth_factor,
    )
    if args.out:
        row = ",".join(["%.17g"] * result.trajectory.shape[1])
        rows = (row % tuple(values.tolist()) for values in result.trajectory)
        _write_text(args.out, itertools.chain(["t,w,w_dot,z,z_dot,energy"], rows))
        print(f"wrote {args.out} ({result.trajectory.shape[0]} rows)")
    onset = "none" if result.onset_time is None else f"{result.onset_time:.6g}"
    print(f"verdict: {result.verdict.value} (onset {onset}, "
          f"max |z| {result.max_abs_z:.6g}, threshold {result.threshold:.6g})")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suite(args.suite)
    for r in results:
        print(r.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_duffing_eval(args: argparse.Namespace) -> int:
    params = duffing.DuffingParams(args.delta, args.omega)
    t_lo, t_hi, nt = _parse_range(args.t)
    ts = tongues.axis_values(t_lo, t_hi, nt)
    lines = ["t,y,y_dot"] + [f"{t:.17g},{duffing.duffing_solution(params, t):.17g},"
                             f"{duffing.duffing_velocity(params, t):.17g}" for t in ts]
    if args.out:
        _write_text(args.out, lines)
        print(f"wrote {args.out} ({nt} rows)")
    else:
        print("\n".join(lines))
    print(f"period: {duffing.period(params):.17g}")
    if args.omega == 1.0:
        print(f"energy: {duffing.energy(params):.17g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hillduffing",
        description="Stability charts for Hill equations with squared-Duffing "
                    "coefficients and two-mode beam instabilities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p._negative_number_matcher = _NEGATIVE_RANGE
        p.set_defaults(func=func)
        return p

    def add_grid_parser(name: str, func, **kwargs) -> argparse.ArgumentParser:
        """A grid command's parser with its plane, axes, workers and output base name."""
        p = add_parser(name, func, **kwargs)
        p.add_argument("--plane", choices=["gamma", "omega"], required=True)
        p.add_argument("--x", required=True, metavar="LO:HI:COUNT",
                       help="delta axis, inclusive endpoints")
        p.add_argument("--y", required=True, metavar="LO:HI:COUNT", help="gamma or omega axis")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", required=True, help="output base name")
        return p

    scan_p = add_grid_parser("scan", _cmd_scan, help="monodromy-trace grid over a parameter plane")
    scan_p.add_argument("--tol", type=float, default=hill.DEFAULT_TOL)
    band = scan_p.add_mutually_exclusive_group()
    band.add_argument("--tol-boundary", type=float, default=hill.DEFAULT_TOL_BOUNDARY)
    band.add_argument("--paper-figures", action="store_true",
                      help="classify against the published level lines +-1.98")

    crit_p = add_grid_parser("criteria-map", _cmd_criteria_map,
                             help="per-cell sufficient-criterion verdicts")
    crit_p.add_argument("--criteria", default="li-zhang,zhukovskii,burdina",
                        help="comma-separated subset of li-zhang, zhukovskii, burdina")

    tb_p = add_parser("tongue-bracket", _cmd_tongue_bracket,
                      help="bisect tongue boundaries at fixed delta")
    tb_p.add_argument("--plane", choices=["gamma", "omega"], required=True)
    tb_p.add_argument("--ell", type=int, required=True)
    tb_p.add_argument("--delta", type=float, required=True)
    tb_p.add_argument("--threshold", type=float, default=None)
    tb_p.add_argument("--tol", type=float, default=hill.DEFAULT_TOL)
    tb_p.add_argument("--out", default=None, help="optional JSON output path")

    beam_p = add_parser("beam", _cmd_beam, help="two-mode beam simulation and transfer verdict")
    beam_p.add_argument("--m", type=int, required=True)
    beam_p.add_argument("--n", type=int, required=True)
    beam_p.add_argument("--delta", type=float, required=True)
    beam_p.add_argument("--z-ratio", type=float, default=1e-3)
    beam_p.add_argument("--horizon", type=float, default=None)
    beam_p.add_argument("--growth-factor", type=float, default=beam.DEFAULT_GROWTH_FACTOR)
    beam_p.add_argument("--tol", type=float, default=hill.DEFAULT_TOL)
    beam_p.add_argument("--out", default=None, help="trajectory CSV path")

    ver_p = add_parser("verify", _cmd_verify, help="run a named self-check suite")
    ver_p.add_argument("suite", choices=[*verify.SUITES, "all"])

    de_p = add_parser("duffing-eval", _cmd_duffing_eval,
                      help="tabulate a closed-form Duffing solution")
    de_p.add_argument("--delta", type=float, required=True)
    de_p.add_argument("--omega", type=float, default=1.0)
    de_p.add_argument("--t", required=True, metavar="LO:HI:COUNT")
    de_p.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValueError, IntegrationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
