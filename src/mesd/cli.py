"""Command-line front end: evaluate bounds, run oracles, map advantage regions.

Commands
    two          quantum vs noncontextual for two states (prior, overlap)
    three        same for the mirror-symmetric triple (theta, prior)
    map          scan the (theta, prior) grid and write CSV/JSON cells
    oracle-two   compare the closed form against the brute-force optimizer
    oracle-three same for the three-state task, with a certified upper bound
    ontic-check  run the finite-model inequality batch

Exit codes: 0 ok, 2 invalid arguments, 3 I/O failure, 4 verification
failed: oracle difference above `--tol`, or an ontic-check model failing a
bound or the identity.  Output is deterministic: identical configuration
gives byte-identical files.  `map` computes and writes one theta-row at a
time, so its memory does not grow with the grid.  The `MESD_THREADS`
environment variable is still validated (a positive integer, else exit 2)
but selects nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Iterator, Sequence

import numpy as np

from . import analytic, ontic, oracle
from .analytic import MirrorEnsemble, TwoStateScenario
from .qcore import make_state

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_TOLERANCE = 4


def _fmt(x: float) -> str:
    """Floats rendered with 9 significant digits; -0.0 canonicalized."""
    if x == 0.0:
        x = 0.0
    return format(x, ".9g")


def _fmt_num(x: float) -> float:
    """Round-trip through the 9-significant-digit rendering for JSON."""
    return float(_fmt(x))


def _check_threads() -> int:
    """Validate MESD_THREADS, kept for compatibility; it selects nothing."""
    raw = os.environ.get("MESD_THREADS")
    if raw is None:
        return EXIT_OK
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        return _usage_error(f"MESD_THREADS must be a positive integer, got {raw!r}")
    return EXIT_OK


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _io_error(out: str, exc: OSError) -> int:
    print(f"error: cannot write {out}: {exc}", file=sys.stderr)
    return EXIT_IO


def _emit(text: str, out: str | None) -> int:
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        return _io_error(out, exc)
    return EXIT_OK


def _csv_row(record: dict) -> str:
    return ",".join(
        "true" if v is True else "false" if v is False else
        v if isinstance(v, str) else _fmt(v)
        for v in record.values()
    )


def _json_obj(record: dict) -> dict:
    return {
        k: (v if isinstance(v, (bool, str, int)) else _fmt_num(v))
        for k, v in record.items()
    }


def _render_record(record: dict, fmt: str) -> str:
    if fmt == "csv":
        return f"{','.join(record)}\n{_csv_row(record)}\n"
    return json.dumps(_json_obj(record), indent=2) + "\n"


def _resolve_angle(args: argparse.Namespace, rad_flag: str, deg_flag: str) -> float | None:
    rad = getattr(args, rad_flag.strip("-").replace("-", "_"))
    deg = getattr(args, deg_flag.strip("-").replace("-", "_"))
    if rad is None and deg is None:
        return None
    return rad if rad is not None else math.radians(deg)


def cmd_two(args: argparse.Namespace) -> int:
    if not 0.0 <= args.prior <= 1.0:
        return _usage_error(f"--prior must lie in [0, 1], got {args.prior}")
    if not 0.0 <= args.overlap <= 1.0:
        return _usage_error(f"--overlap must lie in [0, 1], got {args.overlap}")
    pair = analytic.advantage_two(
        TwoStateScenario(prior_p=args.prior, confusability_c=args.overlap)
    )
    record = {
        "helstrom": pair.quantum,
        "nc_bound": pair.noncontextual,
        "gap": pair.gap,
        "advantage": pair.advantage,
    }
    return _emit(_render_record(record, args.format), args.out)


def cmd_three(args: argparse.Namespace) -> int:
    theta = _resolve_angle(args, "--theta", "--theta-deg")
    if theta is None:
        return _usage_error("one of --theta or --theta-deg is required")
    try:
        ensemble = MirrorEnsemble(theta=theta, prior_p=args.prior)
    except ValueError as exc:
        return _usage_error(str(exc))
    pair = analytic.advantage_three(ensemble)
    record = {
        "threshold_prior": analytic.threshold_prior(theta),
        "branch": analytic.quantum_three_branch(ensemble),
        "s_quantum": pair.quantum,
        "s_nc_bound": pair.noncontextual,
        "gap": pair.gap,
        "advantage": pair.advantage,
    }
    return _emit(_render_record(record, args.format), args.out)


def _map_chunks(theta_steps: int, prior_steps: int, fmt: str) -> Iterator[str]:
    """The map file in pieces: one piece per theta-row of cells, plus the
    CSV header or the JSON text around the cells list."""
    priors = [0.5 * j / (prior_steps - 1) for j in range(prior_steps)]
    if fmt == "json":
        config = {
            "command": "map",
            "theta_steps": theta_steps,
            "prior_steps": prior_steps,
            "format": fmt,
        }
        head, tail = json.dumps({"config": config, "cells": []}, indent=2).split("[]")
        yield head + "["
    for i in range(theta_steps):
        theta = (math.pi / 2.0) * i / (theta_steps - 1)
        records = []
        for prior in priors:
            pair = analytic.advantage_three(MirrorEnsemble(theta=theta, prior_p=prior))
            records.append({
                "theta": theta,
                "prior": prior,
                "s_quantum": pair.quantum,
                "s_nc_bound": pair.noncontextual,
                "gap": pair.gap,
                "advantage": pair.advantage,
            })
        if fmt == "csv":
            if i == 0:
                yield ",".join(records[0]) + "\n"
            yield "".join(_csv_row(r) + "\n" for r in records)
        else:
            # The cells sit one level deeper in the payload than in a bare
            # list: drop the row list's brackets and indent every line once more.
            cells = json.dumps([_json_obj(r) for r in records], indent=2)[1:-2]
            yield ("," if i else "") + cells.replace("\n", "\n  ")
    if fmt == "json":
        yield "\n  ]" + tail + "\n"


def cmd_map(args: argparse.Namespace) -> int:
    if args.theta_steps < 2:
        return _usage_error(f"--theta-steps must be >= 2, got {args.theta_steps}")
    if args.prior_steps < 2:
        return _usage_error(f"--prior-steps must be >= 2, got {args.prior_steps}")
    status = _check_threads()
    if status != EXIT_OK:
        return status
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_map_chunks(args.theta_steps, args.prior_steps, args.format))
    except OSError as exc:
        return _io_error(args.out, exc)
    return EXIT_OK


def cmd_oracle_two(args: argparse.Namespace) -> int:
    sep = _resolve_angle(args, "--sep", "--sep-deg")
    if sep is None:
        return _usage_error("one of --sep or --sep-deg is required")
    if not math.isfinite(sep):
        return _usage_error(f"--sep/--sep-deg must be finite, got {sep}")
    if not 0.0 <= args.prior <= 1.0:
        return _usage_error(f"--prior must lie in [0, 1], got {args.prior}")
    if not 0.0 < args.tol < math.inf:
        return _usage_error(f"--tol must be finite and positive, got {args.tol}")
    s1 = make_state(0.0)
    s2 = make_state(sep)
    scenario = TwoStateScenario(
        prior_p=args.prior, confusability_c=math.cos(sep) ** 2
    )
    expected = analytic.helstrom_two(scenario)
    try:
        result = oracle.optimize_two(
            s1, s2, args.prior, grid_n=args.grid_n, refine_iters=args.refine_iters
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    return _report_oracle(expected, result, args)


def cmd_oracle_three(args: argparse.Namespace) -> int:
    theta = _resolve_angle(args, "--theta", "--theta-deg")
    if theta is None:
        return _usage_error("one of --theta or --theta-deg is required")
    try:
        ensemble = MirrorEnsemble(theta=theta, prior_p=args.prior)
    except ValueError as exc:
        return _usage_error(str(exc))
    if not 0.0 < args.tol < math.inf:
        return _usage_error(f"--tol must be finite and positive, got {args.tol}")
    expected = analytic.quantum_three(ensemble)
    try:
        result = oracle.optimize_three(
            ensemble,
            grid_n=args.grid_n,
            refine_iters=args.refine_iters,
            seed=args.seed,
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    return _report_oracle(expected, result, args)


def _report_oracle(expected: float, result: oracle.OracleResult, args) -> int:
    difference = abs(result.success - expected)
    record = {
        "analytic": expected,
        "oracle": result.success,
        "difference": difference,
        "evaluations": result.evaluations,
    }
    status = _emit(_render_record(record, args.format), args.out)
    if status != EXIT_OK:
        return status
    if difference > args.tol:
        print(
            f"error: |oracle - analytic| = {difference!r} exceeds --tol {args.tol!r}",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_ontic_check(args: argparse.Namespace) -> int:
    if args.num_models < 1:
        return _usage_error(f"--num-models must be >= 1, got {args.num_models}")
    rng = np.random.default_rng(args.seed)
    two_pass = three_pass = identity_pass = 0
    detail: list[str] = []
    for _ in range(args.num_models):
        size = int(rng.integers(2, 33))
        model2 = ontic.random_model(2, size, rng)
        report2 = ontic.check_two_state_bound(model2)
        two_pass += int(report2.passed)
        model3 = ontic.random_model(3, size, rng)
        report3 = ontic.check_three_state_bound(model3)
        three_pass += int(report3.passed)
        identity_pass += int(report3.decomposition_passed)
        if args.num_models == 1:
            detail.append(
                f"two-state: success={_fmt(report2.success)} overlap={_fmt(report2.overlap)} "
                f"bound={_fmt(report2.bound)} passed={report2.passed}"
            )
            detail.append(
                f"three-state: success={_fmt(report3.success)} bound={_fmt(report3.bound)} "
                f"passed={report3.passed} decomposition_error={_fmt(report3.decomposition_error)}"
            )
    for line in detail:
        print(line)
    n = args.num_models
    print(f"two-state bound: {two_pass}/{n} pass")
    print(f"three-state bound: {three_pass}/{n} pass")
    print(f"decomposition identity: {identity_pass}/{n} pass")
    all_pass = two_pass == n and three_pass == n and identity_pass == n
    return EXIT_OK if all_pass else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesd",
        description=(
            "Minimum-error state discrimination: quantum optima, "
            "noncontextual bounds, and contextual-advantage maps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, default_format: str = "json") -> None:
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument(
            "--format", choices=("csv", "json"), default=default_format,
            help=f"output format (default {default_format})",
        )

    p_two = sub.add_parser("two", help="two-state bounds for a (prior, overlap) pair")
    p_two.add_argument("--prior", type=float, required=True)
    p_two.add_argument("--overlap", type=float, required=True,
                       help="confusability |<psi1|psi2>|^2")
    add_io(p_two)
    p_two.set_defaults(func=cmd_two)

    p_three = sub.add_parser("three", help="three-state bounds for (theta, prior)")
    angle = p_three.add_mutually_exclusive_group(required=True)
    angle.add_argument("--theta", type=float, default=None, help="radians in [0, pi/2]")
    angle.add_argument("--theta-deg", type=float, default=None, help="degrees in [0, 90]")
    p_three.add_argument("--prior", type=float, required=True)
    add_io(p_three)
    p_three.set_defaults(func=cmd_three)

    p_map = sub.add_parser("map", help="scan the (theta, prior) advantage grid")
    p_map.add_argument("--theta-steps", type=int, required=True)
    p_map.add_argument("--prior-steps", type=int, required=True)
    p_map.add_argument("--out", required=True, help="output file path")
    p_map.add_argument("--format", choices=("csv", "json"), default="csv")
    p_map.set_defaults(func=cmd_map)

    p_o2 = sub.add_parser("oracle-two", help="brute-force check of the two-state optimum")
    sep = p_o2.add_mutually_exclusive_group(required=True)
    sep.add_argument("--sep", type=float, default=None,
                     help="angle between the states, radians")
    sep.add_argument("--sep-deg", type=float, default=None)
    p_o2.add_argument("--prior", type=float, required=True)
    p_o2.add_argument("--grid-n", type=int, default=1024)
    p_o2.add_argument("--refine-iters", type=int, default=60,
                      help="accepted, must be >= 0")
    p_o2.add_argument("--tol", type=float, default=1e-4)
    add_io(p_o2)
    p_o2.set_defaults(func=cmd_oracle_two)

    p_o3 = sub.add_parser("oracle-three", help="certified check of the three-state optimum")
    angle3 = p_o3.add_mutually_exclusive_group(required=True)
    angle3.add_argument("--theta", type=float, default=None)
    angle3.add_argument("--theta-deg", type=float, default=None)
    p_o3.add_argument("--prior", type=float, required=True)
    p_o3.add_argument("--grid-n", type=int, default=64, help="accepted, must be >= 16; no grid")
    p_o3.add_argument("--refine-iters", type=int, default=200, help="iteration budget")
    p_o3.add_argument("--seed", type=int, default=0, help="accepted; the solver is deterministic")
    p_o3.add_argument("--tol", type=float, default=1e-3)
    add_io(p_o3)
    p_o3.set_defaults(func=cmd_oracle_three)

    p_ontic = sub.add_parser("ontic-check", help="finite-model inequality batch")
    p_ontic.add_argument("--num-models", type=int, default=10000)
    p_ontic.add_argument("--seed", type=int, default=0)
    p_ontic.set_defaults(func=cmd_ontic_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors / --help
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
