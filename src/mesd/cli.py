"""Command-line front end: evaluate bounds, run oracles, map advantage regions.

Commands
    two          quantum vs noncontextual for two states (prior, overlap)
    three        same for the mirror-symmetric triple (theta, prior)
    map          scan the (theta, prior) grid and write CSV/JSON cells
    oracle-two   compare the closed form against the certified two-state oracle
    oracle-three same for the three-state task and its certified oracle
    ontic-check  run the finite-model inequality batch

Exit codes: 0 ok, 2 invalid arguments, 3 output not written, 4 verification
failed.  `main` is the one exit boundary: it alone writes an `error:` line,
one per nonzero exit after parsing (argparse's usage errors keep argparse's
own text).  A flag check or a library type raises `ValueError` (exit 2).
A failed write raises `_Failure` with exit 3: an `OSError`, no stdout, a
closed stream, or an `--out` path that `open` rejects.  An oracle difference
above `--tol` and an ontic-check model failing a bound or the identity raise
it with exit 4, after their output is written.  A closed, missing or broken
stderr drops the line and keeps the code.

Output is deterministic: identical configuration gives byte-identical files.
`map` computes and writes theta-row slices of at most 256 cells, each
rendered with one `%` of a slice-wide template built once per map: the cell
template (a CSV line, or a JSON object laid out as `json.dumps(..., indent=2)`
would place it) joined once per cell.  The prior column, rendered once per
map, is all its memory holds per prior, about 80 bytes, so `--prior-steps` is
at most 2**20.  `ontic-check` draws and checks its models in chunks of at most
1024, one `ontic.check_models` call per ontic-space size in a chunk, so its
memory does not depend on `--num-models`.  Angles take radians (`--theta`,
`--sep`) or degrees (`--theta-deg`, `--sep-deg`); `ontic-check --seed` must
be >= 0.  The oracles call `optimize_two` and `optimize_three` at their
defaults: no flag sets their `grid_n`, `refine_iters` or `seed`, which steer
nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import analytic, ontic, oracle
from .analytic import MirrorEnsemble, TwoStateScenario
from .qcore import make_state

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_TOLERANCE = 4
_MAP_CHUNK = 256  # cells per piece of the map file; bounds the memory of a piece
_MAX_PRIOR_STEPS = 2**20  # the prior column map holds: about 80 MB at this bound
_ONTIC_CHUNK = 1024  # models drawn, then checked, at a time; bounds memory on any count
_MAP_FIELDS = ("theta", "prior", "s_quantum", "s_nc_bound", "gap", "advantage")


def _fmt(x: float) -> str:
    """Floats rendered with 9 significant digits; `+ 0.0` canonicalizes -0.0."""
    return format(x + 0.0, ".9g")


def _fmt_num(x: float) -> float:
    """Round-trip through the 9-significant-digit rendering for JSON."""
    return float(_fmt(x))


class _Failure(Exception):
    """A command's failure after its input was accepted: `(exit code, message)`."""


def _discard(stream) -> None:
    """Point a failed standard stream's descriptor at devnull: its buffer keeps
    the unwritten bytes, and their flush at exit would fail again (exit 120)."""
    with contextlib.suppress(OSError, ValueError, AttributeError):  # None, StringIO
        fd, devnull = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Write the text `chunks` to the file `out` (utf-8, `\n` newlines), or to
    stdout when `out` is None.  Any write failure, `ValueError`s included (a
    closed stream, a path `open` rejects), raises `_Failure` with `EXIT_IO`."""
    try:
        if out is None:
            if sys.stdout is None:  # Python's stdout when fd 1 was closed at start
                raise OSError("fd 1 is closed")
            sys.stdout.writelines(chunks)  # looked up per call: it may be redirected
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
    except (OSError, ValueError) as exc:
        if out is None:
            _discard(sys.stdout)
        where = "stdout" if out is None else out if out.isprintable() else repr(out)[1:-1]
        raise _Failure(EXIT_IO, f"cannot write {where}: {exc}")


def _json_obj(record: dict) -> dict:
    return {
        k: (v if isinstance(v, (bool, str, int)) else _fmt_num(v))
        for k, v in record.items()
    }


def _render_record(record: dict, fmt: str) -> str:
    if fmt == "csv":
        values = ("true" if v is True else "false" if v is False else
                  v if isinstance(v, str) else _fmt(v) for v in record.values())
        return f"{','.join(record)}\n{','.join(values)}\n"
    return json.dumps(_json_obj(record), indent=2) + "\n"


def cmd_two(args: argparse.Namespace) -> None:
    if not 0.0 <= args.prior <= 1.0:
        raise ValueError(f"--prior must lie in [0, 1], got {args.prior}")
    if not 0.0 <= args.overlap <= 1.0:
        raise ValueError(f"--overlap must lie in [0, 1], got {args.overlap}")
    pair = analytic.advantage_two(
        TwoStateScenario(prior_p=args.prior, confusability_c=args.overlap)
    )
    record = {
        "helstrom": pair.quantum,
        "nc_bound": pair.noncontextual,
        "gap": pair.gap,
        "advantage": pair.advantage,
    }
    _write([_render_record(record, args.format)], args.out)


def cmd_three(args: argparse.Namespace) -> None:
    ensemble = MirrorEnsemble(theta=args.theta, prior_p=args.prior)
    pair = analytic.advantage_three(ensemble)
    record = {
        "threshold_prior": analytic.threshold_prior(args.theta),
        "branch": analytic.quantum_three_branch(ensemble),
        "s_quantum": pair.quantum,
        "s_nc_bound": pair.noncontextual,
        "gap": pair.gap,
        "advantage": pair.advantage,
    }
    _write([_render_record(record, args.format)], args.out)


def _csv_numbers(column: np.ndarray) -> list[float]:
    """The floats of `column` for the CSV cell's `%.9g` slots; `+ 0.0` is
    `_fmt`'s -0.0 canonicalization."""
    return (column + 0.0).tolist()


def _json_numbers(column: np.ndarray) -> list[str]:
    """`json.dumps(_fmt_num(v))` for each finite v of `column`: the shortest
    round-trip of its 9-significant-digit value, so 1 reads `1.0`.

    That is the `%.9g` text, with `.0` appended if it has neither `.` nor
    `e`: any decimal of at most 15 digits round-trips, so no shorter one
    reads the same float.  Where the text's exponent is 9 to 15 (`repr`
    writes `1e+09` as `1000000000.0`) or -308 and below (subnormals hold
    fewer digits), it is `repr(float(text))` instead."""
    return [t if "e" not in t and "." in t else _json_text(t)
            for t in map("%.9g".__mod__, (column + 0.0).tolist())]


def _json_text(text: str) -> str:
    """`_json_numbers`' rule for a `%.9g` text that has an `e` or no `.`."""
    if "e" not in text:
        return text + ".0"
    exponent = int(text.partition("e")[2])
    return repr(float(text)) if 9 <= exponent <= 15 or exponent <= -308 else text


# Per map format: the number slot, the cell template (theta, prior and the
# flag take text), the renderer of a number column, and the separator between
# cells.  JSON cells are objects at depth 2 of the payload, as
# `json.dumps(..., indent=2)` lays them out.
_MAP_CELLS = {
    "csv": ("%.9g", "%s,%s,%.9g,%.9g,%.9g,%s\n", _csv_numbers, ""),
    "json": ("%s", "\n    {" + ",".join(f"\n      {json.dumps(k)}: %s" for k in _MAP_FIELDS)
             + "\n    }", _json_numbers, ","),
}


def _map_frame(theta_steps: int, prior_steps: int, fmt: str) -> tuple[str, str]:
    """The map file's text before and after its cells: the CSV header, or the
    JSON payload around the cells list."""
    if fmt == "csv":
        return ",".join(_MAP_FIELDS) + "\n", ""
    config = {
        "command": "map",
        "theta_steps": theta_steps,
        "prior_steps": prior_steps,
        "format": fmt,
    }
    head, tail = json.dumps({"config": config, "cells": []}, indent=2).split("[]")
    return head + "[", "\n  ]" + tail + "\n"


def _map_chunks(theta_steps: int, prior_steps: int, fmt: str) -> Iterator[str]:
    """The map file in pieces of at most `_MAP_CHUNK` cells, theta-major,
    between the text of `_map_frame`.  Each piece is one slice of a theta-row,
    computed by `analytic.advantage_three_row` and rendered with one `%` of
    its length's template from a flat tuple, cell by cell.  The templates
    and the prior texts are made once per map.  Row i's angle is capped at
    `HALF_PI`, which `HALF_PI * i / (theta_steps - 1)` overshoots by one ulp
    in the last row at some counts (14, 27, 48, ...)."""
    head, tail = _map_frame(theta_steps, prior_steps, fmt)
    number, cell, numbers, separator = _MAP_CELLS[fmt]
    priors = [0.5 * np.arange(start, min(start + _MAP_CHUNK, prior_steps)) / (prior_steps - 1)
              for start in range(0, prior_steps, _MAP_CHUNK)]
    slices = [(prior, [number % v for v in numbers(prior)]) for prior in priors]
    templates = {len(prior): separator.join([cell] * len(prior)) for prior in priors}
    yield head
    lead = ""
    for i in range(theta_steps):
        theta = min(analytic.HALF_PI, analytic.HALF_PI * i / (theta_steps - 1))
        theta_text = number % numbers(np.array([theta]))[0]
        for prior, prior_numbers in slices:
            quantum, nc, gap = analytic.advantage_three_row(theta, prior)
            flat = [theta_text] * (6 * len(prior))
            flat[1::6] = prior_numbers
            flat[2::6] = numbers(quantum)
            flat[3::6] = numbers(nc)
            flat[4::6] = numbers(gap)
            flat[5::6] = [("false", "true")[a] for a in (gap > analytic.ADVANTAGE_TOL).tolist()]
            yield lead + templates[len(prior)] % tuple(flat)
            lead = separator
    yield tail


def cmd_map(args: argparse.Namespace) -> None:
    if args.theta_steps < 2:
        raise ValueError(f"--theta-steps must be >= 2, got {args.theta_steps}")
    if args.prior_steps < 2:
        raise ValueError(f"--prior-steps must be >= 2, got {args.prior_steps}")
    if args.prior_steps > _MAX_PRIOR_STEPS:
        raise ValueError(f"--prior-steps must be <= {_MAX_PRIOR_STEPS}, got {args.prior_steps}")
    _write(_map_chunks(args.theta_steps, args.prior_steps, args.format), args.out)


def cmd_oracle_two(args: argparse.Namespace) -> None:
    s2 = make_state(args.sep)
    scenario = TwoStateScenario(prior_p=args.prior, confusability_c=math.cos(args.sep) ** 2)
    _run_oracle(analytic.helstrom_two(scenario),
                oracle.optimize_two(make_state(0.0), s2, args.prior), args)


def cmd_oracle_three(args: argparse.Namespace) -> None:
    ensemble = MirrorEnsemble(theta=args.theta, prior_p=args.prior)
    _run_oracle(analytic.quantum_three(ensemble), oracle.optimize_three(ensemble), args)


def _run_oracle(expected: float, result: oracle.OracleResult, args) -> None:
    """Check --tol and report the solver's difference from `expected`."""
    if not 0.0 < args.tol < math.inf:
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    difference = abs(result.success - expected)
    record = {
        "analytic": expected,
        "oracle": result.success,
        "difference": difference,
        "evaluations": result.evaluations,
    }
    _write([_render_record(record, args.format)], args.out)
    if difference > args.tol:
        raise _Failure(EXIT_TOLERANCE,
                       f"|oracle - analytic| = {difference!r} exceeds --tol {args.tol!r}")


def cmd_ontic_check(args: argparse.Namespace) -> None:
    if args.num_models < 1:
        raise ValueError(f"--num-models must be >= 1, got {args.num_models}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    n = args.num_models
    two_pass = three_pass = identity_pass = 0
    for start in range(0, n, _ONTIC_CHUNK):
        # Each model draws its size, then the raw rows and priors of its two-
        # and three-preparation models: 2L, 2, 3L and 3 doubles, which one
        # `rng.random(5L + 5)` yields in the same order as four calls would.
        draws: dict[int, list[np.ndarray]] = {}
        for _ in range(min(_ONTIC_CHUNK, n - start)):
            size = int(rng.integers(2, 33))
            draws.setdefault(size, []).append(rng.random(5 * size + 5))
        for size, rows in draws.items():
            mu2, p2, mu3, p3 = np.split(np.array(rows), [2 * size, 2 * size + 2, 5 * size + 2],
                                        axis=1)
            two = ontic.check_models(*ontic._normalized(mu2.reshape(-1, 2, size), p2))
            three = ontic.check_models(*ontic._normalized(mu3.reshape(-1, 3, size), p3))
            two_pass += int(two.passed.sum())
            three_pass += int(three.passed.sum())
            identity_pass += int(three.decomposition_passed.sum())
    lines = [f"two-state bound: {two_pass}/{n} pass\n",
             f"three-state bound: {three_pass}/{n} pass\n",
             f"decomposition identity: {identity_pass}/{n} pass\n"]
    if n == 1:  # one model, one size group: `two` and `three` hold its checks
        lines[:0] = [f"two-state: success={_fmt(two.success.item())} "
                     f"overlap={_fmt(two.overlaps.item())} "
                     f"bound={_fmt(two.bound.item())} passed={two.passed.item()}\n",
                     f"three-state: success={_fmt(three.success.item())} "
                     f"bound={_fmt(three.bound.item())} passed={three.passed.item()} "
                     f"decomposition_error={_fmt(three.decomposition_error.item())}\n"]
    _write(lines, None)
    if not two_pass == three_pass == identity_pass == n:
        raise _Failure(EXIT_TOLERANCE, "a model fails a bound or the decomposition identity")


def degrees(text: str) -> float:
    """argparse type of the `--*-deg` flags: degrees in, radians out."""
    return math.radians(float(text))


def add_angle(parser: argparse.ArgumentParser, name: str, what: str) -> None:
    """Require `--<name>` (radians) or `--<name>-deg`; both set `args.<name>` in radians."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(f"--{name}", type=float, help=f"{what}, radians")
    group.add_argument(f"--{name}-deg", type=degrees, dest=name, metavar="DEG",
                       help=f"{what}, degrees")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesd",
        description=(
            "Minimum-error state discrimination: quantum optima, "
            "noncontextual bounds, and contextual-advantage maps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--format", choices=("csv", "json"), default="json",
                       help="output format (default json)")

    p_two = sub.add_parser("two", help="two-state bounds for a (prior, overlap) pair")
    p_two.add_argument("--prior", type=float, required=True)
    p_two.add_argument("--overlap", type=float, required=True,
                       help="confusability |<psi1|psi2>|^2")
    add_io(p_two)
    p_two.set_defaults(func=cmd_two)

    p_three = sub.add_parser("three", help="three-state bounds for (theta, prior)")
    add_angle(p_three, "theta", "mirror angle")
    p_three.add_argument("--prior", type=float, required=True)
    add_io(p_three)
    p_three.set_defaults(func=cmd_three)

    p_map = sub.add_parser("map", help="scan the (theta, prior) advantage grid")
    p_map.add_argument("--theta-steps", type=int, required=True)
    p_map.add_argument("--prior-steps", type=int, required=True)
    p_map.add_argument("--out", required=True, help="output file path")
    p_map.add_argument("--format", choices=("csv", "json"), default="csv")
    p_map.set_defaults(func=cmd_map)

    p_o2 = sub.add_parser("oracle-two", help="certified check of the two-state optimum")
    add_angle(p_o2, "sep", "angle between the states")
    p_o2.add_argument("--prior", type=float, required=True)
    p_o2.add_argument("--tol", type=float, default=1e-4)
    add_io(p_o2)
    # Not flags: bench/worker.py reads these solver defaults off the parse.
    p_o2.set_defaults(func=cmd_oracle_two, grid_n=1024, refine_iters=60)

    p_o3 = sub.add_parser("oracle-three", help="certified check of the three-state optimum")
    add_angle(p_o3, "theta", "mirror angle")
    p_o3.add_argument("--prior", type=float, required=True)
    p_o3.add_argument("--tol", type=float, default=1e-3)
    add_io(p_o3)
    p_o3.set_defaults(func=cmd_oracle_three, grid_n=64, refine_iters=200, seed=0)

    p_ontic = sub.add_parser("ontic-check", help="finite-model inequality batch")
    p_ontic.add_argument("--num-models", type=int, default=10000)
    p_ontic.add_argument("--seed", type=int, default=0)
    p_ontic.set_defaults(func=cmd_ontic_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        return EXIT_OK
    except SystemExit as exc:  # argparse exits itself on usage errors / --help
        return int(exc.code or 0)
    except ValueError as exc:  # a flag check or a library type's domain: bad input
        code, message = EXIT_USAGE, str(exc)
    except _Failure as exc:  # an unwritten output or a failed verification
        code, message = exc.args
    try:
        sys.stderr.write(f"error: {message}\n")
    except (OSError, ValueError, AttributeError):  # closed, broken or None: drop the line
        _discard(sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
