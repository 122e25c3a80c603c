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
own text).  A flag check or a library type raises `ValueError` (exit 2),
also one met while `map` computes the rows it streams.
A failed write raises `_Failure` with exit 3: an `OSError`, no stdout, a
closed stream, or an `--out` path that `open` rejects.  An oracle difference
above `--tol` and an ontic-check model failing a bound or the identity raise
it with exit 4, after their output is written.  A closed, missing or broken
stderr drops the line and keeps the code.

Output is deterministic: identical configuration gives byte-identical files.
Records and map cells share one number rule and one layout: `_numbers`
writes every float (`%.9g` in CSV, in JSON what `json.dumps` writes of that
text's float), and `_cell` lays out every record and cell (a CSV line, or a
JSON object as `json.dumps(..., indent=2)` would place it).  `map` computes
and writes theta-row slices of at most 256 cells, each rendered with one `%`
of a slice-wide template built once per map: the cell template joined once
per cell, its three numbers in `%.9g` slots.  A JSON slice with a cell
whose numbers may read otherwise in JSON (`1.0` for `1`) joins its own
template, that cell's numbers in text slots.  The prior column, rendered
once per map, is all its memory holds per prior, about 80 bytes, so
`--prior-steps` is at most 2**20.  `ontic-check` tallies the checks
that `ontic.check_random_models` yields for `--num-models` model pairs drawn
from `--seed` (>= 0), one group of a single ontic-space size at a time, so
its memory does not depend on `--num-models`.  Angles take radians (`--theta`,
`--sep`) or degrees (`--theta-deg`, `--sep-deg`).  The oracles call
`optimize_two` and `optimize_three` at their defaults: no flag sets their
`grid_n`, `refine_iters` or `seed`.  Of these, only `optimize_two`'s
`grid_n` steers anything: it sizes that solver's angle grid, 1024 angles, so
`oracle-two` reports 1025 evaluations.
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
_MAP_FIELDS = ("theta", "prior", "s_quantum", "s_nc_bound", "gap", "advantage")


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
    closed stream, a path `open` rejects), raises `_Failure` with `EXIT_IO`.
    An error raised while computing a chunk (`map`'s are lazy) is no write
    failure: the chunks before it are written, then it is raised as it was."""
    compute_errors: list[Exception] = []

    def computed() -> Iterator[str]:
        try:
            yield from chunks
        except (OSError, ValueError) as exc:
            compute_errors.append(exc)

    try:
        if out is None:
            if sys.stdout is None:  # Python's stdout when fd 1 was closed at start
                raise OSError("fd 1 is closed")
            sys.stdout.writelines(computed())  # looked up per call: it may be redirected
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(computed())
    except (OSError, ValueError) as exc:
        if out is None:
            _discard(sys.stdout)
        where = "stdout" if out is None else out if out.isprintable() else repr(out)[1:-1]
        raise _Failure(EXIT_IO, f"cannot write {where}: {exc}")
    if compute_errors:
        raise compute_errors[0]


def _numbers(values: np.ndarray, fmt: str) -> list[str]:
    """The text in `fmt` of each finite v of `values`: in CSV `"%.9g" % (v + 0.0)`
    (`+ 0.0` canonicalizes -0.0); in JSON what `json.dumps` writes of that
    text's float, the shortest round-trip of its 9-significant-digit value, so
    1 reads `1.0`.

    The JSON text is the `%.9g` text, with `.0` appended if it has neither `.`
    nor `e`: any decimal of at most 15 digits round-trips, so no shorter one
    reads the same float.  Where the text's exponent is 9 to 15 (`repr`
    writes `1e+09` as `1000000000.0`) or -308 and below (subnormals hold
    fewer digits), it is `repr(float(text))` instead."""
    texts = list(map("%.9g".__mod__, (values + 0.0).tolist()))
    if fmt == "csv":
        return texts
    return [t if "e" not in t and "." in t else _json_text(t) for t in texts]


def _json_text(text: str) -> str:
    """`_numbers`' JSON rule for a `%.9g` text that has an `e` or no `.`."""
    if "e" not in text:
        return text + ".0"
    exponent = int(text.partition("e")[2])
    return repr(float(text)) if 9 <= exponent <= 15 or exponent <= -308 else text


def _cell(fmt: str, fields: Sequence[str], slots: Sequence[str], depth: int) -> str:
    """One record or map cell, the text of each of its `fields` in a slot: a
    CSV line, or the object that `json.dumps(..., indent=2)` writes at `depth`
    of its payload (0 for a record, 2 for a map cell), from the indent of its
    first line to its closing brace.  A CSV header is the cell of its fields."""
    if fmt == "csv":
        return ",".join(slots) + "\n"
    pad = "  " * depth
    return pad + "{" + ",".join(f"\n{pad}  {json.dumps(k)}: {slot}"
                                for k, slot in zip(fields, slots)) + f"\n{pad}}}"


def _render_record(record: dict, fmt: str) -> str:
    """`record` as a CSV header and line, or as the JSON object that
    `json.dumps(record, indent=2)` writes with its floats' text from `_numbers`;
    a CSV int takes `_numbers`' text too.  Every record float is finite, as
    `_numbers` requires (its JSON rule writes no `NaN` or `Infinity`): the
    commands' inputs are validated, and `quantum` is clamped to [0, 1]."""
    slots = [("false", "true")[v] if isinstance(v, bool)
             else (v if fmt == "csv" else json.dumps(v)) if isinstance(v, str)
             else str(v) if isinstance(v, int) and fmt == "json"
             else _numbers(np.array([v]), fmt)[0] for v in record.values()]
    if fmt == "csv":
        return _cell(fmt, record, record, 0) + _cell(fmt, record, slots, 0)
    return _cell(fmt, record, slots, 0) + "\n"


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


def _json_special(column: np.ndarray) -> np.ndarray:
    """Marks each v of `column` whose JSON `_numbers` text may differ from
    `"%.9g" % (v + 0.0)`: |v - rint(v)| <= 1e-8 * max(1, |v|), which holds
    for every v that `%.9g` rounds to an integer (0 included) and for every
    |v| <= 1e-8 (so every exponent of -308 and below), or |v| >= 1e8 (so
    every exponent of 9 to 15), or v not finite.  |v| is capped at 1e8
    before `rint`, which marks the last two without an inf - inf."""
    capped = np.minimum(np.abs(column), 1e8)
    return ~(np.abs(capped - np.rint(capped)) > 1e-8 * np.maximum(capped, 1.0))


def _map_frame(theta_steps: int, prior_steps: int, fmt: str) -> tuple[str, str]:
    """The map file's text before and after its cells: the CSV header, or the
    JSON payload around the cells list."""
    if fmt == "csv":
        return _cell(fmt, _MAP_FIELDS, _MAP_FIELDS, 0), ""
    config = {
        "command": "map",
        "theta_steps": theta_steps,
        "prior_steps": prior_steps,
        "format": fmt,
    }
    head, tail = json.dumps({"config": config, "cells": []}, indent=2).split("[]")
    return head + "[\n", "\n  ]" + tail + "\n"


def _map_chunks(theta_steps: int, prior_steps: int, fmt: str) -> Iterator[str]:
    """The map file in pieces of at most `_MAP_CHUNK` cells, theta-major,
    between the text of `_map_frame`.  Each piece is one slice of a theta-row,
    computed by `analytic.advantage_three_row` and rendered with one `%` of
    its length's template from a flat tuple, cell by cell: theta and prior
    as `_numbers` texts, the three number columns as floats in `%.9g` slots.
    The templates and the prior texts are made once per map.  A JSON slice
    with cells that `_json_special` marks instead joins its template per
    cell, a marked cell's numbers as `_numbers` texts in `%s` slots.  Row i's
    angle is capped at `HALF_PI`, which `HALF_PI * i / (theta_steps - 1)`
    overshoots by one ulp in the last row at some counts (14, 27, 48, ...)."""
    head, tail = _map_frame(theta_steps, prior_steps, fmt)
    separator = ",\n" if fmt == "json" else ""
    cell = _cell(fmt, _MAP_FIELDS, ("%s", "%s", "%.9g", "%.9g", "%.9g", "%s"), 2)
    text_cell = _cell(fmt, _MAP_FIELDS, ["%s"] * 6, 2)
    priors = [0.5 * np.arange(start, min(start + _MAP_CHUNK, prior_steps)) / (prior_steps - 1)
              for start in range(0, prior_steps, _MAP_CHUNK)]
    slices = [(prior, _numbers(prior, fmt)) for prior in priors]
    templates = {len(prior): separator.join([cell] * len(prior)) for prior in priors}
    yield head
    lead = ""
    for i in range(theta_steps):
        theta = min(analytic.HALF_PI, analytic.HALF_PI * i / (theta_steps - 1))
        theta_text = _numbers(np.array([theta]), fmt)[0]
        for prior, prior_texts in slices:
            quantum, nc, gap = columns = analytic.advantage_three_row(theta, prior)
            flat = [theta_text] * (6 * len(prior))
            flat[1::6] = prior_texts
            flat[2::6] = (quantum + 0.0).tolist()
            flat[3::6] = (nc + 0.0).tolist()
            flat[4::6] = (gap + 0.0).tolist()
            flat[5::6] = [("false", "true")[a] for a in (gap > analytic.ADVANTAGE_TOL).tolist()]
            template = templates[len(prior)]
            if fmt == "json":
                marked = _json_special(quantum) | _json_special(nc) | _json_special(gap)
                if marked.any():
                    template = separator.join([(cell, text_cell)[m] for m in marked.tolist()])
                    at = np.flatnonzero(marked)
                    for k, *numbers in zip(at.tolist(), *(_numbers(c[at], fmt) for c in columns)):
                        flat[6 * k + 2:6 * k + 5] = numbers
            yield lead + template % tuple(flat)
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
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    n = args.num_models
    two_pass = three_pass = identity_pass = 0
    for two, three in ontic.check_random_models(np.random.default_rng(args.seed), n):
        two_pass += int(two.passed.sum())
        three_pass += int(three.passed.sum())
        identity_pass += int(three.decomposition_passed.sum())
    lines = [f"two-state bound: {two_pass}/{n} pass\n",
             f"three-state bound: {three_pass}/{n} pass\n",
             f"decomposition identity: {identity_pass}/{n} pass\n"]
    if n == 1:  # one model, one partial group: `two` and `three` hold its checks
        s2, o2, b2, s3, b3, e3 = _numbers(np.array([a.item() for a in (
            two.success, two.overlaps, two.bound,
            three.success, three.bound, three.decomposition_error)]), "csv")
        lines[:0] = [f"two-state: success={s2} overlap={o2} bound={b2} "
                     f"passed={two.passed.item()}\n",
                     f"three-state: success={s3} bound={b3} passed={three.passed.item()} "
                     f"decomposition_error={e3}\n"]
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
