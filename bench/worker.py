"""One benchmark worker: a fresh process that imports mesd and runs one batch.

    python3 bench/worker.py SPEC_JSON

The first stdout line, ``ready``, is written as soon as ``mesd.cli`` is
imported, so the parent can time process launch to import (``setup_s``).
The last stdout line is the batch result as JSON.  ``SPEC_JSON`` holds the
workload, batch index, seed, batch size, output directory and whether to
trace; a spec with ``"probe": true`` exits right after the handshake.  The
batch size is the map's steps per axis, the ontic-check model count, or the
number of oracle points.

With tracing, the batch runs untraced first and then traced on the same
inputs, so the result carries both wall times and both output digests.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import mesd.cli  # noqa: E402  (timed by the parent: this import ends set-up)

if __name__ == "__main__":
    print("ready", flush=True)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from mesd import analytic, cli, oracle  # noqa: E402
from mesd.analytic import MirrorEnsemble, TwoStateScenario  # noqa: E402
from mesd.qcore import make_state  # noqa: E402

import spans  # noqa: E402

HALF_PI = math.pi / 2.0


def _threshold_prior(theta: float) -> float:
    # Same expression as the closed form's branch point p*(theta).
    c = math.cos(theta)
    return 1.0 / (2.0 + c * (c + math.sin(theta)))


def three_point(seed: int, i: int) -> tuple[float, float]:
    """Point i of the seeded (theta, prior) sweep over [0, pi/2] x [0, 1/2].

    Half the points are uniform; the rest sit on the edges, exactly on the
    branch point p*(theta), exactly on the cap's break p = 1/3, or on corners.
    """
    rng = random.Random(f"three:{seed}:{i}")
    theta = rng.uniform(0.0, HALF_PI)
    kind = i % 10
    if kind == 5:
        return (0.0, HALF_PI)[rng.randrange(2)], rng.uniform(0.0, 0.5)
    if kind == 6:
        return theta, (0.0, 0.5)[rng.randrange(2)]
    if kind == 7:
        return theta, _threshold_prior(theta)
    if kind == 8:
        return theta, 1.0 / 3.0
    if kind == 9:
        corners = [(0.0, 0.0), (0.0, 0.5), (HALF_PI, 0.0), (HALF_PI, 0.5),
                   (0.0, 1.0 / 3.0), (HALF_PI, _threshold_prior(HALF_PI)),
                   (math.pi / 4.0, 1.0 / 3.0)]
        return corners[rng.randrange(len(corners))]
    return theta, rng.uniform(0.0, 0.5)


def two_point(seed: int, i: int) -> tuple[float, float]:
    """Point i of the seeded (separation, prior) sweep over [0, pi/2] x [0, 1]."""
    rng = random.Random(f"two:{seed}:{i}")
    sep = rng.uniform(0.0, HALF_PI)
    kind = i % 10
    if kind == 6:
        return (0.0, HALF_PI)[rng.randrange(2)], rng.uniform(0.0, 1.0)
    if kind == 7:
        return sep, (0.0, 1.0)[rng.randrange(2)]
    if kind == 8:
        return sep, 0.5
    if kind == 9:
        return (0.0, HALF_PI)[rng.randrange(2)], (0.0, 0.5, 1.0)[rng.randrange(3)]
    return sep, rng.uniform(0.0, 1.0)


def _oracle_defaults(command: str) -> dict:
    """The CLI's default --grid-n, --refine-iters, --seed and --tol."""
    args = cli.build_parser().parse_args([command, "--theta" if command == "oracle-three"
                                          else "--sep", "0", "--prior", "0"])
    return {k: getattr(args, k) for k in ("grid_n", "refine_iters", "seed", "tol")
            if hasattr(args, k)}


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_map(spec: dict) -> dict:
    fmt = spec["workload"].split("-")[1]
    steps = spec["size"]
    path = os.path.join(spec["out_dir"], f"map-{os.getpid()}.{fmt}")
    argv = ["map", "--theta-steps", str(steps), "--prior-steps", str(steps),
            "--format", fmt, "--out", path]
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
        error = None if code == 0 else f"exit {code}"
    except Exception as exc:  # counted as a failed operation
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    digest = _sha256_file(path) if os.path.exists(path) else None
    if os.path.exists(path):
        os.remove(path)
    return {"ops": [{"s": seconds, "items": steps * steps, "error": error}], "digest": digest}


_PASS_LINE = re.compile(r"^(two-state bound|three-state bound|decomposition identity): "
                        r"(\d+)/(\d+) pass$", re.M)


def run_ontic(spec: dict) -> dict:
    n = spec["size"]
    argv = ["ontic-check", "--num-models", str(n),
            "--seed", str(spec["seed"] * 1000 + spec["batch"])]
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        error = None if code == 0 else f"exit {code}"
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    counts = {m.group(1): (int(m.group(2)), int(m.group(3)))
              for m in _PASS_LINE.finditer(text)}
    passes = sum(p for p, _ in counts.values())
    if error is None and (len(counts) != 3 or any(p != n or t != n for p, t in counts.values())):
        error = f"pass counts {counts} differ from {n}"
    return {"ops": [{"s": seconds, "items": n, "error": error}], "checks": 3 * n,
            "passes": passes, "digest": hashlib.sha256(text.encode()).hexdigest()}


def _run_oracle_points(points, solve, tol: float) -> dict:
    """Shared loop of the oracle workloads: `solve(point)` returns
    (closed form, OracleResult, oracle call seconds)."""
    ops, digest, max_err, evaluations = [], hashlib.sha256(), 0.0, 0
    for point in points:
        t0 = time.perf_counter()
        try:
            expected, result, call_s = solve(point)
        except Exception as exc:
            ops.append({"s": time.perf_counter() - t0, "items": 1,
                        "error": f"{type(exc).__name__}: {exc}"})
            continue
        seconds = time.perf_counter() - t0
        err = abs(result.success - expected)
        max_err = max(max_err, err)
        evaluations += result.evaluations
        digest.update(repr((result.success, result.evaluations)).encode())
        error = None if err <= tol else f"|oracle - closed form| = {err!r} at {point}"
        ops.append({"s": seconds, "items": 1, "call_ms": call_s * 1e3, "error": error})
    return {"ops": ops, "max_abs_err": max_err,
            "evaluations": evaluations, "digest": digest.hexdigest()}


def run_oracle_three(spec: dict) -> dict:
    opts = _oracle_defaults("oracle-three")
    start = spec["batch"] * spec["size"]
    points = [three_point(spec["seed"], i) for i in range(start, start + spec["size"])]

    def solve(point):
        ensemble = MirrorEnsemble(theta=point[0], prior_p=point[1])
        expected = analytic.quantum_three(ensemble)
        t0 = time.perf_counter()
        result = oracle.optimize_three(ensemble, grid_n=opts["grid_n"],
                                       refine_iters=opts["refine_iters"], seed=opts["seed"])
        return expected, result, time.perf_counter() - t0

    return _run_oracle_points(points, solve, opts["tol"])


def run_oracle_two(spec: dict) -> dict:
    opts = _oracle_defaults("oracle-two")
    start = spec["batch"] * spec["size"]
    points = [two_point(spec["seed"], i) for i in range(start, start + spec["size"])]

    def solve(point):
        sep, prior = point
        s1, s2 = make_state(0.0), make_state(sep)
        expected = analytic.helstrom_two(
            TwoStateScenario(prior_p=prior, confusability_c=math.cos(sep) ** 2))
        t0 = time.perf_counter()
        result = oracle.optimize_two(s1, s2, prior, grid_n=opts["grid_n"],
                                     refine_iters=opts["refine_iters"])
        return expected, result, time.perf_counter() - t0

    return _run_oracle_points(points, solve, opts["tol"])


RUNNERS = {
    "map-csv": run_map,
    "map-json": run_map,
    "oracle-three": run_oracle_three,
    "oracle-two": run_oracle_two,
    "ontic-check": run_ontic,
}


def _traced(spec: dict) -> dict:
    """Run the batch untraced, then traced on the same inputs."""
    run = RUNNERS[spec["workload"]]
    t0 = time.perf_counter()
    plain = run(spec)
    untraced_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    cost_total, cost_self = tracer.span_cost()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = run(spec)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    traced["trace"] = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "untraced_digest": plain["digest"],
        "untraced_errors": [op["error"] for op in plain["ops"] if op["error"]],
        "untraced_ops_s": sum(op["s"] for op in plain["ops"]),
        "span_cost_s": [cost_total, cost_self],
        "stats": [[parent, name, *agg] for (parent, name), agg in tracer.stats.items()],
        "samples": tracer.samples,
        "bytes_out": tracer.bytes_out,
        "leftover_wrappers": spans.leftover_wrappers(),
    }
    return traced


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("probe"):
        return 0
    if not os.path.realpath(mesd.cli.__file__).startswith(os.path.realpath(ROOT) + os.sep):
        print(f"error: mesd imported from {mesd.cli.__file__}, not from {ROOT}", file=sys.stderr)
        return 2
    result = _traced(spec) if spec["trace"] else RUNNERS[spec["workload"]](spec)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["python"] = platform.python_version()
    result["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
