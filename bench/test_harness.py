"""Self-test of the benchmark harness on tiny inputs.

    python3 -m pytest bench/test_harness.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the traced run's outputs are byte-identical to the untraced ones, that the
correctness gate counts a digest mismatch, that tracing leaves no wrapper
behind, and that the benchmark refuses to run without the mesd sources.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, os.path.join(run.ROOT, "src"))


def _declared(kind: str) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _tiny(workload: str, trace: bool) -> tuple[dict, dict]:
    result = run.run_workload(workload, seed=3, seconds=0, trace=trace, scale="tiny")
    return result, run.evaluate(result, run._load_digests())[0]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_metrics_emitted_and_traced_outputs_identical(workload):
    plain_run, plain = _tiny(workload, trace=False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced_run, traced = _tiny(workload, trace=True)
    assert traced["correct"] and traced["failed"] == 0
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == _declared("per_layer")
    assert len(traced_run["batches"]) == len(plain_run["batches"])
    for plain_batch, traced_batch in zip(plain_run["batches"], traced_run["batches"]):
        trace = traced_batch["trace"]
        assert traced_batch["digest"] == trace["untraced_digest"] == plain_batch["digest"]
        assert trace["leftover_wrappers"] == []
        assert trace["stats"]


def test_digest_mismatch_fails_every_operation():
    result = run.run_workload("map-csv", seed=3, seconds=0, trace=False, scale="tiny")
    wrong = dict(run._load_digests(), **{"map-csv-11x11": "0" * 64})
    evaluated, lines = run.evaluate(result, wrong)
    assert not evaluated["correct"]
    assert evaluated["failed"] == evaluated["attempted"] == 1
    assert any(line.startswith("FAIL map-csv: output digest") for line in lines)


def test_tracer_wraps_every_binding_and_restores_it():
    import mesd.cli  # noqa: F401  (loads every mesd module)

    before = {(m.__name__, k): v for m in spans._package_modules() for k, v in vars(m).items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        import mesd.oracle
        import mesd.qcore

        # oracle imports born_probability by name, so its binding is wrapped too
        assert mesd.oracle.born_probability is not before[("mesd.oracle", "born_probability")]
        assert "mesd.qcore.Effect.__init__" in spans.leftover_wrappers()
        with contextlib.redirect_stdout(io.StringIO()):
            assert mesd.cli.main(["ontic-check", "--num-models", "3", "--seed", "1"]) == 0
    finally:
        tracer.uninstall()
    assert spans.leftover_wrappers() == []
    after = {(m.__name__, k): v for m in spans._package_modules() for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert tracer.stats[("cli.cmd_ontic_check", "ontic.random_model")][0] == 6
    assert tracer.stats[("ontic.random_model", "qcore.PriorDistribution")][0] == 6


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ontic-check",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
