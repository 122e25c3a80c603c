import contextlib
import dataclasses
import errno
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mesd import analytic, cli, ontic, oracle
from mesd.analytic import MirrorEnsemble, TwoStateScenario
from mesd.cli import main
from mesd.qcore import PriorDistribution, make_state, validate_povm

MAP_HEADER = "theta,prior,s_quantum,s_nc_bound,gap,advantage"
ANGLE_FLAGS = [("three", "--theta"), ("oracle-three", "--theta"), ("oracle-two", "--sep")]


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def parse_csv(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        row = {}
        for key, value in zip(header, parts):
            if value in ("true", "false"):
                row[key] = value == "true"
            elif key == "branch":
                row[key] = value
            else:
                row[key] = float(value)
        rows.append(row)
    return rows


# Reference renderers that use no cli code: a float is written with 9
# significant digits, -0.0 as 0, and JSON carries the float of that text.
def ref_9g(value: float) -> str:
    return "%.9g" % (value + 0.0)


def ref_json_number(value: float) -> str:
    return json.dumps(float(ref_9g(value)))


def ref_json_obj(record: dict) -> dict:
    """`record` with each float replaced by the float of its 9-digit text."""
    return {k: v if isinstance(v, (bool, str, int)) else float(ref_9g(v))
            for k, v in record.items()}


def ref_record(record: dict, fmt: str) -> str:
    """A command's record as defined: a CSV header and line, or one
    `json.dumps(..., indent=2)` of the record."""
    if fmt == "json":
        return json.dumps(ref_json_obj(record), indent=2) + "\n"
    values = [str(v).lower() if isinstance(v, bool) else v if isinstance(v, str)
              else ref_9g(v) for v in record.values()]
    return ",".join(record) + "\n" + ",".join(values) + "\n"


def reference_map(theta_steps: int, prior_steps: int, fmt: str) -> str:
    """The map file as defined: scalar `advantage_three` cells, theta-major,
    row i at angle (pi/2) * i / (theta_steps - 1) capped at pi/2; a CSV line
    of `ref_9g` fields per cell, or each cell through `ref_json_obj` in one
    `json.dumps(..., indent=2)` of the payload."""
    records = []
    for i in range(theta_steps):
        theta = min(math.pi / 2, (math.pi / 2) * i / (theta_steps - 1))
        for j in range(prior_steps):
            prior = 0.5 * j / (prior_steps - 1)
            pair = analytic.advantage_three(MirrorEnsemble(theta=theta, prior_p=prior))
            records.append({"theta": theta, "prior": prior, "s_quantum": pair.quantum,
                            "s_nc_bound": pair.noncontextual, "gap": pair.gap,
                            "advantage": pair.advantage})
    if fmt == "csv":
        return MAP_HEADER + "\n" + "".join(
            ",".join([*map(ref_9g, list(r.values())[:5]), str(r["advantage"]).lower()]) + "\n"
            for r in records)
    config = {"command": "map", "theta_steps": theta_steps,
              "prior_steps": prior_steps, "format": fmt}
    return json.dumps({"config": config, "cells": [ref_json_obj(r) for r in records]},
                      indent=2) + "\n"


def library_record(command: str, x: float, prior: float) -> dict:
    """The record `command` reports at `x` (the overlap, or the angle in
    degrees) and `prior`, from the library calls it makes."""
    if command == "two":
        pair = analytic.advantage_two(TwoStateScenario(prior_p=prior, confusability_c=x))
        return {"helstrom": pair.quantum, "nc_bound": pair.noncontextual,
                "gap": pair.gap, "advantage": pair.advantage}
    if command == "oracle-two":
        sep = math.radians(x)
        expected = analytic.helstrom_two(
            TwoStateScenario(prior_p=prior, confusability_c=math.cos(sep) ** 2))
        result = oracle.optimize_two(make_state(0.0), make_state(sep), prior)
    else:
        ensemble = MirrorEnsemble(theta=math.radians(x), prior_p=prior)
        if command == "three":
            pair = analytic.advantage_three(ensemble)
            return {"threshold_prior": analytic.threshold_prior(math.radians(x)),
                    "branch": analytic.quantum_three_branch(ensemble), "s_quantum": pair.quantum,
                    "s_nc_bound": pair.noncontextual, "gap": pair.gap,
                    "advantage": pair.advantage}
        expected, result = analytic.quantum_three(ensemble), oracle.optimize_three(ensemble)
    return {"analytic": expected, "oracle": result.success,
            "difference": abs(result.success - expected), "evaluations": result.evaluations}


RECORD_CASES = [("two", 0.5, 0.5), ("two", 0.0, 0.5), ("three", 0.0, 0.5), ("three", 60.0, 0.3),
                ("oracle-two", 30.0, 0.3), ("oracle-three", 0.0, 0.5),
                ("oracle-three", 60.0, 0.3)]


class TestRecordBytes:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command, x, prior", RECORD_CASES)
    def test_record_matches_reference(self, capsys, command, x, prior, fmt):
        flag = {"two": "--overlap", "oracle-two": "--sep-deg"}.get(command, "--theta-deg")
        code, out = run(capsys, command, flag, str(x), "--prior", str(prior), "--format", fmt)
        assert code == 0
        assert out == ref_record(library_record(command, x, prior), fmt)

    def test_cases_hold_every_kind_of_field(self):
        # a branch string, an int count, an exact zero difference, and floats
        # whose 9-digit texts read 1 and 0
        records = [library_record(*case) for case in RECORD_CASES]
        values = [v for r in records for v in r.values()]
        assert any(isinstance(v, str) for v in values)
        assert any(type(v) is int for v in values)
        assert any(r.get("difference") == 0.0 for r in records)
        floats = {ref_9g(v) for v in values if type(v) is float}
        assert {"1", "0"} <= floats


class TestCmdTwo:
    def test_half_half(self, capsys):
        code, out = run(capsys, "two", "--prior", "0.5", "--overlap", "0.5")
        assert code == 0
        record = json.loads(out)
        assert record["helstrom"] == pytest.approx(0.8535534, abs=1e-6)
        assert record["nc_bound"] == pytest.approx(0.75, abs=1e-9)
        assert record["advantage"] is True

    def test_orthogonal(self, capsys):
        code, out = run(capsys, "two", "--prior", "0.5", "--overlap", "0")
        assert code == 0
        record = json.loads(out)
        assert record["helstrom"] == 1.0
        assert record["nc_bound"] == 1.0
        assert record["advantage"] is False

    def test_prior_out_of_range_exits_2(self, capsys):
        code = main(["two", "--prior", "1.5", "--overlap", "0.2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--prior" in captured.err

    def test_overlap_out_of_range_exits_2(self, capsys):
        code = main(["two", "--prior", "0.5", "--overlap", "1.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--overlap" in captured.err

    def test_unwritable_out_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "x.json"
        assert main(["two", "--prior", "0.5", "--overlap", "0.5", "--out", str(missing)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {missing}")
        assert captured.out == ""

    def test_csv_format(self, capsys):
        code, out = run(capsys, "two", "--prior", "0.5", "--overlap", "0.5",
                        "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["gap"] == pytest.approx(0.1035534, abs=1e-6)


class TestCmdThree:
    def test_trine_prior_third(self, capsys):
        code, out = run(capsys, "three", "--theta-deg", "60", "--prior", "0.3333333")
        assert code == 0
        record = json.loads(out)
        assert record["s_quantum"] == pytest.approx(0.6666667, abs=1e-6)
        assert record["s_nc_bound"] == pytest.approx(0.8333333, abs=1e-6)
        assert record["advantage"] is False
        assert record["branch"] == "low-prior"

    def test_trine_prior_half(self, capsys):
        code, out = run(capsys, "three", "--theta-deg", "60", "--prior", "0.5")
        assert code == 0
        record = json.loads(out)
        assert record["s_quantum"] == pytest.approx(0.9330127, abs=1e-6)
        assert record["s_nc_bound"] == pytest.approx(0.875, abs=1e-9)
        assert record["advantage"] is True
        assert record["threshold_prior"] == pytest.approx(0.3727153, abs=1e-6)

    def test_orthogonal_pair(self, capsys):
        code, out = run(capsys, "three", "--theta-deg", "45", "--prior", "0.5")
        assert code == 0
        record = json.loads(out)
        assert record["s_quantum"] == 1.0
        assert record["s_nc_bound"] == 1.0
        assert record["advantage"] is False

    def test_radians_flag(self, capsys):
        code, out = run(capsys, "three", "--theta", str(math.pi / 3), "--prior", "0.5")
        assert code == 0
        assert json.loads(out)["s_quantum"] == pytest.approx(0.9330127, abs=1e-6)

    def test_theta_out_of_range_exits_2(self, capsys):
        assert main(["three", "--theta-deg", "95", "--prior", "0.3"]) == 2
        capsys.readouterr()

    def test_prior_out_of_range_exits_2(self, capsys):
        assert main(["three", "--theta-deg", "60", "--prior", "0.6"]) == 2
        capsys.readouterr()


class TestCmdMap:
    def test_schema_and_order(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["map", "--theta-steps", "5", "--prior-steps", "4",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        text = out.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == MAP_HEADER
        rows = parse_csv(text)
        assert len(rows) == 5 * 4
        # theta-major ascending with inclusive endpoints
        thetas = [r["theta"] for r in rows]
        assert thetas == sorted(thetas)
        assert rows[0]["theta"] == 0.0 and rows[0]["prior"] == 0.0
        assert rows[-1]["theta"] == pytest.approx(math.pi / 2, abs=1e-6)
        assert rows[-1]["prior"] == 0.5
        priors_first_block = [r["prior"] for r in rows[:4]]
        assert priors_first_block == sorted(priors_first_block)

    def test_gap_is_difference(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["map", "--theta-steps", "7", "--prior-steps", "6",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rows = parse_csv(out.read_text())
        for row in rows:
            assert row["gap"] == pytest.approx(
                row["s_quantum"] - row["s_nc_bound"], abs=1e-8
            )
            assert row["advantage"] == (row["gap"] > 1e-12)
        # both models reach 1 for the orthogonal pair with no third state
        quarter = [
            r for r in rows
            if abs(r["theta"] - math.pi / 4) < 1e-9 and r["prior"] == 0.5
        ]
        assert len(quarter) == 1
        assert abs(quarter[0]["gap"]) <= 1e-12

    def test_nine_significant_digit_rendering(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["map", "--theta-steps", "5", "--prior-steps", "4",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[-1].startswith("1.57079633,0.5,")
        assert any(line.startswith("0.785398163,") for line in lines)

    def test_byte_identical_runs(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["map", "--theta-steps", "9", "--prior-steps", "8",
                     "--out", str(a)]) == 0
        assert main(["map", "--theta-steps", "9", "--prior-steps", "8",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_runs_in_each_format(self, tmp_path, capsys):
        for fmt in ("csv", "json"):
            first = tmp_path / f"first.{fmt}"
            second = tmp_path / f"second.{fmt}"
            assert main(["map", "--theta-steps", "11", "--prior-steps", "9",
                         "--out", str(first), "--format", fmt]) == 0
            assert main(["map", "--theta-steps", "11", "--prior-steps", "9",
                         "--out", str(second), "--format", fmt]) == 0
            capsys.readouterr()
            assert first.read_bytes() == second.read_bytes()

    def test_sign_change_along_trine_row(self, tmp_path, capsys):
        # at theta = pi/3 the gap flips sign between priors 0.46 and 0.47
        out = tmp_path / "grid.csv"
        assert main(["map", "--theta-steps", "181", "--prior-steps", "101",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rows = parse_csv(out.read_text())
        trine_row = [r for r in rows if abs(r["theta"] - math.pi / 3) < 1e-6]
        assert len(trine_row) == 101
        by_prior = {round(r["prior"], 4): r["gap"] for r in trine_row}
        assert by_prior[0.46] < 0.0
        assert by_prior[0.47] > 0.0

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        assert main(["map", "--theta-steps", "3", "--prior-steps", "3",
                     "--out", str(out), "--format", "json"]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "cells"}
        assert payload["config"] == {
            "command": "map", "theta_steps": 3, "prior_steps": 3, "format": "json",
        }
        assert len(payload["cells"]) == 9
        assert set(payload["cells"][0]) == {
            "theta", "prior", "s_quantum", "s_nc_bound", "gap", "advantage",
        }

    def test_unwritable_path_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "grid.csv"
        assert main(["map", "--theta-steps", "3", "--prior-steps", "3",
                     "--out", str(missing)]) == 3
        capsys.readouterr()

    def test_compute_error_exits_2_not_3(self, tmp_path, capsys, monkeypatch):
        # the map's rows are computed while they are written: an error from
        # computing one is bad input (exit 2), not a write failure (exit 3)
        row = analytic.advantage_three_row

        def second_row_fails(theta, priors):
            if theta > 0.0:
                raise ValueError(f"theta must lie in [0, pi/2], got {theta!r}")
            return row(theta, priors)

        monkeypatch.setattr(analytic, "advantage_three_row", second_row_fails)
        out = tmp_path / "grid.csv"
        assert main(["map", "--theta-steps", "3", "--prior-steps", "3",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured == ("", f"error: theta must lie in [0, pi/2], got {math.pi / 4!r}\n")
        # streamed: the header and the first row were written before the error
        assert out.read_text() == "".join(
            reference_map(3, 3, "csv").splitlines(keepends=True)[:4])

    def test_too_few_steps_exits_2(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["map", "--theta-steps", "1", "--prior-steps", "5",
                     "--out", str(out)]) == 2
        assert main(["map", "--theta-steps", "5", "--prior-steps", "1",
                     "--out", str(out)]) == 2
        assert "--prior-steps" in capsys.readouterr().err
        assert not out.exists()

    def test_oversize_prior_steps_exits_2_before_allocating(self, tmp_path, capsys,
                                                            monkeypatch):
        def no_column(*args, **kwargs):
            raise AssertionError("prior column allocated")

        monkeypatch.setattr(cli.np, "arange", no_column)
        out = tmp_path / "grid.csv"
        assert main(["map", "--theta-steps", "2", "--prior-steps", str(2**20 + 1),
                     "--out", str(out)]) == 2
        assert "--prior-steps" in capsys.readouterr().err
        assert not out.exists()

    # Reference SHA-256 of the map bytes.  4x4 puts p = 1/3 = p*(0) on the
    # grid; 7x4 puts p = 1/3, theta = pi/6 and theta = pi/3 on it.  The map
    # is written in pieces of at most 256 cells, each a slice of one
    # theta-row: a row fits one piece at 23x29 and exactly at 2x256, and
    # needs two at 3x257 and three at 2x513.
    @pytest.mark.parametrize("fmt,theta_steps,prior_steps,digest", [
        ("csv", 2, 2, "2a0b8e2d5c84785bf1ef46ff3c353b7830d20b09ee5963e9fdfb20f511865c95"),
        ("csv", 4, 4, "7ee3d055017e243cda2c34a00b4862c562533024102dc5fffac92f0bacb1e19f"),
        ("csv", 7, 4, "a19ffbf29b641d8741754f2c121b2f3d30ff34ea6a5989aef1f992e2b4bdbc9c"),
        ("csv", 11, 11, "3774173d8363a86b495fe21cee1b4252a213f99f61dd6794df6a3e4a4755050c"),
        ("json", 2, 2, "f221f4d5670e59df0dd61fa4bb68d47dcdb6859992b51cdc72a6f5f7ec88f341"),
        ("json", 4, 4, "98a352793f70da5f868d7914ec0ca42aac90aa21f8b4353a8ceb2b473db7fbea"),
        ("json", 7, 4, "b753cf99c49d1f91818194b897b0e298550253bcb86a8534502c2bb1cd5fb873"),
        ("json", 11, 11, "e7be4faa4f11a9f2b99ca510fa01197ad82faf7a0ab8f5fb36b83ca265787645"),
        ("csv", 23, 29, "e96833f27cf16551228752702ad55c51e89cf5dc5ed026621ee21a429cf1e2a2"),
        ("json", 23, 29, "0ed3cba419e7ce5365830cf7efcd0b2172ccb0e9595c2f573b75978a61843cb9"),
        ("csv", 2, 256, "40209412e9321c1226fa492c09c0a0bb128e43c51e7a08f827e75a2f38912fff"),
        ("json", 2, 256, "5c85c43113e6212b8634ace137134d3f940e0d98ef778894b29f630f6d558cd3"),
        ("csv", 3, 257, "cdd13479e1aa73f71b9f4ea865bbe276272104c3c849d2a5ea0ccd89a385acf0"),
        ("json", 3, 257, "e835f93ae3f787c44d5480d4268fe03dc1ec5de9a982162de4074e4eb5f1e709"),
        ("csv", 2, 513, "bf06ea490b7232d5a6f5a0b803f6a5d8bfaaa5ae997d8649f48c741fb3d2139d"),
        ("json", 2, 513, "a0e2e38b635453a087bdd909e046ed6f6356e286142105e499a6ea83ae2a6e8b"),
    ])
    def test_bytes_match_reference_digest(self, tmp_path, capsys, fmt,
                                          theta_steps, prior_steps, digest):
        out = tmp_path / f"grid.{fmt}"
        assert main(["map", "--theta-steps", str(theta_steps),
                     "--prior-steps", str(prior_steps),
                     "--out", str(out), "--format", fmt]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("theta_steps,prior_steps", [(2, 2), (3, 257), (5, 600), (61, 41)])
    def test_json_matches_reference_renderer(self, tmp_path, capsys, theta_steps, prior_steps):
        out = tmp_path / "grid.json"
        assert main(["map", "--theta-steps", str(theta_steps),
                     "--prior-steps", str(prior_steps),
                     "--out", str(out), "--format", "json"]) == 0
        capsys.readouterr()
        assert out.read_bytes() == reference_map(theta_steps, prior_steps, "json").encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("theta_steps", [14, 27])
    def test_last_row_stops_at_half_pi(self, tmp_path, capsys, fmt, theta_steps):
        # (pi/2) * i / (n - 1) rounds one ulp above pi/2 at i = n - 1 for these
        # n, outside the mirror domain: the row must be clamped, not rejected.
        out = tmp_path / f"grid.{fmt}"
        assert main(["map", "--theta-steps", str(theta_steps), "--prior-steps", "3",
                     "--out", str(out), "--format", fmt]) == 0
        assert capsys.readouterr().err == ""
        text = out.read_bytes().decode()
        assert text == reference_map(theta_steps, 3, fmt)
        last_theta = "\n1.57079633," if fmt == "csv" else '"theta": 1.57079633,'
        assert text.count(last_theta) == 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("prior_steps", [257, 600])
    def test_bytes_match_cell_by_cell_reference_across_slices(self, tmp_path, capsys,
                                                              fmt, prior_steps):
        # Theta-rows of 256+1 and 256+256+88 cells.
        out = tmp_path / f"grid.{fmt}"
        assert main(["map", "--theta-steps", "3", "--prior-steps", str(prior_steps),
                     "--out", str(out), "--format", fmt]) == 0
        capsys.readouterr()
        assert out.read_bytes() == reference_map(3, prior_steps, fmt).encode()

    @pytest.mark.parametrize("value", [
        -0.0, 0.0, 1.0, 0.99999999996,
        1e-5, 1.5e-05, 1.11022302e-16, 5e-324, 2.2250738585072014e-308,
        123456789.0, 1e9, 1234567890.5, 1e16, 1e22,
        # The edges of the `%.9g` fast path: just below the smallest normal
        # float, around 1e9 (999999999.5 and nextafter(1e9, 0) render as
        # `1e+09`), and just below 1.
        math.nextafter(2.2250738585072014e-308, 0.0), 999999999.4, 999999999.5,
        math.nextafter(1e9, 0.0), 0.9999999995,
    ])
    def test_json_number_renderer_matches_json_dumps(self, value):
        assert cli._numbers(np.array([value]), "json") == [ref_json_number(value)]

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_json_number_renderer_matches_json_dumps_on_every_float(self, value):
        assert cli._numbers(np.array([value]), "json") == [ref_json_number(value)]

    @pytest.mark.parametrize("value", [
        -0.0, 0.0, 1.0, 0.99999999996,
        1e-5, 1.5e-05, 1.11022302e-16, 5e-324, 2.2250738585072014e-308,
        123456789.0, 1e9, 1234567890.5, 1e16, 1e22,
        math.nextafter(2.2250738585072014e-308, 0.0), 999999999.4, 999999999.5,
        math.nextafter(1e9, 0.0), 0.9999999995,
    ])
    def test_unmarked_numbers_read_as_their_9g_text(self, value):
        if not cli._json_special(np.array([value]))[0]:
            assert "%.9g" % (value + 0.0) == ref_json_number(value)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_unmarked_numbers_read_as_their_9g_text_on_every_float(self, value):
        if not cli._json_special(np.array([value]))[0]:
            assert "%.9g" % (value + 0.0) == ref_json_number(value)

    def test_special_marks_integers_extremes_and_non_finite_without_warnings(self):
        # warnings are errors in this suite: inf must not reach inf - inf
        values = np.array([math.nan, math.inf, -math.inf, 1.7976931348623157e308, 1e8, -3.0,
                           0.0, -0.0, 5e-324, 1e-8, 0.9999999995, 0.1, 0.5, 1.5, 12345.678])
        assert cli._json_special(values).tolist() == [True] * 11 + [False] * 4

    def test_json_cells_with_marked_numbers_match_json_dumps(self, tmp_path, capsys,
                                                              monkeypatch):
        # Marked numbers at both edges and in the middle of each slice (256 + 44
        # cells a row), in every number column, beside unmarked ones.
        specials = itertools.cycle([1.0, 0.0, -0.0, 0.99999999996, 1e-5, 2.5e-308,
                                    123456789.0, 1e9])
        records = []

        def row(theta, priors):
            columns = (0.25 + priors / 3.0, 0.5 - priors / 7.0, priors / 11.0 - 0.125)
            for column in columns:
                for k in (0, len(priors) // 2, len(priors) - 1):
                    column[k] = next(specials)
            for prior, *numbers in zip(priors.tolist(), *(c.tolist() for c in columns)):
                records.append(dict(zip(cli._MAP_FIELDS, [
                    theta, prior, *numbers, numbers[2] > analytic.ADVANTAGE_TOL])))
            return columns

        monkeypatch.setattr(analytic, "advantage_three_row", row)
        out = tmp_path / "grid.json"
        assert main(["map", "--theta-steps", "3", "--prior-steps", "300",
                     "--out", str(out), "--format", "json"]) == 0
        capsys.readouterr()
        assert len(records) == 3 * 300
        config = {"command": "map", "theta_steps": 3, "prior_steps": 300, "format": "json"}
        expected = json.dumps({"config": config, "cells": [ref_json_obj(r) for r in records]},
                              indent=2) + "\n"
        assert out.read_bytes() == expected.encode()

    def test_fmt_canonicalizes_negative_zero(self):
        assert cli._numbers(np.array([-0.0]), "csv") == ["0"]

    @staticmethod
    def traced_peak(out: Path, theta_steps: int, prior_steps: int, fmt: str) -> int:
        """Peak bytes traced by `tracemalloc` over one map run to `out`."""
        tracemalloc.start()
        try:
            code = main(["map", "--theta-steps", str(theta_steps), "--prior-steps",
                         str(prior_steps), "--out", str(out), "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_grows_only_with_the_prior_column(self, tmp_path, fmt):
        # The map holds one slice and its rendered prior column, about 80
        # bytes a prior; a whole theta-row held at once peaks at several MB.
        out = tmp_path / f"grid.{fmt}"
        self.traced_peak(out, 2, 2, fmt)  # first-run allocations, ~0.17 MB, stay out of the peaks
        peak = self.traced_peak(out, 2, 4000, fmt)
        assert peak < 1.5e6
        assert self.traced_peak(out, 2, 8000, fmt) - peak <= 4000 * 100
        assert abs(self.traced_peak(out, 20, 4000, fmt) - peak) <= 64 * 1024


class TestCmdOracle:
    def test_oracle_two_orthogonal(self, capsys):
        code, out = run(capsys, "oracle-two", "--sep-deg", "90", "--prior", "0.5")
        assert code == 0
        record = json.loads(out)
        assert record["analytic"] == 1.0
        assert record["oracle"] == pytest.approx(1.0, abs=1e-9)

    def test_oracle_two_skewed(self, capsys):
        code, out = run(capsys, "oracle-two", "--sep-deg", "30", "--prior", "0.3",
                        "--tol", "1e-4")
        assert code == 0
        assert json.loads(out)["difference"] <= 1e-4

    def test_oracle_two_huge_separation(self, capsys):
        # the grid and the certificate must see the same state at any angle
        code, out = run(capsys, "oracle-two", "--sep-deg", "1e308", "--prior", "0.3")
        assert code == 0
        assert json.loads(out)["difference"] <= 1e-12

    def test_oracle_three_trine(self, capsys):
        code, out = run(capsys, "oracle-three", "--theta-deg", "60",
                        "--prior", "0.3333333", "--tol", "1e-3")
        assert code == 0
        record = json.loads(out)
        assert record["difference"] <= 1e-3
        assert record["evaluations"] > 0

    def test_oracle_three_unreachable_tolerance_exits_4(self, capsys, monkeypatch):
        # a valid measurement off the optimum: always guess the third state,
        # success 1 - 2p = 0.8 against the optimum 0.877
        zero = np.zeros((2, 2))
        off_target = oracle.OracleResult(0.8, validate_povm([zero, zero, np.eye(2)]), 1, 0.9)
        monkeypatch.setattr(oracle, "optimize_three", lambda *args, **kwargs: off_target)
        code = main(["oracle-three", "--theta-deg", "60", "--prior", "0.1", "--tol", "1e-12"])
        captured = capsys.readouterr()
        assert code == 4
        assert "exceeds" in captured.err

    def test_oracle_two_bad_flag_exits_2(self, capsys):
        assert main(["oracle-two", "--sep-deg", "90", "--prior", "1.5"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command,flag", [
        ("oracle-two", "--grid-n"), ("oracle-two", "--refine-iters"),
        ("oracle-three", "--grid-n"), ("oracle-three", "--refine-iters"),
        ("oracle-three", "--seed"),
    ])
    def test_solver_flags_exit_2(self, capsys, command, flag):
        angle = "--sep-deg" if command == "oracle-two" else "--theta-deg"
        assert main([command, angle, "30", "--prior", "0.3", flag, "1"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command,angle", [("oracle-two", "--sep"),
                                               ("oracle-three", "--theta")])
    def test_help_lists_only_the_kept_flags(self, capsys, command, angle):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {"--help", angle, f"{angle}-deg", "--prior", "--tol", "--out",
                          "--format"}

    # bench/worker.py reads these values off the parse and passes them to the
    # solvers by keyword; they must stay the solvers' own defaults.
    @pytest.mark.parametrize("command,angle,solve,tol", [
        ("oracle-two", "--sep", oracle.optimize_two, 1e-4),
        ("oracle-three", "--theta", oracle.optimize_three, 1e-3),
    ], ids=["oracle-two", "oracle-three"])
    def test_parse_keeps_the_solver_defaults(self, command, angle, solve, tol):
        args = cli.build_parser().parse_args([command, angle, "0", "--prior", "0"])
        read = {k: getattr(args, k) for k in ("grid_n", "refine_iters", "seed", "tol")
                if hasattr(args, k)}
        defaults = {k: v.default for k, v in inspect.signature(solve).parameters.items()
                    if k in ("grid_n", "refine_iters", "seed")}
        assert read == {**defaults, "tol": tol}

    def test_oracle_unwritable_out_exits_3_before_the_tol_check(self, tmp_path, capsys,
                                                                 monkeypatch):
        # always guess the first state: success 0.7 against the optimum 0.804,
        # a difference above --tol that the failed write must preempt
        off_target = oracle.OracleResult(0.7, validate_povm([np.eye(2), np.zeros((2, 2))]),
                                         1, 0.9)
        monkeypatch.setattr(oracle, "optimize_two", lambda *args, **kwargs: off_target)
        missing = tmp_path / "no" / "such" / "dir" / "x.json"
        code = main(["oracle-two", "--sep-deg", "30", "--prior", "0.3", "--tol", "1e-300",
                     "--out", str(missing)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: cannot write")
        assert "exceeds" not in captured.err


    @pytest.mark.parametrize("command,angle", [
        ("oracle-two", ["--sep-deg", "30"]),
        ("oracle-three", ["--theta-deg", "60"]),
    ])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tol_must_be_finite_and_positive(self, capsys, command, angle, tol):
        code = main([command, *angle, "--prior", "0.1", "--tol", tol])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        shown = {"nan": "nan", "inf": "inf", "0": "0.0"}[tol]
        assert captured.err == f"error: --tol must be finite and positive, got {shown}\n"


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command,flag,rest", [
        ("oracle-two", "--sep", ["--prior", "0.3"]),
        ("oracle-two", "--sep-deg", ["--prior", "0.3"]),
        ("three", "--theta", ["--prior", "0.3"]),
        ("three", "--theta-deg", ["--prior", "0.3"]),
        ("three", "--prior", ["--theta-deg", "60"]),
        ("oracle-three", "--theta", ["--prior", "0.3"]),
        ("oracle-three", "--theta-deg", ["--prior", "0.3"]),
        ("oracle-three", "--prior", ["--theta-deg", "60"]),
    ])
    def test_exits_2_with_error_line(self, capsys, command, flag, rest, value):
        code = main([command, flag, value, *rest])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""


class TestAngleFlags:
    @pytest.mark.parametrize("degrees", ["0", "30", "45", "60", "90"])
    @pytest.mark.parametrize("command,flag", ANGLE_FLAGS)
    def test_degrees_match_radians(self, capsys, command, flag, degrees):
        radians = repr(math.radians(float(degrees)))
        code_deg, out_deg = run(capsys, command, f"{flag}-deg", degrees, "--prior", "0.3")
        code_rad, out_rad = run(capsys, command, flag, radians, "--prior", "0.3")
        assert code_deg == code_rad == 0
        assert out_deg == out_rad

    @pytest.mark.parametrize("command,flag", ANGLE_FLAGS)
    @pytest.mark.parametrize("given_flags", ["both", "neither"])
    def test_exactly_one_angle_flag(self, capsys, command, flag, given_flags):
        angle = [flag, "0.5", f"{flag}-deg", "30"] if given_flags == "both" else []
        assert main([command, *angle, "--prior", "0.3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    @given(st.floats(min_value=0.0, max_value=math.pi / 2),
           st.floats(min_value=0.0, max_value=0.5))
    def test_three_accepts_the_closed_domain(self, theta, prior):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["three", "--theta", repr(theta), "--prior", repr(prior)])
        assert code == 0
        record = json.loads(stdout.getvalue())
        assert 0.0 <= record["s_nc_bound"] <= 1.0
        assert 0.0 <= record["s_quantum"] <= 1.0


class TestCmdOnticCheck:
    def test_small_batch_passes(self, capsys):
        code, out = run(capsys, "ontic-check", "--num-models", "100", "--seed", "7")
        assert code == 0
        assert "two-state bound: 100/100 pass" in out
        assert "three-state bound: 100/100 pass" in out
        assert "decomposition identity: 100/100 pass" in out

    def test_single_model_report(self, capsys):
        code, out = run(capsys, "ontic-check", "--num-models", "1", "--seed", "1")
        assert code == 0
        assert "two-state: success=" in out
        assert "three-state: success=" in out

    def test_zero_models_exits_2(self, capsys):
        assert main(["ontic-check", "--num-models", "0"]) == 2
        capsys.readouterr()

    def test_negative_seed_exits_2(self, capsys):
        assert main(["ontic-check", "--num-models", "3", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "--seed" in captured.err
        assert captured.out == ""

    @staticmethod
    def fail_checks(monkeypatch, preparations: int, verdict: str) -> None:
        """Make `check_models` report `verdict` False for every model with
        `preparations` preparations."""
        real = ontic.check_models

        def failing(distributions, priors):
            checks = real(distributions, priors)
            if distributions.shape[1] != preparations:
                return checks
            return dataclasses.replace(checks, **{verdict: np.zeros_like(checks.passed)})

        monkeypatch.setattr(ontic, "check_models", failing)

    def test_failing_model_exits_4(self, capsys, monkeypatch):
        self.fail_checks(monkeypatch, 2, "passed")
        code, out = run(capsys, "ontic-check", "--num-models", "3", "--seed", "7")
        assert code == 4
        assert "two-state bound: 0/3 pass" in out

    def test_failing_three_state_model_exits_4(self, capsys, monkeypatch):
        self.fail_checks(monkeypatch, 3, "passed")
        code, out = run(capsys, "ontic-check", "--num-models", "3", "--seed", "7")
        assert code == 4
        assert "two-state bound: 3/3 pass" in out
        assert "three-state bound: 0/3 pass" in out
        assert "decomposition identity: 3/3 pass" in out

    def test_failed_write_exits_3_even_when_a_model_fails(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        self.fail_checks(monkeypatch, 2, "passed")
        with contextlib.redirect_stdout(ClosedPipe()):
            code = main(["ontic-check", "--num-models", "3", "--seed", "7"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: cannot write stdout")

    def test_failing_identity_exits_4(self, capsys, monkeypatch):
        self.fail_checks(monkeypatch, 3, "decomposition_passed")
        code, out = run(capsys, "ontic-check", "--num-models", "3", "--seed", "7")
        assert code == 4
        assert "three-state bound: 3/3 pass" in out
        assert "decomposition identity: 0/3 pass" in out

    @staticmethod
    def reference_models(num_models: int, seed: int) -> list[tuple]:
        """Each model's normalized (distributions, priors) for k = 2 and k = 3,
        drawn one model at a time: its size L, then 5L + 5 doubles split into
        the rows and priors of both models."""
        rng = np.random.default_rng(seed)
        models = []
        for _ in range(num_models):
            size = int(rng.integers(2, 33))
            mu2, p2, mu3, p3 = np.split(rng.random(5 * size + 5),
                                        [2 * size, 2 * size + 2, 5 * size + 2])
            models.append((ontic._normalized(mu2.reshape(1, 2, size), p2[None]),
                           ontic._normalized(mu3.reshape(1, 3, size), p3[None])))
        return models

    @staticmethod
    def record_checks(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
        """Copies of the arguments of every `ontic.check_models` call."""
        real, calls = ontic.check_models, []

        def recording(distributions, priors):
            calls.append((distributions.copy(), priors.copy()))
            return real(distributions, priors)

        monkeypatch.setattr(ontic, "check_models", recording)
        return calls

    @staticmethod
    def model_keys(pairs) -> list[tuple]:
        """One sortable key per model of each (distributions, priors) pair."""
        return sorted((mu.shape, mu.tobytes(), p.tobytes())
                      for distributions, priors in pairs
                      for mu, p in zip(distributions, priors))

    @pytest.mark.parametrize("num_models", [1, 3, 31 * ontic._GROUP + 7])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_checks_every_drawn_model_bit_for_bit(self, capsys, monkeypatch, num_models, seed):
        calls = self.record_checks(monkeypatch)
        code, out = run(capsys, "ontic-check", "--num-models", str(num_models),
                        "--seed", str(seed))
        assert code == 0
        models = self.reference_models(num_models, seed)
        assert self.model_keys(calls) == self.model_keys(pair for m in models for pair in m)
        if num_models == 1:
            (mu2, p2), (mu3, p3) = models[0]
            r2 = ontic.check_two_state_bound(
                ontic.FiniteOnticModel(mu2[0], PriorDistribution(tuple(p2[0]))))
            r3 = ontic.check_three_state_bound(
                ontic.FiniteOnticModel(mu3[0], PriorDistribution(tuple(p3[0]))))
            assert out.splitlines()[:2] == [
                f"two-state: success={ref_9g(r2.success)} overlap={ref_9g(r2.overlap)} "
                f"bound={ref_9g(r2.bound)} passed={r2.passed}",
                f"three-state: success={ref_9g(r3.success)} bound={ref_9g(r3.bound)} "
                f"passed={r3.passed} decomposition_error={ref_9g(r3.decomposition_error)}"]

    def test_no_check_exceeds_one_group(self, capsys, monkeypatch):
        calls = self.record_checks(monkeypatch)
        code, _ = run(capsys, "ontic-check", "--num-models", "5000", "--seed", "3")
        assert code == 0
        assert max(len(distributions) for distributions, _ in calls) == ontic._GROUP
        # every size's group fills at least once at this count and seed
        assert {distributions.shape[2] for distributions, _ in calls
                if len(distributions) == ontic._GROUP} == set(range(2, 33))
        assert sum(len(distributions) for distributions, _ in calls) == 2 * 5000

    @staticmethod
    def traced_peak(num_models: int) -> int:
        """Peak bytes traced by `tracemalloc` over one ontic-check run."""
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["ontic-check", "--num-models", str(num_models), "--seed", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    def test_memory_does_not_grow_with_the_model_count(self):
        # A run holds one group of drawn rows per ontic-space size, 1.8 MB
        # over the 31 sizes; models kept until the end would add about
        # 0.7 KB each.
        self.traced_peak(3)  # first-run allocations stay out of the peaks
        peak = self.traced_peak(4000)
        assert peak < 3e6
        assert abs(self.traced_peak(40000) - peak) <= 256 * 1024


class TestEntryPoints:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mesd", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "map" in proc.stdout

    def test_module_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mesd", "two", "--prior", "0.5", "--overlap", "0.5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["advantage"] is True

    def test_missing_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mesd"], capture_output=True, text=True
        )
        assert proc.returncode == 2

    def test_out_file_for_single_record(self, tmp_path, capsys):
        out = tmp_path / "two.json"
        assert main(["two", "--prior", "0.5", "--overlap", "0.5",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["advantage"] is True

    # Python ignores SIGPIPE, so writing to a pipe whose read end is closed
    # fails with EPIPE every time.  The child runs without PYTHONUNBUFFERED:
    # a buffered stdout keeps the unwritten bytes and flushes them again at
    # exit, which is the case the writer must also survive.
    @pytest.mark.parametrize("argv", [
        ["two", "--prior", "0.5", "--overlap", "0.5"],
        ["three", "--theta-deg", "60", "--prior", "0.3"],
        ["three", "--theta-deg", "60", "--prior", "0.3", "--format", "csv"],
        ["oracle-two", "--sep-deg", "30", "--prior", "0.3"],
        ["oracle-three", "--theta-deg", "60", "--prior", "0.3"],
        ["ontic-check", "--num-models", "1"],
        ["ontic-check", "--num-models", "3"],
    ], ids=["two", "three-json", "three-csv", "oracle-two", "oracle-three",
            "ontic-check-1", "ontic-check-3"])
    def test_closed_stdout_exits_3(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
            proc = subprocess.run([sys.executable, "-m", "mesd", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write")
        assert "Traceback" not in proc.stderr

    # With fd 1 closed at start, Python sets `sys.stdout` to None.
    @pytest.mark.parametrize("argv", [
        ["two", "--prior", "0.5", "--overlap", "0.5"],
        ["ontic-check", "--num-models", "3"],
    ], ids=["two", "ontic-check"])
    def test_missing_stdout_exits_3(self, argv):
        proc = subprocess.run([sys.executable, "-m", "mesd", *argv], stderr=subprocess.PIPE,
                              text=True, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout")
        assert "Traceback" not in proc.stderr

    def test_closed_stream_exits_3(self, capsys):
        closed = io.StringIO()
        closed.close()
        with contextlib.redirect_stdout(closed):
            code = main(["two", "--prior", "0.5", "--overlap", "0.5"])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout")

    def test_out_path_that_open_rejects_exits_3(self, capsys):
        # `open` raises ValueError, not OSError, for a path with a null byte
        assert main(["two", "--prior", "0.5", "--overlap", "0.5", "--out", "a\0b"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write a\\x00b:")

    def test_out_path_with_a_newline_keeps_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "a\nb.json"
        assert main(["two", "--prior", "0.5", "--overlap", "0.5", "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write ")
        assert "a\\nb.json" in lines[0]

    # Writing to /dev/full fails with ENOSPC, which a buffered stream reports
    # only when it flushes: at `--out`'s close, or at stdout's flush.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("to_out", [False, True], ids=["stdout", "out"])
    def test_full_device_exits_3(self, to_out):
        argv = [sys.executable, "-m", "mesd", "two", "--prior", "0.5", "--overlap", "0.5"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv + ["--out", "/dev/full"] if to_out else argv,
                                  stdout=subprocess.DEVNULL if to_out else full,
                                  stderr=subprocess.PIPE, text=True, env=env)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write")


def off_target_oracles(monkeypatch) -> None:
    """Make both oracles report a valid measurement off the optimum: for
    oracle-two at 30 degrees and prior 0.3, always guess the first state
    (0.7 against 0.804); for oracle-three at 60 degrees and prior 0.1, always
    guess the third (0.8 against 0.877)."""
    zero, one = np.zeros((2, 2)), np.eye(2)
    two = oracle.OracleResult(0.7, validate_povm([one, zero]), 1, 0.9)
    three = oracle.OracleResult(0.8, validate_povm([zero, zero, one]), 1, 0.9)
    monkeypatch.setattr(oracle, "optimize_two", lambda *args, **kwargs: two)
    monkeypatch.setattr(oracle, "optimize_three", lambda *args, **kwargs: three)


class BadDescriptor(io.StringIO):
    """A stream on a descriptor that is not open for writing."""

    def write(self, text):
        raise OSError(errno.EBADF, "Bad file descriptor")


class TestErrorLines:
    """`main` writes one `error:` line per nonzero exit after parsing, and a
    stderr that cannot take it changes neither the exit code nor stdout."""

    @staticmethod
    def failing(case: str, monkeypatch, tmp_path) -> list[str]:
        """The argv of a run that fails as `case` names, after its set-up."""
        off_target_oracles(monkeypatch)
        if case == "stdout":
            closed = io.StringIO()
            closed.close()
            monkeypatch.setattr(sys, "stdout", closed)
        if case == "ontic-check":
            TestCmdOnticCheck.fail_checks(monkeypatch, 2, "passed")
        two = ["two", "--prior", "0.5", "--overlap", "0.5"]
        return {
            "flag": ["two", "--prior", "2", "--overlap", "0.5"],
            "library-type": ["three", "--theta", "nan", "--prior", "0.3"],
            "stdout": two,
            "out": [*two, "--out", str(tmp_path / "no" / "such" / "x.json")],
            "oracle-two": ["oracle-two", "--sep-deg", "30", "--prior", "0.3", "--tol", "1e-12"],
            "oracle-three": ["oracle-three", "--theta-deg", "60", "--prior", "0.1",
                             "--tol", "1e-12"],
            "ontic-check": ["ontic-check", "--num-models", "3", "--seed", "7"],
        }[case]

    @pytest.mark.parametrize("case,code", [
        ("flag", 2), ("library-type", 2), ("stdout", 3), ("out", 3),
        ("oracle-two", 4), ("oracle-three", 4), ("ontic-check", 4),
    ])
    def test_one_error_line_per_nonzero_exit(self, capsys, monkeypatch, tmp_path, case, code):
        assert main(self.failing(case, monkeypatch, tmp_path)) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("stderr", ["ebadf", "none"])
    @pytest.mark.parametrize("case,code", [("flag", 2), ("out", 3), ("oracle-three", 4)])
    def test_unusable_stderr_keeps_the_code_and_stdout(self, capsys, monkeypatch, tmp_path,
                                                       stderr, case, code):
        argv = self.failing(case, monkeypatch, tmp_path)
        monkeypatch.setattr(sys, "stderr", BadDescriptor() if stderr == "ebadf" else None)
        assert main(argv) == code
        out = capsys.readouterr().out
        if code == 4:  # the record alone: an `error:` line after it would break the JSON
            assert json.loads(out)["oracle"] == 0.8
        else:
            assert out == ""

    # With fd 2 closed at start, Python sets `sys.stderr` to None.  A stderr
    # pipe whose read end is closed fails each write with EPIPE, and a
    # buffered stderr retries its unwritten line at exit.
    @pytest.mark.parametrize("stderr", ["closed", "broken-pipe"])
    def test_unusable_stderr_keeps_exit_2(self, stderr):
        argv = [sys.executable, "-m", "mesd", "two", "--prior", "2", "--overlap", "0.5"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if stderr == "closed":
            proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                                  preexec_fn=lambda: os.close(2))
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=write_end,
                                      text=True, env=env)
            finally:
                os.close(write_end)
        assert proc.returncode == 2
        assert proc.stdout == ""
