import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from mesd import ontic
from mesd.cli import main

MAP_HEADER = "theta,prior,s_quantum,s_nc_bound,gap,advantage"


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

    def test_byte_identical_with_parallelism(self, tmp_path, capsys, monkeypatch):
        serial = tmp_path / "serial.csv"
        threaded = tmp_path / "threaded.csv"
        monkeypatch.setenv("MESD_THREADS", "1")
        assert main(["map", "--theta-steps", "11", "--prior-steps", "9",
                     "--out", str(serial)]) == 0
        monkeypatch.setenv("MESD_THREADS", "4")
        assert main(["map", "--theta-steps", "11", "--prior-steps", "9",
                     "--out", str(threaded)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == threaded.read_bytes()

    def test_bad_thread_override_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MESD_THREADS", "zero")
        out = tmp_path / "grid.csv"
        assert main(["map", "--theta-steps", "3", "--prior-steps", "3",
                     "--out", str(out)]) == 2
        capsys.readouterr()

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

    def test_too_few_steps_exits_2(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["map", "--theta-steps", "1", "--prior-steps", "5",
                     "--out", str(out)]) == 2
        capsys.readouterr()


    # Reference SHA-256 of the map bytes.  4x4 puts p = 1/3 = p*(0) on the
    # grid; 7x4 puts p = 1/3, theta = pi/6 and theta = pi/3 on it.
    @pytest.mark.parametrize("fmt,theta_steps,prior_steps,digest", [
        ("csv", 2, 2, "2a0b8e2d5c84785bf1ef46ff3c353b7830d20b09ee5963e9fdfb20f511865c95"),
        ("csv", 4, 4, "7ee3d055017e243cda2c34a00b4862c562533024102dc5fffac92f0bacb1e19f"),
        ("csv", 7, 4, "a19ffbf29b641d8741754f2c121b2f3d30ff34ea6a5989aef1f992e2b4bdbc9c"),
        ("csv", 11, 11, "3774173d8363a86b495fe21cee1b4252a213f99f61dd6794df6a3e4a4755050c"),
        ("json", 2, 2, "f221f4d5670e59df0dd61fa4bb68d47dcdb6859992b51cdc72a6f5f7ec88f341"),
        ("json", 4, 4, "98a352793f70da5f868d7914ec0ca42aac90aa21f8b4353a8ceb2b473db7fbea"),
        ("json", 7, 4, "b753cf99c49d1f91818194b897b0e298550253bcb86a8534502c2bb1cd5fb873"),
        ("json", 11, 11, "e7be4faa4f11a9f2b99ca510fa01197ad82faf7a0ab8f5fb36b83ca265787645"),
    ])
    def test_bytes_match_reference_digest(self, tmp_path, capsys, fmt,
                                          theta_steps, prior_steps, digest):
        out = tmp_path / f"grid.{fmt}"
        assert main(["map", "--theta-steps", str(theta_steps),
                     "--prior-steps", str(prior_steps),
                     "--out", str(out), "--format", fmt]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_bad_thread_override_writes_no_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MESD_THREADS", "zero")
        out = tmp_path / "grid.csv"
        assert main(["map", "--theta-steps", "3", "--prior-steps", "3",
                     "--out", str(out)]) == 2
        assert "MESD_THREADS" in capsys.readouterr().err
        assert not out.exists()


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

    def test_oracle_three_trine(self, capsys):
        code, out = run(capsys, "oracle-three", "--theta-deg", "60",
                        "--prior", "0.3333333", "--tol", "1e-3")
        assert code == 0
        record = json.loads(out)
        assert record["difference"] <= 1e-3
        assert record["evaluations"] > 0

    def test_oracle_three_unreachable_tolerance_exits_4(self, capsys):
        # a deliberately coarse search cannot land within 1e-12
        code = main(["oracle-three", "--theta-deg", "60", "--prior", "0.1",
                     "--grid-n", "16", "--refine-iters", "2", "--tol", "1e-12"])
        captured = capsys.readouterr()
        assert code == 4
        assert "exceeds" in captured.err

    def test_oracle_two_bad_flag_exits_2(self, capsys):
        assert main(["oracle-two", "--sep-deg", "90", "--prior", "1.5"]) == 2
        capsys.readouterr()

    def test_oracle_two_negative_refine_iters_exits_2(self, capsys):
        assert main(["oracle-two", "--sep-deg", "30", "--prior", "0.3",
                     "--refine-iters", "-1"]) == 2
        assert "refine_iters" in capsys.readouterr().err


    @pytest.mark.parametrize("command,angle", [
        ("oracle-two", ["--sep-deg", "30"]),
        ("oracle-three", ["--theta-deg", "60"]),
    ])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tol_must_be_finite_and_positive(self, capsys, command, angle, tol):
        code = main([command, *angle, "--prior", "0.1", "--grid-n", "16",
                     "--refine-iters", "2", "--tol", tol])
        assert code == 2
        assert "--tol" in capsys.readouterr().err


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

    def test_failing_model_exits_4(self, capsys, monkeypatch):
        def failing(model):
            return ontic.TwoStateBoundReport(success=1.0, overlap=1.0, bound=0.5,
                                             passed=False)

        monkeypatch.setattr(ontic, "check_two_state_bound", failing)
        code, out = run(capsys, "ontic-check", "--num-models", "3", "--seed", "7")
        assert code == 4
        assert "two-state bound: 0/3 pass" in out


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
