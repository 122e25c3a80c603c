"""The public surface of the `mesd` package, the README's library example,
its CLI examples and the CLI's one-record CSV bytes."""

import contextlib
import hashlib
import io
import re
import shlex
from pathlib import Path

import pytest

import mesd
from mesd import cli, ontic, qcore

PUBLIC_NAMES = [
    "BoundPair",
    "Effect",
    "FiniteOnticModel",
    "MirrorEnsemble",
    "OracleResult",
    "Povm",
    "PriorDistribution",
    "PureState",
    "TwoStateScenario",
    "advantage_three",
    "advantage_two",
    "born_probability",
    "check_three_state_bound",
    "check_two_state_bound",
    "confusability",
    "discrimination_success",
    "helstrom_two",
    "make_state",
    "min_overlap",
    "nc_three_bound",
    "nc_two_bound",
    "ontic_success",
    "optimize_three",
    "optimize_two",
    "quantum_three",
    "quantum_three_branch",
    "random_model",
    "threshold_prior",
    "validate_povm",
]

# Names that had no caller outside their own tests and were removed.
REMOVED = {
    mesd: ["ResponseFunction", "operational_probability", "check_mixing_constraint",
           "mirror_reflect"],
    qcore: ["mirror_reflect"],
    ontic: ["ResponseFunction", "operational_probability", "check_mixing_constraint",
            "MIXING_TOL", "_as_distribution_row"],
    qcore.Povm: ["labels", "outcome_probabilities"],
    qcore.PureState: ["orthogonal"],
    qcore.Effect: ["identity"],
    qcore.PriorDistribution: ["__getitem__"],
    ontic.FiniteOnticModel: ["num_lambdas"],
}

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names():
    assert sorted(mesd.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(mesd, name) is not None
    for owner, names in REMOVED.items():
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name} is still defined"


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    _, success, dual_bound = (float(x) for x in out.getvalue().split())
    assert success <= dual_bound


def readme_cli_lines() -> list[str]:
    """The `mesd ...` lines of README's CLI block, comments dropped."""
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [line.split("#")[0].strip() for line in block.group(1).splitlines()
            if line.startswith("mesd ")]


def test_readme_has_cli_examples():
    assert len(readme_cli_lines()) == 7


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_example_runs(line, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


# SHA-256 of each README line's stdout and, for `map`, of its `--out` file.
README_CLI_SHA256 = {
    "mesd two --prior 0.5 --overlap 0.5":
        ("1022635bda7544c8648d624b2c32daf17a579d27a1aa1da9b59f19bbc71c7556", None),
    "mesd three --theta-deg 60 --prior 0.5":
        ("6ed91c19318fb39c49a06eff914d5ec87341d07dc3ff690de82a2eaa02aa0a48", None),
    "mesd map --theta-steps 181 --prior-steps 101 --out map.csv":
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "a069d5a80eda94affbd4c6ea47c8211e0a7495149ba603c6d55aafa4646c3d16"),
    "mesd map --theta-steps 181 --prior-steps 101 --format json --out map.json":
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "6e1f8b458e417344c5e58aca25467071416d42ebec4797f989cff2c853fcc17a"),
    "mesd oracle-two --sep-deg 30 --prior 0.3 --tol 1e-4":
        ("4c6932f016effef32f750a728f53121afb471ae2a9f0e3b4249bb3797c7dc071", None),
    "mesd oracle-three --theta-deg 60 --prior 0.3333333 --tol 1e-3":
        ("8f807c3e14f3406dc3d06b7262a3e61d27d94852c69fdb5b7f2b98d50a6058b7", None),
    "mesd ontic-check --num-models 10000 --seed 7":
        ("98093d81cbc9f8eb9af86ae83eccb8278070167a1d179e66117b8782eb2ada05", None),
}


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_example_bytes(line, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)[1:]
    assert cli.main(argv) == 0
    stdout_digest, out_digest = README_CLI_SHA256[line]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest
    if out_digest is not None:
        out = Path(argv[argv.index("--out") + 1]).read_bytes()
        assert hashlib.sha256(out).hexdigest() == out_digest


# SHA-256 of the stdout of each one-record command in CSV, recorded before
# `cli`'s record renderer was folded into one function.
CSV_RECORD_SHA256 = {
    "two --prior 0.5 --overlap 0.5 --format csv":
        "240ac1431bdd2749bbb128801d17b068d7807ebb14bd3dd9246b623361050ae8",
    "three --theta-deg 60 --prior 0.5 --format csv":
        "69b10c8a364b730a30dd229a90f26225cecc142cde0181d53b6958f073e16b4a",
    "oracle-two --sep-deg 30 --prior 0.3 --tol 1e-4 --format csv":
        "077fd073894cd75a3702967aff921e601b4ac4725556d8ce677b72c8edf76674",
    "oracle-three --theta-deg 60 --prior 0.3333333 --tol 1e-3 --format csv":
        "56e21e647c36715f731d2c5ee581b2aa17ebca3b83da21bd00b1ea94fabaf2cf",
}


@pytest.mark.parametrize("line", CSV_RECORD_SHA256)
def test_csv_record_bytes(line, capsys):
    assert cli.main(line.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CSV_RECORD_SHA256[line]

