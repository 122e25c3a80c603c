"""The public surface of the `mesd` package, the README's library example
and its CLI examples."""

import contextlib
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
