"""Put this checkout's src/ on PYTHONPATH too, so the tests that start
`python -m mesd` in a subprocess import the same package that `pythonpath`
in pyproject.toml gives the tests themselves."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
