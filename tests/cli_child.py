"""Start `python -m henon_lab` as a child process of the test run, and
read the record a CLI run prints.

Every CLI subprocess in the suite goes through `run_cli`, so there is one
definition of how a child finds the package.  The child's PYTHONPATH starts
with the absolute directory that holds the `henon_lab` this process
imported, so the child runs the code under test whether the package is
installed or the suite runs from a source checkout with a relative
`PYTHONPATH=src`, and whatever working directory the child is given.
Every CLI record in the suite is read through `parse_record`, which
refuses NaN and Infinity: Python's json writes them, but they are not JSON.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import henon_lab

PACKAGE_PARENT = str(Path(henon_lab.__file__).absolute().parents[1])


# Far above every criterion budget: a hung child fails its test with
# TimeoutExpired instead of stalling the suite.
CHILD_TIMEOUT_S = 120.0


def run_cli(*args: str, cwd=None, text: bool = True):
    """Run the CLI with `args`; never raises on a non-zero exit code, but
    raises subprocess.TimeoutExpired past CHILD_TIMEOUT_S."""
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_PARENT, inherited])))
    return subprocess.run([sys.executable, "-m", "henon_lab", *args],
                          capture_output=True, text=text, cwd=cwd, env=env,
                          timeout=CHILD_TIMEOUT_S)


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON value")


def parse_record(stdout: str) -> dict:
    """The one JSON record of a CLI run's stdout; anything after it, and a
    NaN or Infinity token anywhere in it, raises."""
    return json.loads(stdout, parse_constant=_reject_constant)
