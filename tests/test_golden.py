"""Golden CLI records: refactors must leave every printed number in place.

`tests/data/cli_golden.json` holds the JSON record and exit code of each
command below, captured in-process through `cli.main`.  Strings, ints,
bools and None must match exactly, floats to 1e-12 relative.  Regenerate
the file only for a change that is meant to alter the output:

    PYTHONPATH=src python tests/test_golden.py

which prints every changed path as old -> new before it writes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shlex
from pathlib import Path

import pytest

from cli_child import parse_record
from henon_lab import cli

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"

COMMANDS = [
    "steklov --n 3 --p 2 --bessel-check",
    "steklov --n 5 --p 3.5",
    "steklov --n 4 --p 2.5 --refine 10",
    "radial --n 4 --p 2 --q 3 --alpha 400",
    "radial --n 4 --p 3 --q 3.5 --alpha 100",
    "radial --n 5 --p 2.5 --q 4 --alpha 25 --oracle",
    "radial --n 3 --p 2 --q 2.2 --alpha 0",
    "second-variation --n 4 --p 2 --q 3 --alpha 400",
    "second-variation --n 4 --p 2.5 --q 3 --alpha 400 --harmonic 2",
    "second-variation --n 3 --p 2.5 --q 14 --alpha 400",
    "stability --n 4 --p 2.5 --q 3",
    "stability --n 6 --p 3",
    "stability --n 3 --p 2",
    "appendix-table",
]

REL_TOL = 1e-12

# (trials, expansions) of the radial shooting, pinned here as well as in
# the golden file so that regenerating it cannot move the work silently.
SHOOT_WORK = {
    "radial --n 4 --p 2 --q 3 --alpha 400": (5, 1),
    "radial --n 4 --p 3 --q 3.5 --alpha 100": (6, 1),
    "radial --n 5 --p 2.5 --q 4 --alpha 25 --oracle": (7, 1),
    "radial --n 3 --p 2 --q 2.2 --alpha 0": (7, 1),
}


def run_in_process(command: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(shlex.split(command))
    return code, parse_record(out.getvalue())


def mismatches(got, want, path="$"):
    """Paths where `got` differs from `want` beyond the golden tolerance,
    each as `path: want -> got`."""
    if isinstance(want, float) and isinstance(got, float):
        if got == want or (math.isfinite(want)
                           and abs(got - want) <= REL_TOL * abs(want)):
            return []
        return [f"{path}: {want!r} -> {got!r}"]
    if type(got) is not type(want):
        return [f"{path}: {type(want).__name__} {want!r} -> "
                f"{type(got).__name__} {got!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(want)} -> {sorted(got)}"]
        return [m for key in want
                for m in mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(want)} -> {len(got)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {want!r} -> {got!r}"]


def test_mismatches_tolerance():
    assert mismatches({"a": [1, 2.0, "x"]}, {"a": [1, 2.0 * (1 + 1e-13), "x"]}) == []
    assert mismatches(1.0, 1.0 + 1e-11)
    assert mismatches(1, 1.0)
    assert mismatches(True, 1)
    assert mismatches({"a": 1}, {"b": 1})
    assert mismatches({"a": [0.5, 2]}, {"a": [0.25, 2]}) == [
        "$.a[0]: 0.25 -> 0.5"]


@pytest.fixture(scope="module")
def golden():
    return {entry["command"]: entry for entry in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_record_matches_golden(golden, command):
    code, record = run_in_process(command)
    assert code == golden[command]["exit_code"]
    assert mismatches(record, golden[command]["record"]) == []
    if command in SHOOT_WORK:
        diag = record["diagnostics"]
        assert (diag["trials"], diag["expansions"]) == SHOOT_WORK[command]


if __name__ == "__main__":
    old = {}
    if GOLDEN.exists():
        old = {entry["command"]: entry
               for entry in json.loads(GOLDEN.read_text())}
    entries = []
    for command in COMMANDS:
        code, record = run_in_process(command)
        entry = {"command": command, "exit_code": code, "record": record}
        changes = (mismatches(entry, old[command]) if command in old
                   else ["new command"])
        for change in changes:
            print(f"{command}  {change}")
        entries.append(entry)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
