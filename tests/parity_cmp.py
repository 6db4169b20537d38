"""Byte-compare the parity scenario's output on this tree's `src/` with its
output on another revision's `src/`.

Run from anywhere inside a git checkout:

    python tests/parity_cmp.py REV

REV's `src/` is extracted with `git archive` into a temporary directory.
This tree's `tests/parity_scenario.py` then runs twice, once with each
`src/` alone on PYTHONPATH, and the two output files are compared byte for
byte.  Equal files print `identical` and exit 0.  Otherwise the first JSON
path whose value differs is printed, with the number of differing leaves
and the largest relative difference among those that hold numbers (JSON
numbers, or strings holding a float's repr, such as the epoch losses), and
the exit status is 1.
"""

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "tests" / "parity_scenario.py"


def differences(a, b, path=""):
    """(path, a's leaf, b's leaf) of each JSON path, in document order, where
    `b` differs from `a`; a leaf missing from one side is None there."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                yield f"{path}/{key}", a.get(key), b.get(key)
            else:
                yield from differences(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}/{i}")
    elif type(a) is not type(b) or a != b:
        yield path or "/", a, b


def number(leaf):
    """The float a JSON leaf holds, or None: a number (not a bool), or a
    string that is a float's repr."""
    if isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
        return float(leaf)
    if isinstance(leaf, str):
        try:
            value = float(leaf)
        except ValueError:
            return None
        return value if repr(value) == leaf else None
    return None


def summary(theirs, ours) -> str:
    """The report on two parsed outputs whose bytes differ."""
    diff = list(differences(theirs, ours))
    if not diff:
        return "differ at (same JSON, different bytes)"
    gaps = []
    for _, a, b in diff:
        x, y = number(a), number(b)
        if x is not None and y is not None:
            gaps.append(abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0)
    line = f"differ at {diff[0][0]} ({len(diff)} differing leaves"
    if gaps:
        line += f"; largest relative difference {max(gaps):.3g} over the {len(gaps)} numeric ones"
    return line + ")"


def scenario_output(src: Path, out: Path) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, str(SCENARIO), str(out)], env=env, check=True)
    return out.read_bytes()


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tests/parity_cmp.py REV", file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "archive", argv[0], "src"], cwd=ROOT, capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(tmp / "rev", filter="data")
        theirs = scenario_output(tmp / "rev" / "src", tmp / "rev.json")
        ours = scenario_output(ROOT / "src", tmp / "tree.json")
    if ours == theirs:
        print("identical")
        return 0
    print(summary(json.loads(theirs), json.loads(ours)))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
