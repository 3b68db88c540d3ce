"""Record the CLI's output over every bundled config, for byte comparison.

Usage: python tools/cli_outputs.py SRC OUT

Runs ``python -W error -m qcapdet.cli`` with ``PYTHONPATH=SRC`` from the
repository root, so that a warning, numpy's included, ends its run with a
traceback and exit code 1, over:

- every config in ``configs/`` without a ``sweep`` section, under
  ``certify`` (with and without ``--shots 20000``) and ``sample --shots 20000``;
- every config with a ``sweep`` section, under ``sweep`` (with and without
  ``--shots 2000``);
- ``figure --which 1`` and ``--which 2``;
- ``threshold`` for each family, and ``threshold --d 1``, which exits 2;
- ``--help`` of the top-level parser and of each subcommand, with
  ``COLUMNS=80`` so that argparse wraps the text the same in any terminal.

Each run's exit code, stdout and stderr go to ``OUT/<run>.code``, ``.out``
and ``.err``.  Exits 1 if any run ends with a code other than 0, 2 or 3, the
codes the CLI documents.  Recording two source trees, for example a change
and a ``git archive`` of its parent, and running ``diff -r`` on the two
output directories compares them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("depolarizing", "erasure")
COMMANDS = ("certify", "sweep", "figure", "threshold", "sample")


def runs() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every recorded run, in a fixed order."""
    out = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        config = ["--config", str(path.relative_to(ROOT))]
        if "sweep" in json.loads(path.read_text(encoding="utf-8")):
            out += [
                (f"sweep-{path.stem}", ["sweep", *config]),
                (f"sweep-{path.stem}-shots2000", ["sweep", *config, "--shots", "2000"]),
            ]
        else:
            out += [
                (f"certify-{path.stem}", ["certify", *config]),
                (f"certify-{path.stem}-shots20000", ["certify", *config, "--shots", "20000"]),
                (f"sample-{path.stem}-shots20000", ["sample", *config, "--shots", "20000"]),
            ]
    out += [(f"figure-{which}", ["figure", "--which", str(which)]) for which in (1, 2)]
    out += [(f"threshold-{family}", ["threshold", "--family", family]) for family in FAMILIES]
    out.append(("threshold-erasure-d1", ["threshold", "--family", "erasure", "--d", "1"]))
    out.append(("help", ["--help"]))
    out += [(f"help-{command}", [command, "--help"]) for command in COMMANDS]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/cli_outputs.py SRC OUT", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    bad, todo = [], runs()
    for name, args in todo:
        argv = [sys.executable, "-W", "error", "-m", "qcapdet.cli", *args]
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True)
        (out / f"{name}.code").write_text(f"{done.returncode}\n", encoding="utf-8")
        (out / f"{name}.out").write_bytes(done.stdout)
        (out / f"{name}.err").write_bytes(done.stderr)
        if done.returncode not in (0, 2, 3):
            bad.append(f"{name}: exit {done.returncode}")
    print("\n".join(bad) or f"{len(todo)} runs recorded in {out}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
