"""Mutated bundled configs must end in exit code 0, 2 or 3, never in a traceback.

Each example takes one of ``configs/*.json``, either deletes one or two keys
or replaces one or two values with entries of VALUES, and runs a command the
config is written for on the result, in-process.  An exception escaping
``main`` is what a user would see as a traceback with exit code 1.
"""

import atexit
import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from qcapdet.cli import main

# Even with no example database, Hypothesis caches constants read from the
# source files in its home directory once a test using it is collected; keep
# that cache in a temporary directory, removed when the interpreter exits.
_HOME = tempfile.TemporaryDirectory()
atexit.register(_HOME.cleanup)
set_hypothesis_home_dir(_HOME.name)

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {path.name: json.loads(path.read_text(encoding="utf-8")) for path in sorted(ROOT.glob("configs/*.json"))}
# The commands each bundled config is written for.
COMMANDS = {
    name: ["sweep"] if "sweep" in doc else ["certify", "sample"] if doc.get("shots") else ["certify"]
    for name, doc in CONFIGS.items()
}
# No large integers: a legal huge shot count or grid is slow, not wrong.
VALUES = [
    "x", "0.1", "", True, False, None, [], {}, [1, 2], [["a"]],
    -1, 0, 1, 2, 3, 2.5, -0.5, float("nan"), float("inf"), float("-inf"), "p", "F", "custom",
]


def _paths(node, prefix=()):
    """Path of every dict value and list item in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    doc = copy.deepcopy(CONFIGS[name])
    delete = draw(st.booleans())
    for _ in range(draw(st.integers(1, 2))):
        paths = [p for p in _paths(doc) if not delete or isinstance(_parent(doc, p), dict)]
        if not paths:
            break
        # Pick a depth first, so the top-level fields are hit as often as matrix entries.
        depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
        path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
        if delete:
            del _parent(doc, path)[path[-1]]
        else:
            _parent(doc, path)[path[-1]] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return draw(st.sampled_from(COMMANDS[name])), doc


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated_configs())
def test_mutated_configs_exit_0_2_or_3(case):
    command, doc = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path)])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("config error:"), err.getvalue()
