"""Shared test set-up."""

import atexit
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

# Even with no example database, Hypothesis caches constants read from the
# source files in its home directory once a test using it is collected; keep
# that cache in a temporary directory, removed when the interpreter exits.
_HOME = tempfile.TemporaryDirectory()
atexit.register(_HOME.cleanup)
set_hypothesis_home_dir(_HOME.name)
