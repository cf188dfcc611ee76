"""One hypothesis profile for the whole suite.

Every @given test draws the same examples on every run (derandomize), keeps
no example database and has no per-example deadline; each test sets only
its own max_examples.  A falsifying example found later is pinned with
@example next to the test.  Hypothesis's own caches (the constants it reads
from the library's source, its unicode tables) go to a temporary directory
that is removed at exit, so a run writes no .hypothesis/ directory.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.TemporaryDirectory(prefix="qholo-hypothesis-")
set_hypothesis_home_dir(_HOME.name)

settings.register_profile("qholo", deadline=None, derandomize=True, database=None)
settings.load_profile("qholo")
