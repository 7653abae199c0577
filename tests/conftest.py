"""Test-wide hypothesis settings.

The per-example deadline is off: a loaded machine can stall a chunk-sized
example for longer than hypothesis's default allows.  The `ci` profile,
chosen with `--hypothesis-profile=ci`, also runs 1000 examples a test.

numpy's BLAS runs one thread here, so loading numpy starts no worker
thread: `ingest` counts a long CSV column in a forked helper only in a
process of one thread, and the tests of that helper need it to run.
"""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"

from hypothesis import settings  # noqa: E402

settings.register_profile("no-deadline", deadline=None)
settings.register_profile("ci", deadline=None, max_examples=1000)
settings.load_profile("no-deadline")
