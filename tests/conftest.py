"""Test-wide hypothesis settings.

The per-example deadline is off: a loaded machine can stall a chunk-sized
example for longer than hypothesis's default allows.  The `ci` profile,
chosen with `--hypothesis-profile=ci`, also runs 1000 examples a test.
"""

from hypothesis import settings

settings.register_profile("no-deadline", deadline=None)
settings.register_profile("ci", deadline=None, max_examples=1000)
settings.load_profile("no-deadline")
