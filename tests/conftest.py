"""Test-wide hypothesis settings.

The per-example deadline is off: a loaded machine can stall a chunk-sized
example for longer than hypothesis's default allows.
"""

from hypothesis import settings

settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")
