"""Shared test settings and fixtures.

Property tests are deterministic and keep no example database.
"""

import pytest
from hypothesis import settings

from chainopt import harness

settings.register_profile("chainopt", derandomize=True, database=None, deadline=None)
settings.load_profile("chainopt")


@pytest.fixture
def harness_cannot_allocate(monkeypatch):
    """Fail the test if the space generators touch numpy or itertools at all."""
    class Unreachable:
        def __getattr__(self, name):
            raise AssertionError(f"{name} used before the size check")

    monkeypatch.setattr(harness, "np", Unreachable())
    monkeypatch.setattr(harness, "itertools", Unreachable())
