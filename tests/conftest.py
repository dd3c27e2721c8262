"""Shared test settings: property tests are deterministic and keep no example database."""

from hypothesis import settings

settings.register_profile("chainopt", derandomize=True, database=None, deadline=None)
settings.load_profile("chainopt")
