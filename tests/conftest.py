"""Shared fixtures for the tier-1 suite."""

import pytest


@pytest.fixture(scope="session")
def paper_report():
    """The full paper-claims report, validated cold and then warm.

    Both runs share one result cache, so the warm run is served entirely from
    it; tests that grade further claims against the same experiments can pass
    ``cache`` to their own :class:`~repro.report.ReportValidator` and run
    nothing new.  Returns ``(cache, cold_run, warm_run)``.
    """
    from repro.report import ReportValidator
    from repro.runtime.cache import ResultCache

    cache = ResultCache()
    validator = ReportValidator(cache=cache)
    cold_run = validator.validate()
    warm_run = validator.validate()
    return cache, cold_run, warm_run
