"""Set-up shared by the test modules."""

from __future__ import annotations

import pytest

from repro.compose.shard import forget


@pytest.fixture(autouse=True)
def _tests_start_without_a_compose_context():
    """Every test starts with no compose context held on this thread:
    no device model, summary or fabric, so whether a query builds or
    dispatches depends only on what that test asked before (the
    shard-budget tests in ``test_budget.py`` measure a cold device
    build through the context an unbudgeted shard task creates)."""
    forget()
