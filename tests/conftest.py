"""Set-up shared by the test modules."""

from __future__ import annotations

import pytest

from repro.compose.shard import forget_devices


@pytest.fixture(autouse=True)
def _shard_budget_tests_start_cold(request):
    """The shard-budget tests in ``test_budget.py`` measure a cold device
    build through the context an unbudgeted shard task creates.  A model
    that an earlier test left held on this thread would create none, so
    those tests start without one, in whatever order the modules run."""
    if request.module.__name__.rpartition(".")[2] == "test_budget":
        forget_devices()
