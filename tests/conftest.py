"""Set-up shared by the test modules."""

from __future__ import annotations

import pytest

from repro.compose.driver import forget_fabrics
from repro.compose.shard import forget_devices


@pytest.fixture(autouse=True)
def _composed_tests_start_without_held_fabrics():
    """Every test starts with no held fabric or summary, so whether a
    query dispatches depends only on what that test asked before."""
    forget_fabrics()


@pytest.fixture(autouse=True)
def _shard_budget_tests_start_cold(request):
    """The shard-budget tests in ``test_budget.py`` measure a cold device
    build through the context an unbudgeted shard task creates.  A model
    that an earlier test left held on this thread would create none, so
    those tests start without one, in whatever order the modules run."""
    if request.module.__name__.rpartition(".")[2] == "test_budget":
        forget_devices()
