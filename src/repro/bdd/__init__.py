"""Binary decision diagram substrate.

Provides the ROBDD manager used by the Zen BDD backend and the state
set transformer abstraction, plus the variable allocator.
"""

from .manager import FALSE, TRUE, Bdd, BddStats
from .ordering import VariableAllocator

__all__ = [
    "Bdd",
    "BddStats",
    "TRUE",
    "FALSE",
    "VariableAllocator",
]
