"""The Table-1 analyses, all built on top of the Zen API.

Each module implements one published network analysis using only the
public Zen primitives (evaluate / find / transformers), demonstrating
the generality claim of the paper:

* :mod:`hsa` — header space analysis (packet-set reachability),
* :mod:`atomic_predicates` — Yang-Lam atomic predicate computation,
* :mod:`anteater` — per-path SAT reachability,
* :mod:`minesweeper` — BGP stable path constraint solving,
* :mod:`bonsai` — network compression by behavioral equivalence,
* :mod:`shapeshifter` — abstract interpretation of the control plane.
"""

from .anteater import ReachabilityResult, enumerate_paths, find_reachable_packet, verify_isolation
from .atomic_predicates import atom_count, atomic_predicates, predicate_as_atoms
from .bonsai import compress_devices, compress_interfaces, compression_ratio
from .hsa import PathSet, hsa_explore, reachable_between, reachable_sets
from .minesweeper import BgpEdge, BgpNetwork
from .shapeshifter import (
    ALWAYS,
    MAYBE,
    NEVER,
    AbstractControlPlane,
    abstract_join,
    abstract_transfer,
)

__all__ = [
    "PathSet",
    "hsa_explore",
    "reachable_sets",
    "reachable_between",
    "atomic_predicates",
    "predicate_as_atoms",
    "atom_count",
    "enumerate_paths",
    "find_reachable_packet",
    "verify_isolation",
    "ReachabilityResult",
    "BgpNetwork",
    "BgpEdge",
    "compress_interfaces",
    "compress_devices",
    "compression_ratio",
    "AbstractControlPlane",
    "abstract_join",
    "abstract_transfer",
    "NEVER",
    "MAYBE",
    "ALWAYS",
]
