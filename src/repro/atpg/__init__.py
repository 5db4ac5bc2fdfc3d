"""Test generation substrate: PRPG, random ATPG, PODEM, bridge ATPG."""

from repro.atpg.bridge_atpg import (
    BridgeAtpgResult,
    FeedbackBridgeError,
    build_bridge_miter,
    generate_bridge_tests,
)
from repro.atpg.patterns import Lfsr, TestSet, random_patterns
from repro.atpg.podem import (
    AtpgOutcome,
    AtpgStatus,
    DeterministicAtpgResult,
    PodemAtpg,
    generate_deterministic_tests,
)
from repro.atpg.random_atpg import RandomAtpgResult, generate_random_tests

__all__ = [
    "AtpgOutcome",
    "AtpgStatus",
    "BridgeAtpgResult",
    "DeterministicAtpgResult",
    "FeedbackBridgeError",
    "Lfsr",
    "PodemAtpg",
    "RandomAtpgResult",
    "TestSet",
    "build_bridge_miter",
    "generate_bridge_tests",
    "generate_deterministic_tests",
    "generate_random_tests",
    "random_patterns",
]
