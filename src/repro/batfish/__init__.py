"""Batfish substitute: snapshots, parse warnings, symbolic policy
questions, and BGP control-plane simulation behind a pybatfish-like API.
"""

from .bgpsim import (
    BgpSession,
    BgpSimulation,
    ResimStats,
    RibEntry,
    SimulationState,
)
from .session import BfSessionError, BgpSessionRow, Session
from .snapshot import Snapshot, detect_vendor

__all__ = [
    "BfSessionError",
    "BgpSession",
    "BgpSessionRow",
    "BgpSimulation",
    "ResimStats",
    "RibEntry",
    "Session",
    "SimulationState",
    "Snapshot",
    "detect_vendor",
]
