"""Deterministic seed fan-out.

Every stochastic component derives its own seed from one master seed and a
component name, so reruns (and partial reruns) of a pipeline stay consistent
without threading generator objects through every call.
"""
from __future__ import annotations

import hashlib


def derive_seed(master: int, component: str) -> int:
    """Return a 64-bit seed derived from ``master`` and a component name.

    The derivation is a SHA-256 hash of ``"{master}/{component}"``, so it is
    stable across processes and platforms.
    """
    digest = hashlib.sha256(f"{master}/{component}".encode()).digest()
    return int.from_bytes(digest[:8], "big")

