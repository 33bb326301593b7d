"""Shared utilities: random number handling."""

from repro.utils.rng import ensure_rng

__all__ = ["ensure_rng"]
