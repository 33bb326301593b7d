"""Random-number-generator plumbing.

Every stochastic function in the library accepts an ``rng`` keyword so that
experiments are reproducible.  ``ensure_rng`` normalizes the accepted input
types (``None``, an integer seed, or an existing generator) into a
:class:`numpy.random.Generator`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a random generator from the accepted inputs.

    Parameters
    ----------
    rng:
        ``None`` (fresh unpredictable generator), an ``int`` seed, a
        :class:`numpy.random.SeedSequence`, or an existing generator which is
        returned unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(rng)
    raise TypeError(f"cannot build a random generator from {type(rng).__name__}")


__all__ = ["RngLike", "ensure_rng"]
