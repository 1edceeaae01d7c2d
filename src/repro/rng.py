"""Deterministic random-number utilities.

All stochastic entry points in the library accept a ``seed`` (int), a
:class:`numpy.random.Generator`, or ``None``.  :func:`ensure_rng` normalises
those into a ``Generator`` so experiments are reproducible end to end: the
harness derives independent child streams per trial via :func:`spawn`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]

#: Default seed used by examples and benchmarks so output is reproducible.
DEFAULT_SEED = 20030422  # IPPS 2003 (April 22-26, Nice) — purely mnemonic.


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Normalise ``rng`` into a :class:`numpy.random.Generator`.

    Args:
        rng: ``None`` (fresh nondeterministic generator), an integer seed, or
            an existing generator (returned unchanged).

    Returns:
        A ready-to-use generator.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot build a Generator from {type(rng).__name__}")


def spawn_seeds(rng: RngLike, n: int) -> list[np.random.SeedSequence]:
    """Derive ``n`` independent child :class:`~numpy.random.SeedSequence`\\ s.

    The raw form of :func:`spawn`: seed sequences are tiny and picklable, so
    the execution backends ship *these* to worker processes and build the
    generators worker-side.  Spawning is cumulative on the parent — child
    ``i`` is the same whether the children are requested one by one or in a
    single call, which is what makes trial streams independent of batch
    partitioning.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    parent = ensure_rng(rng)
    return parent.bit_generator.seed_seq.spawn(n)  # type: ignore[union-attr]


def spawn(rng: RngLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators.

    Uses the SeedSequence spawning protocol, so children are independent of
    each other and of the parent's future output.  Used by the experiment
    harness to give every trial its own stream (trial ``i`` is reproducible
    regardless of how many trials run).
    """
    return [np.random.default_rng(s) for s in spawn_seeds(rng, n)]


def derive_seed(rng: RngLike) -> int:
    """Draw a fresh 63-bit seed from ``rng`` (for labelling / serialisation)."""
    return int(ensure_rng(rng).integers(0, 2**63 - 1))
