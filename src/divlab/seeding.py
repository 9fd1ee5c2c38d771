"""Deterministic seed derivation for Monte Carlo experiments.

Every stochastic routine takes one root seed and derives independent
streams from ``(root, tag, index)`` triples.  The tag names the role of
the stream (for example ``"data"`` or ``"weights"``) and the index
separates replications.  Derivation goes through ``SeedSequence`` spawn
keys, so streams are independent, reproducible across platforms, and
stable under re-chunking of the replication loop.
"""

from __future__ import annotations

import zlib

import numpy as np


def derive_seed(root: int, tag: str, index: int = 0) -> np.random.SeedSequence:
    """Child seed for the stream named ``tag`` at replication ``index``."""
    return np.random.SeedSequence(
        entropy=int(root), spawn_key=(zlib.crc32(tag.encode("utf-8")), int(index))
    )


def derived_rng(root: int, tag: str, index: int = 0) -> np.random.Generator:
    """Generator seeded from :func:`derive_seed`."""
    return np.random.default_rng(derive_seed(root, tag, index))


#: replication block size; fixed so results never depend on scheduling
MC_CHUNK = 2048


def chunked(root: int, tag: str, reps: int, draw) -> list:
    """Run ``draw(rng, size)`` over ``reps`` replications in fixed blocks.

    Block ``i`` holds up to ``MC_CHUNK`` replications and draws from the
    stream ``(root, tag, i)``; the per-block results come back in block
    order.
    """
    return [
        draw(derived_rng(root, tag, i), min(MC_CHUNK, reps - start))
        for i, start in enumerate(range(0, reps, MC_CHUNK))
    ]
