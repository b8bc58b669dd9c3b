"""Deterministic random-stream construction.

Every random draw in the package flows through a Philox counter-based
generator keyed by ``(seed, stream)``.  Distinct consumers of the same user
seed (factor initialisation, matrix perturbation, data synthesis, splitting)
therefore never share a stream, and results do not depend on evaluation
order or worker count.
"""

from __future__ import annotations

import numpy as np

STREAM_NMF_INIT = 1
STREAM_PERTURB = 2
STREAM_SYNTH = 3
STREAM_SPLIT = 4

_MASK64 = (1 << 64) - 1


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a fresh Philox generator for the given seed and stream."""
    key = (int(seed) & _MASK64) | ((int(stream) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def node_seed(seed: int, path: str) -> int:
    """Stable 64-bit seed for one hierarchy node.

    Derived from a keyed hash of the node path so sibling subtrees can be
    processed in any order (or in parallel) without changing results.
    """
    import hashlib  # here, not at the top: only builds derive node seeds

    digest = hashlib.blake2b(f"{int(seed)}:{path}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")
