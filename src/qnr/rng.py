"""Named, splittable random streams.

Every random draw in the package comes from a Philox counter-based generator
keyed by (master seed, stream path).  Stream paths are short tuples such as
``("inputs",)``, ``("instance", 7)`` or ``("esp", "init", 3)``; string labels
are mapped to fixed integers so the same path always yields the same stream,
independent of creation order and of how many other streams exist.

Streams in use:

=================================  ============================================
path                               purpose
=================================  ============================================
("inputs",)                        task input sequence
("instance", i)                    noise compilation for reservoir instance i
("esn", k)                         weight draw for ESN configuration k
("esp", "init", m)                 m-th random initial state of the ESP probe
("surrogate",)                     all shuffle permutations of one analysis
=================================  ============================================
"""

from __future__ import annotations

import numpy as np

_LABELS = {
    "inputs": 0,
    "instance": 1,
    "esn": 2,
    "esp": 3,
    "surrogate": 4,
    "init": 5,
    "states": 6,
    "misc": 7,
}


def _encode(path):
    out = []
    for item in path:
        if isinstance(item, str):
            if item not in _LABELS:
                raise KeyError(f"unknown stream label {item!r}")
            out.append(_LABELS[item])
        elif isinstance(item, (int, np.integer)):
            if item < 0:
                raise ValueError("stream path integers must be non-negative")
            # offset so plain integers never collide with labels
            out.append(int(item) + len(_LABELS))
        else:
            raise TypeError(f"stream path items must be str or int, got {type(item)}")
    return tuple(out)


def stream(master_seed: int, *path) -> np.random.Generator:
    """Return the generator for (master_seed, path); identical on every call."""
    seq = np.random.SeedSequence(int(master_seed), spawn_key=_encode(path))
    return np.random.Generator(np.random.Philox(seq))
