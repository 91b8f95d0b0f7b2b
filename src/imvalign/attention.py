"""Scaled dot-product alignment between encoded sequences.

Produces the raw (unconstrained) alignment matrix that the monotonic
machinery consumes: queries come from the output side, keys from the
input side, and each output column is a softmax over input tokens.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .core import AlignmentError

__all__ = ["scaled_dot_alignment"]


def scaled_dot_alignment(queries, keys):
    """Alignment matrix (t1, t2) from queries (t2, d) and keys (t1, d).

    Logits are the dot products scaled by d**-0.5, normalized over the
    input axis, so similar vectors attract attention.
    """
    q_data = ad.data(queries)
    k_data = ad.data(keys)
    if q_data.ndim != 2 or k_data.ndim != 2:
        raise AlignmentError("queries and keys must be 2-D (length, dim)")
    if q_data.shape[1] != k_data.shape[1]:
        raise AlignmentError(
            f"dimension mismatch: queries have d={q_data.shape[1]}, "
            f"keys have d={k_data.shape[1]}"
        )
    if not (np.all(np.isfinite(q_data)) and np.all(np.isfinite(k_data))):
        raise AlignmentError("encoded sequences must be finite")
    scale = float(q_data.shape[1]) ** -0.5
    logits = ad.matmul(keys, ad.transpose(queries)) * scale
    return ad.softmax(logits, axis=0)
