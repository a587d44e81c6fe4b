"""Block designs cut out of a scheme's relation rows."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .scheme_core import Scheme, is_k_equivalenced
from .products import NotFourEquivalenced


@dataclass(frozen=True)
class BlockDesign:
    n: int
    blocks: tuple[frozenset[int], ...]


def scheme_to_design(scheme: Scheme) -> BlockDesign:
    """One block per (point, non-diagonal color): the relation row.

    Repeated point sets are kept as separate blocks, so a scheme with r
    colors contributes exactly n * (r - 1) blocks.
    """
    if is_k_equivalenced(scheme) != 4:
        raise NotFourEquivalenced("rows must all have size 4")
    # a stable sort of each row lists its points by color, the point itself
    # (color 0) first, then four points per non-diagonal color in order
    rows = np.argsort(scheme.color, axis=1, kind="stable")[:, 1:].reshape(-1, 4)
    return BlockDesign(scheme.n, tuple(map(frozenset, rows.tolist())))


def verify_design(design: BlockDesign, t: int = 2, k: int = 4, lam: int = 3) -> bool:
    """Every block has k points and every t-set lies in exactly lam blocks.

    The t-subsets of each sorted block are counted by their mixed-radix
    codes, sum of x_j * n**(t - 1 - j), which are distinct for distinct sets.
    """
    if any(len(b) != k for b in design.blocks):
        return False
    n = design.n
    points = np.sort(np.array([list(b) for b in design.blocks], dtype=np.int64)
                     .reshape(len(design.blocks), k), axis=1)
    if points.size and (points.min() < 0 or points.max() >= n):
        return False
    dtype = np.int64 if n**t < 2**63 else object
    weights = np.array([n ** (t - 1 - j) for j in range(t)], dtype=dtype)
    subsets = np.array(list(itertools.combinations(range(k), t)),
                       dtype=np.intp).reshape(math.comb(k, t), t)
    codes = points[:, subsets].astype(dtype) @ weights
    _, counts = np.unique(codes, return_counts=True)
    return len(counts) == math.comb(n, t) and bool((counts == lam).all())
