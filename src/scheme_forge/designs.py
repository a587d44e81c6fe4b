"""Block designs cut out of a scheme's relation rows."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scheme_core import Scheme, is_k_equivalenced
from .products import NotFourEquivalenced


@dataclass(frozen=True, eq=False)
class BlockDesign:
    """n points and a (b, k) int array, one block per row."""

    n: int
    blocks: np.ndarray


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
    rows.setflags(write=False)
    return BlockDesign(scheme.n, rows)


def verify_design(design: BlockDesign, k: int = 4, lam: int = 3) -> bool:
    """Every block has k distinct points and every pair lies in exactly lam blocks.

    The pairs of each sorted block are counted by their codes x * n + y
    (x < y), which are distinct for distinct pairs.  The counting identity
    b * C(k, 2) == lam * C(n, 2), which every 2-design meets, is checked
    with lam >= 1 before any code is built.  When it holds there are
    lam * C(n, 2) codes, so an n with n**2 >= 2**63 would need more than
    2**61 of them: allocating them fails before any int64 product can wrap.
    """
    points = np.asarray(design.blocks)
    if points.ndim != 2 or points.shape[1] != k or points.dtype.kind not in "iu":
        return False
    n = design.n
    if lam < 1 or len(points) * math.comb(k, 2) != lam * math.comb(n, 2):
        return False
    if ((points < 0) | (points >= n)).any():
        return False
    points = np.sort(points, axis=1).astype(np.int64, copy=False)
    if (points[:, 1:] == points[:, :-1]).any():
        return False
    first, second = np.triu_indices(k, 1)
    _, counts = np.unique(points[:, first] * n + points[:, second], return_counts=True)
    return len(counts) == math.comb(n, 2) and bool((counts == lam).all())
