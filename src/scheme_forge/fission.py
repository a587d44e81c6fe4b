"""Point fissions: individualize points, stabilize, and measure the fallout.

wl_stabilize runs the pair refinement to a fixed point: each pair is
recolored by its old color together with the multiset of color pairs it
sees through every third point, until the color count stops growing.
Colors are renumbered by first occurrence in row-major order after
every round, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scheme_core import (
    Scheme,
    SchemeForgeError,
    _check_constancy,
    _scan_dual,
    canonical_relabel,
)
from .groups import PermGroup, enumerate_elements, identity_perm
from .products import phi_psi

DEFAULT_CUTOFF = 3


class NotAFiber(SchemeForgeError):
    """The split point is not alone in its fiber."""


class CutoffExceeded(SchemeForgeError):
    """No point set up to the cutoff size yields a complete fission."""


@dataclass(frozen=True, eq=False)
class CoherentConfiguration:
    n: int
    color: np.ndarray
    num_colors: int
    fibers: tuple[tuple[int, ...], ...]

    @property
    def is_complete(self) -> bool:
        return self.num_colors == self.n * self.n


@dataclass(frozen=True)
class FissionReport:
    """Summary of one point fission.

    semiregular_off is the first split point at which semiregularity
    fails, or None when it holds at every split point.
    """

    distinguished: tuple[int, ...]
    num_colors: int
    num_fibers: int
    semiregular_off: int | None
    complete: bool
    fibers: tuple[tuple[int, ...], ...]


def _relabel_rows_first_occurrence(rows: np.ndarray) -> tuple[np.ndarray, int]:
    uniq, first, inv = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    inv = inv.reshape(-1)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(uniq))
    return rank[inv], len(uniq)


def _fibers_of(color: np.ndarray) -> tuple[tuple[int, ...], ...]:
    diag = color.diagonal()
    fibers = {}
    for x, d in enumerate(diag):
        fibers.setdefault(int(d), []).append(x)
    return tuple(
        tuple(points) for _, points in sorted(fibers.items(), key=lambda kv: kv[1][0])
    )


def wl_stabilize(matrix) -> CoherentConfiguration:
    """Refine a transpose-paired color matrix to a coherent fixed point."""
    color = canonical_relabel(np.asarray(matrix, dtype=np.int64))
    n = color.shape[0]
    num = int(color.max()) + 1
    while True:
        # signature of (x,y): old color plus sorted pairs (c(x,z), c(z,y))
        paths = color[:, None, :] * np.int64(num) + color.T[None, :, :]
        paths.sort(axis=2)
        sig = np.concatenate((color[:, :, None], paths), axis=2).reshape(n * n, n + 1)
        labels, new_num = _relabel_rows_first_occurrence(sig)
        if new_num == num:
            break
        color = labels.reshape(n, n)
        num = new_num
    color.setflags(write=False)
    return CoherentConfiguration(n, color, num, _fibers_of(color))


def point_fission(scheme: Scheme, points) -> CoherentConfiguration:
    """Smallest stable refinement in which every given point is its own fiber."""
    delta = sorted(set(int(p) for p in points))
    if not delta:
        raise ValueError("need at least one point to individualize")
    if delta[0] < 0 or delta[-1] >= scheme.n:
        raise ValueError("point out of range")
    marker = np.zeros(scheme.n, dtype=np.int64)
    for rank, p in enumerate(delta, start=1):
        marker[p] = rank
    m = np.int64(len(delta) + 1)
    seed = (scheme.color * m + marker[:, None]) * m + marker[None, :]
    return wl_stabilize(seed)


def validate_configuration(cc: CoherentConfiguration) -> None:
    """Re-check coherence from scratch: constancy, transpose pairing, fibers.

    Raises the same error types as scheme validation; used by tests and
    the report runner rather than on every construction.
    """
    counts = np.bincount(cc.color.ravel(), minlength=cc.num_colors)
    if (counts == 0).any():
        raise ValueError("a color index never occurs")
    _scan_dual(cc.color, cc.num_colors)
    _check_constancy(cc.color, cc.num_colors)
    diag_colors = set(int(d) for d in cc.color.diagonal())
    for s in range(cc.num_colors):
        xs, ys = np.nonzero(cc.color == s)
        row_fibers = set(int(d) for d in cc.color.diagonal()[xs])
        col_fibers = set(int(d) for d in cc.color.diagonal()[ys])
        if len(row_fibers) != 1 or len(col_fibers) != 1:
            raise SchemeForgeError("color %d straddles fibers" % s)
        if s in diag_colors and (xs != ys).any():
            raise SchemeForgeError("diagonal color %d leaves the diagonal" % s)


def is_semiregular_off(cc: CoherentConfiguration, alpha: int) -> bool:
    """Every color not touching alpha's fiber has out-degree at most 1."""
    if not 0 <= alpha < cc.n:
        raise ValueError("point out of range")
    fiber = next(f for f in cc.fibers if alpha in f)
    if fiber != (alpha,):
        raise NotAFiber("point %d shares a fiber with %s" % (alpha, fiber))
    touching = set(int(s) for s in cc.color[alpha]) | set(
        int(s) for s in cc.color[:, alpha]
    )
    outdeg = np.zeros((cc.n, cc.num_colors), dtype=np.int64)
    np.add.at(outdeg, (np.repeat(np.arange(cc.n), cc.n), cc.color.ravel()), 1)
    keep = np.array([s not in touching for s in range(cc.num_colors)])
    if not keep.any():
        return True
    return int(outdeg[:, keep].max()) <= 1


def fibers_refine_rows(scheme: Scheme, cc: CoherentConfiguration, alpha: int) -> bool:
    """Each fiber other than {alpha} sits inside one relation row of alpha."""
    for fiber in cc.fibers:
        if fiber == (alpha,):
            continue
        colors = set(int(scheme.color[alpha, x]) for x in fiber)
        if len(colors) != 1:
            return False
    return True


def describe_fission(scheme: Scheme, points) -> FissionReport:
    delta = tuple(sorted(set(int(p) for p in points)))
    cc = point_fission(scheme, delta)
    failed = None
    for alpha in delta:
        try:
            ok = is_semiregular_off(cc, alpha)
        except NotAFiber:
            ok = False
        if not ok:
            failed = alpha
            break
    return FissionReport(delta, cc.num_colors, len(cc.fibers), failed, cc.is_complete, cc.fibers)


def _orbit_least_sets(n: int, size: int, stabilizer, prefix: tuple[int, ...] = ()):
    """Sorted point sets of one size that extend prefix, in lexicographic
    order, least ones per orbit.

    A set x1 < ... < xk is produced when each x(j+1) is the least point
    of its orbit under the elements that fix x1..xj.  The least set of
    every orbit of the group on k-sets has this form.  stabilizer holds
    the elements that fix every point of prefix.
    """
    if len(prefix) == size:
        yield prefix
        return
    for y in range(prefix[-1] + 1 if prefix else 0, n):
        if all(g[y] >= y for g in stabilizer):
            yield from _orbit_least_sets(n, size, [g for g in stabilizer if g[y] == y],
                                         prefix + (y,))


def find_base(scheme: Scheme, cutoff: int = DEFAULT_CUTOFF, group: PermGroup | None = None,
              fissions: dict[int, CoherentConfiguration] | None = None,
              ) -> tuple[int, tuple[int, ...]]:
    """Smallest point set whose fission is complete, with its witness.

    Sizes are tried in increasing order, sets in lexicographic order
    (except that size-2 candidates whose color has a doubled square come
    first); the first complete fission wins.  Given a group of
    automorphisms, a set is tried only when each point is the least of
    its orbit under the stabilizer of the points before it: the group
    carries complete sets to complete sets and doubled-square pairs to
    doubled-square pairs, so the witness is the same as without it.
    fissions maps points to one-point fissions that are already built.
    """
    if scheme.n == 1:
        return 0, ()
    elements = enumerate_elements(group) if group is not None else (identity_perm(scheme.n),)
    known = fissions or {}
    for size in range(1, cutoff + 1):
        candidates = _orbit_least_sets(scheme.n, size, elements)
        if size == 2:
            try:
                doubled = phi_psi(scheme).s2
            except SchemeForgeError:
                doubled = ()
            candidates = sorted(candidates, key=lambda p: int(scheme.color[p]) not in doubled)
        for delta in candidates:
            in_hand = size == 1 and delta[0] in known
            cc = known[delta[0]] if in_hand else point_fission(scheme, delta)
            if cc.is_complete:
                return size, delta
    raise CutoffExceeded("no complete fission from at most %d points" % cutoff)


def base_number(scheme: Scheme, cutoff: int = DEFAULT_CUTOFF) -> int:
    """Size of the smallest point set whose fission is complete."""
    size, _ = find_base(scheme, cutoff)
    return size
