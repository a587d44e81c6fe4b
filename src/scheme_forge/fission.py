"""Point fissions: individualize points, stabilize, and measure the fallout.

wl_stabilize computes the 2-dimensional Weisfeiler-Leman stabilization W
of a pair coloring c: its coarsest refinement in which the number
N_ab(x,y) of points z with c(x,z) = a and c(z,y) = b depends only on a, b
and the color of (x,y).

A round evaluates these counts at random points instead of listing them.
For R1, R2 drawn from [0, p)^num,

    H(x,y) = sum_z R1[c(x,z)] * R2[c(z,y)] = sum_ab R1[a] * R2[b] * N_ab(x,y),

which is one n x n float64 matrix product, taken modulo the prime p.  p is
the largest prime with n * (p - 1)**2 < 2**53, so every partial sum is an
exact integer whatever order BLAS sums in.  Two pairs with different
counts get the same H with probability at most 2/p (Schwartz-Zippel: the
difference is a nonzero polynomial of degree 2 over F_p while n < p, which
holds below 2 * 10**5 points).  Each round draws H twice and recolors each
pair by (old color, H1, H2).

The output is exact, not probable.  The key holds the old color, so each
round refines the last; pairs of one class of W have equal counts and so
equal keys, so each round stays at least as coarse as W.

Rounds stop when the color count reaches a bound: the number of orbits on
pairs of a known group G of permutations preserving c (n**2 for the
trivial group).  Every coloring on the way is G-invariant, since the
counts are, so each class is a union of G-orbits and the count is at most
the bound.  At the bound the coloring is the orbit partition of G, which
is a coherent configuration and so stable; a stable refinement of c that
is at least as coarse as W is W.

When the count stalls below the bound, an exact check compares the sorted
path codes of every pair with those of its color's first pair, as scheme
validation does.  If all agree the coloring is stable, and so is W.
Otherwise an evaluation collided, and each class splits by whether a
pair's codes equal its first pair's: the pairs of one class of W have
equal codes, so the split keeps the coloring coarser than W (and
G-invariant, as the codes are) and gains a color whatever the draw.
Colors are numbered by first occurrence in row-major order, so the matrix
does not depend on the seed or on where the rounds stop.

point_fission runs these rounds only as a fallback.  Let G be the
automorphisms that fix the split points (the identity alone when no
automorphism group is known), O its orbit partition on pairs, and W the
fission.  W is G-invariant, so each class of W is a union of classes of
O, and |W| <= |O|.  Color refinement on points (Babai-Erdos-Selkow,
Immerman-Lander) bounds |W| from below at O(n**2) a round and row: cells
start from a partition of the points, and each round keys every point x
by its cell and

    h(x) = sum_z R1[c(x,z)] * R2[cell(z)]  mod p,

exact for the same p as above.  True refinement ends at the coarsest
equitable partition finer than the start (a cell's points see the same
number of points of each cell along each color), and a hashed key can
only merge what true refinement splits, so at every round the cells
number at most those of any equitable partition finer than the start.
The certificate has two parts.

- The fibers of W are equitable and refine the marker (each split point
  alone, and the rest), and they are unions of G-orbits.  So refinement
  from the marker ends with at most as many cells as there are G-orbits
  on points; when it reaches that many, the fibers of W are the orbits.
- For a point x, z -> W(x,z) partitions the points equitably (by the
  intersection numbers of W, which refines c) and refines the marker
  plus {x}, so refinement from there ends with at most as many cells as
  there are colors of W in row x.  Every color of W leaving x's fiber
  occurs in row x, so these row counts, one x per fiber, sum to |W|.

So when the refinements from the marker plus {x}, one x per G-orbit on
points, sum to |O|, then |O| <= |W| <= |O| and W = O: point_fission
returns O, numbered by first occurrence in row-major order as the rounds
number W.  A point alone in its orbit needs no refinement of its own:
refining from the marker plus {x} ends with at least the marker's cells,
since a finer start ends finer.  All refinements run as the rows of one
(rows x n) by (n x n) product a round, with disjoint cell labels across
rows.  A short sum proves nothing, and the WL rounds run to |O|.  For the
trivial group, O is complete (every pair its own class), every orbit is
one point, and the certificate is refinement from the marker to n cells.
O comes from the elements of G, which is a C4 fixing only the split
point on the ladder instances and the identity for two points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .scheme_core import (
    Scheme,
    SchemeForgeError,
    _check_constancy,
    _first_occurrence_rank,
    _first_pairs,
    _path_code_blocks,
    _scan_dual,
    canonical_relabel,
)
from .groups import PermGroup, _is_prime, orbits, stabilizer
from .products import PhiPsi, phi_psi

DEFAULT_CUTOFF = 3

# Seed of the random evaluation points in wl_stabilize; the result does not
# depend on it.
_SEED = 1968


class NotAFiber(SchemeForgeError):
    """The split point is not alone in its fiber."""


class CutoffExceeded(SchemeForgeError):
    """No point set up to the cutoff size yields a complete fission."""


@dataclass(frozen=True, eq=False)
class CoherentConfiguration:
    """A configuration is its color matrix and color count; the fibers are
    read off the diagonal."""

    color: np.ndarray
    num_colors: int

    @property
    def n(self) -> int:
        return self.color.shape[0]

    @property
    def fibers(self) -> tuple[tuple[int, ...], ...]:
        """The points of each diagonal color, the fibers in order of least point."""
        labels, _ = _first_occurrence_rank(self.color.diagonal())
        ends = np.cumsum(np.bincount(labels))[:-1]
        return tuple(tuple(f.tolist()) for f in np.split(np.argsort(labels, kind="stable"), ends))

    @property
    def is_complete(self) -> bool:
        return self.num_colors == self.n * self.n


@functools.cache  # trial division takes milliseconds; every fission at n reuses it
def _modulus(n: int) -> int:
    """The largest prime p with n * (p - 1)**2 < 2**53."""
    p = math.isqrt((2**53 - 1) // n) + 1
    while not _is_prime(p):
        p -= 1
    return p


def _unstable_pairs(color: np.ndarray, num: int) -> np.ndarray:
    """n x n mask of the pairs whose path codes differ from their color's first pair."""
    unstable = np.empty(color.shape, dtype=bool)
    for xs, codes, expected in _path_code_blocks(color, num, _first_pairs(color)):
        unstable[xs] = (codes != expected).any(axis=2)
    return unstable


def wl_stabilize(matrix, bound: int | None = None) -> CoherentConfiguration:
    """Refine a transpose-paired color matrix to a coherent fixed point.

    bound is the number of orbits on pairs of a group of permutations that
    preserve the matrix (n**2 when None, for the trivial group).  Rounds
    stop as soon as the color count reaches it, since the G-invariant
    coloring is then the orbit partition, which is stable; the exact check
    runs only when the count stalls below it.
    """
    color = canonical_relabel(np.asarray(matrix, dtype=np.int64))
    n = color.shape[0]
    if bound is None:
        bound = n * n
    num = int(color.max()) + 1
    p = _modulus(n)
    rng = np.random.default_rng(_SEED)
    while num < bound:
        labels = color.ravel()
        for _ in range(2):
            left, right = rng.integers(0, p, size=(2, num)).astype(np.float64)
            # every partial sum is an integer below n * (p - 1)**2 < 2**53, so exact
            h = np.fmod(left[color] @ right[color], p).astype(np.int64)
            labels, new_num = _first_occurrence_rank(labels * p + h.ravel())
            if new_num == bound:
                break
        if new_num == num:
            unstable = _unstable_pairs(color, num)
            if not unstable.any():
                break
            labels, new_num = _first_occurrence_rank(color.ravel() * 2 + unstable.ravel())
        color = labels.reshape(n, n)
        num = new_num
    color.setflags(write=False)
    return CoherentConfiguration(color, num)


def _pair_orbits(scheme: Scheme, delta, group: PermGroup | None) -> tuple[np.ndarray, int]:
    """O and |O|: the orbits on pairs of the automorphisms in group fixing
    every point of delta, numbered by first occurrence in row-major order.
    The trivial group's, every pair its own class, unless the group carries
    an automorphism chain of this scheme, whose elements are checked
    products of checked automorphisms.
    """
    n = scheme.n
    least = np.arange(n * n, dtype=np.int64).reshape(n, n)
    if group is None or group.chain is None or not np.array_equal(
            group.chain.scheme.color, scheme.color):
        return least, n * n
    elems = np.array(stabilizer(group, delta[:1]), dtype=np.int64)
    elems = elems[(elems[:, delta[1:]] == delta[1:]).all(axis=1)]
    if len(elems) == 1:  # the identity
        return least, n * n
    for g in elems:
        least = np.minimum(least, g[:, None] * n + g[None, :])
    # a pair's code x * n + y is its row-major index, so the least code of
    # each orbit is its first pair
    least = least.ravel()
    first = least == np.arange(n * n)
    return (np.cumsum(first) - 1)[least].reshape(n, n), int(first.sum())


def _refine(scheme: Scheme, cells: np.ndarray, goal: int) -> np.ndarray:
    """Color refinement of every row of cells, one matrix product a round,
    until the rows hold goal cells in all or a round adds none.

    The rows hold disjoint cell labels numbered by first occurrence in
    row-major order, and so do the rows returned: each row's labels run
    from its first entry to its largest.
    """
    n, color = scheme.n, scheme.color
    total = int(cells.max()) + 1
    p = _modulus(n)
    rng = np.random.default_rng(_SEED)
    while total < goal:
        left = rng.integers(0, p, size=scheme.r).astype(np.float64)
        right = rng.integers(0, p, size=total).astype(np.float64)
        # h[i, x] = sum_z left[c(x,z)] * right[cell_i(z)]; every partial sum
        # is an integer below n * (p - 1)**2 < 2**53, so exact
        h = np.fmod(right[cells] @ left[color].T, p).astype(np.int64)
        labels, new_total = _first_occurrence_rank((cells * p + h).ravel())
        if new_total == total:
            break
        cells, total = labels.reshape(cells.shape), new_total
    return cells


def _orbits_certified(scheme: Scheme, marker: np.ndarray, orbit: np.ndarray,
                      num: int) -> bool:
    """True when point refinement proves that the fission is the orbit
    partition orbit with num classes; False when its counts fall short (see
    the module docstring)."""
    _, firsts, sizes = np.unique(orbit.diagonal(), return_index=True, return_counts=True)
    num_orbits, singletons = len(sizes), int((sizes == 1).sum())
    # row 0 refines the marker, and one row the marker plus x for the first
    # point x of each orbit of two or more points
    reps = firsts[sizes > 1]
    starts = np.tile(marker, (len(reps) + 1, 1))
    mark = int(marker.max()) + 1
    starts[np.arange(1, len(reps) + 1), reps] = mark
    starts += (mark + 1) * np.arange(len(reps) + 1)[:, None]
    cells = _first_occurrence_rank(starts.ravel())[0].reshape(starts.shape)
    # a row ends with at most as many cells as orbit has classes in the row
    # of its point x (num_orbits in a split point's): goal in all
    goal = num_orbits + num - singletons * num_orbits
    cells = _refine(scheme, cells, goal)
    counts = cells.max(axis=1) + 1 - cells[:, 0]
    return bool(counts[0] == num_orbits
                and counts[0] * singletons + counts[1:].sum() == num)


def point_fission(scheme: Scheme, points, group: PermGroup | None = None,
                  ) -> CoherentConfiguration:
    """Smallest stable refinement in which every given point is its own fiber.

    This is the orbit partition of the automorphisms in group that fix the
    points (the identity alone when group is None) whenever point
    refinement certifies it; otherwise the WL rounds run, stopping at the
    orbit count (see the module docstring).
    """
    delta = sorted(set(int(p) for p in points))
    if not delta:
        raise ValueError("need at least one point to individualize")
    if delta[0] < 0 or delta[-1] >= scheme.n:
        raise ValueError("point out of range")
    marker = np.zeros(scheme.n, dtype=np.int64)
    for rank, p in enumerate(delta, start=1):
        marker[p] = rank
    orbit, num = _pair_orbits(scheme, delta, group)
    if _orbits_certified(scheme, marker, orbit, num):
        orbit.setflags(write=False)
        return CoherentConfiguration(orbit, num)
    m = np.int64(len(delta) + 1)
    seed = (scheme.color * m + marker[:, None]) * m + marker[None, :]
    return wl_stabilize(seed, num)


def validate_configuration(cc: CoherentConfiguration) -> None:
    """Re-check coherence from scratch: constancy, transpose pairing, fibers.

    Raises the same error types as scheme validation; used by tests
    rather than on every construction.
    """
    color, num = cc.color, cc.num_colors
    counts = np.bincount(color.ravel(), minlength=num)
    if (counts == 0).any():
        raise ValueError("a color index never occurs")
    _scan_dual(color, num)
    _check_constancy(color, num)
    # the fiber of a point is its diagonal color; each color must meet
    # one fiber at its start points and one at its end points
    fiber = color.diagonal()
    straddles = np.zeros(num, dtype=bool)
    for ends in (fiber[:, None], fiber[None, :]):
        straddles |= np.bincount(np.unique(color * num + ends) // num, minlength=num) > 1
    leaves = np.zeros(num, dtype=bool)
    leaves[fiber] = True
    leaves &= np.bincount(color[~np.eye(cc.n, dtype=bool)], minlength=num) > 0
    bad = straddles | leaves
    if bad.any():
        s = int(np.argmax(bad))
        if straddles[s]:
            raise SchemeForgeError("color %d straddles fibers" % s)
        raise SchemeForgeError("diagonal color %d leaves the diagonal" % s)


def is_semiregular_off(cc: CoherentConfiguration, alpha: int) -> bool:
    """Every color not touching alpha's fiber has out-degree at most 1."""
    if not 0 <= alpha < cc.n:
        raise ValueError("point out of range")
    diagonal = cc.color.diagonal()
    fiber = np.flatnonzero(diagonal == diagonal[alpha])
    if len(fiber) > 1:
        raise NotAFiber("point %d shares a fiber with %s" % (alpha, tuple(fiber.tolist())))
    touching = np.zeros(cc.num_colors, dtype=bool)
    touching[cc.color[alpha]] = True
    touching[cc.color[:, alpha]] = True
    # a color has out-degree 2 or more iff it repeats within some sorted row
    rows = np.sort(cc.color, axis=1)
    repeated = rows[:, 1:][rows[:, 1:] == rows[:, :-1]]
    return not (~touching[repeated]).any()


def fibers_refine_rows(scheme: Scheme, cc: CoherentConfiguration, alpha: int) -> bool:
    """Each fiber other than {alpha} sits inside one relation row of alpha.

    {alpha} sits inside one row too, so this holds when the (fiber, color
    from alpha) pairs of all points number as many as the fibers.
    """
    fiber = cc.color.diagonal()
    pairs = fiber * scheme.r + scheme.color[alpha]
    return len(np.unique(pairs)) == len(np.unique(fiber))


def _orbit_least_sets(n: int, size: int, fixers, prefix: tuple[int, ...] = ()):
    """Sorted point sets of one size that extend prefix, in lexicographic
    order, least ones per orbit.

    A set x1 < ... < xk is produced when each x(j+1) is the least point
    of its orbit under the elements that fix x1..xj.  The least set of
    every orbit of the group on k-sets has this form.  fixers holds the
    elements that fix every point of prefix.
    """
    if len(prefix) == size:
        yield prefix
        return
    for y in range(prefix[-1] + 1 if prefix else 0, n):
        if all(g[y] >= y for g in fixers):
            yield from _orbit_least_sets(n, size, [g for g in fixers if g[y] == y],
                                         prefix + (y,))


def find_base(scheme: Scheme, cutoff: int = DEFAULT_CUTOFF, group: PermGroup | None = None,
              fissions: dict[int, CoherentConfiguration] | None = None,
              pp: PhiPsi | None = None) -> tuple[int, tuple[int, ...]]:
    """Smallest point set whose fission is complete, with its witness.

    Sizes are tried in increasing order, sets in lexicographic order
    (except that size-2 candidates whose color has a doubled square come
    first); the first complete fission wins.  Given a group of
    automorphisms, a set is tried only when each point is the least of
    its orbit under the stabilizer of the points before it: the group
    carries complete sets to complete sets and doubled-square pairs to
    doubled-square pairs, so the witness is the same as without it.  An
    automorphism group also certifies each fission as an orbit partition
    (see point_fission).  fissions maps points to one-point fissions that are
    already built, and pp is the scheme's phi/psi when already built.
    """
    if scheme.n == 1:
        return 0, ()
    if group is None:
        group = PermGroup(scheme.n, ())
    known = fissions or {}
    for size in range(1, cutoff + 1):
        # the least point of each orbit, then the sets that extend it under
        # its point stabiliser
        candidates = (delta for orbit in orbits(group)
                      for delta in _orbit_least_sets(
                          scheme.n, size, stabilizer(group, orbit[:1]), orbit[:1]))
        if size == 2:
            try:
                doubled = (phi_psi(scheme) if pp is None else pp).s2
            except SchemeForgeError:
                doubled = ()
            candidates = sorted(candidates, key=lambda p: int(scheme.color[p]) not in doubled)
        for delta in candidates:
            in_hand = size == 1 and delta[0] in known
            cc = known[delta[0]] if in_hand else point_fission(scheme, delta, group)
            if cc.is_complete:
                return size, delta
    raise CutoffExceeded("no complete fission from at most %d points" % cutoff)


def base_number(scheme: Scheme, cutoff: int = DEFAULT_CUTOFF) -> int:
    """Size of the smallest point set whose fission is complete."""
    size, _ = find_base(scheme, cutoff)
    return size
