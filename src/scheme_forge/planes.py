"""Coordinate planes grown from one point and four of its s-neighbors.

A base is (alpha, beta, gamma, delta, epsilon): four distinct points of
the s-row of alpha with color(beta, delta) = color(gamma, epsilon) =
psi(s).  For a doubled-square color the plane is just the five-point
cross.  Otherwise axes extend by a two-step recurrence (color s from the
last point, psi(s) from the one before) and each off-axis cell is the
unique point seeing s from both inward neighbors and phi(s) across the
inward diagonal.  Both axes use the same recurrence; the vertical axis
is the horizontal rule transported by a quarter turn.

A plane is one array of points (see Plane), so the quarter turn of the
whole plane is np.rot90 and every check compares two arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .scheme_core import Scheme, SchemeForgeError
from .products import PhiPsi

DEFAULT_RADIUS = 3


class NoExtension(SchemeForgeError):
    """A line or cell constraint has no solution."""


class AmbiguousExtension(SchemeForgeError):
    """A line or cell constraint has two or more solutions."""


class InvalidBase(SchemeForgeError):
    """The five base points do not satisfy the plane premise."""


@dataclass(frozen=True, eq=False)
class Plane:
    """grid[R + i, R + j], read-only, is the point of cell (i, j), R the
    radius; -1 marks the cells outside the window, the corners of a cross.
    Both windows are closed under the quarter turn (i, j) -> (-j, i), which
    np.rot90(grid) applies to the whole plane."""

    s: int
    base: tuple[int, int, int, int, int]
    grid: np.ndarray

    @property
    def alpha(self) -> int:
        return self.base[0]

    def image(self, table) -> np.ndarray:
        """table[point] at each cell, -1 outside the window, which is never
        looked up: table[-1] would read the last entry."""
        out = np.full(self.grid.shape, -1, dtype=np.int64)
        inside = self.grid >= 0
        out[inside] = np.asarray(table)[self.grid[inside]]
        return out


def _check_base(scheme: Scheme, pp: PhiPsi, s: int, base) -> None:
    alpha, beta, gamma, delta, epsilon = base
    if s == 0 or s >= scheme.r:
        raise ValueError("no such non-diagonal color: %d" % s)
    neighbors = (beta, gamma, delta, epsilon)
    if len(set(neighbors)) != 4:
        raise InvalidBase("base points %s are not distinct" % (neighbors,))
    for point in neighbors:
        if scheme.color[alpha, point] != s:
            raise InvalidBase(
                "color(%d,%d) = %d, expected %d"
                % (alpha, point, int(scheme.color[alpha, point]), s)
            )
    psi_s = pp.psi[s]
    if scheme.color[beta, delta] != psi_s:
        raise InvalidBase(
            "color(beta,delta) = %d, expected psi(s) = %d"
            % (int(scheme.color[beta, delta]), psi_s)
        )
    if scheme.color[gamma, epsilon] != psi_s:
        raise InvalidBase(
            "color(gamma,epsilon) = %d, expected psi(s) = %d"
            % (int(scheme.color[gamma, epsilon]), psi_s)
        )


def build_plane(scheme: Scheme, pp: PhiPsi, s: int, alpha: int, beta: int,
                gamma: int, delta: int, epsilon: int,
                radius: int = DEFAULT_RADIUS) -> Plane:
    """Fill the window [-radius, radius]^2 (the cross for doubled squares);
    build_planes' error for this one base is raised."""
    plane = build_planes(scheme, pp, {s: (alpha, beta, gamma, delta, epsilon)}, radius)[s]
    if isinstance(plane, SchemeForgeError):
        raise plane
    return plane


def build_planes(scheme: Scheme, pp: PhiPsi, bases: dict, radius: int = DEFAULT_RADIUS) -> dict:
    """The plane of each color s of bases ({s: base}), in that order, as
    {s: Plane}, or {s: error} for an InvalidBase, NoExtension or
    AmbiguousExtension; ValueError for a diagonal or unknown color, or a
    radius below 1 for a split-square color.

    A doubled-square color gets the cross.  The split-square planes grow in
    lockstep: the four axes of every plane take one line step together,
    then each cell (i, j) is filled in all four quadrants of every plane at
    once.  A plane's error names its first step with no or several points
    in the order of one plane built alone: the axes through beta, gamma,
    delta and epsilon, each step by step, then the cells (i, j) in order,
    each in the quadrants (1,1), (1,-1), (-1,1) and (-1,-1)."""
    out: dict = {}
    lanes = {}
    for s, base in bases.items():
        base = tuple(base)
        try:
            _check_base(scheme, pp, s, base)
        except InvalidBase as err:
            out[s] = err
            continue
        if s in pp.s2:
            alpha, beta, gamma, delta, epsilon = base
            grid = np.array([[-1, delta, -1], [epsilon, alpha, gamma], [-1, beta, -1]],
                            dtype=np.int64)
            grid.setflags(write=False)
            out[s] = Plane(s, base, grid)
        elif radius < 1:
            raise ValueError("radius must be at least 1")
        else:
            lanes[s] = base
    if lanes:
        out.update(_lockstep_planes(scheme, pp, lanes, radius))
    return {s: out[s] for s in bases}


def _lockstep_planes(scheme: Scheme, pp: PhiPsi, bases: dict, radius: int) -> dict:
    """build_planes for split-square colors whose bases passed _check_base.

    A lane's points are right up to its own first failing step, and no lane
    reads another's, so each plane keeps the failure that comes first in
    the order of one plane built alone, whatever order the lockstep takes."""
    colors = list(bases)
    o, side = radius, 2 * radius + 1
    grids = np.empty((len(colors), side, side), dtype=np.int64)
    start = np.array([bases[c] for c in colors], dtype=np.int64)
    # lane 4p + q of plane p: the axis through beta (+i), gamma (+j),
    # delta (-i) or epsilon (-j), then the quadrant (sx, sy) = (1,1),
    # (1,-1), (-1,1) or (-1,-1)
    di, dj = np.array([1, 0, -1, 0]), np.array([0, 1, 0, -1])
    sx, sy = np.array([1, 1, -1, -1]), np.array([1, -1, 1, -1])
    s, psi, phi = (np.repeat(np.array(v, dtype=np.int64), 4)
                   for v in (colors, [pp.psi[c] for c in colors], [pp.phi[c] for c in colors]))
    failed: dict = {}  # plane -> (order of its step, error)

    def step(x, y, constraints):
        """Fill cell (x, y) of every lane: the point meeting each
        (cell x, cell y, color) constraint, unique or not.  Returns
        {lane: its candidates} for the lanes with no or several."""
        (fx, fy, col), *rest = constraints
        first = grids[:, fx, fy].ravel()
        lane, point = np.nonzero(scheme.color[first] == col[:, None])
        for cx, cy, cols in rest:
            keep = scheme.color[grids[:, cx, cy].ravel()[lane], point] == cols[lane]
            lane, point = lane[keep], point[keep]
        found = first.copy()  # an in-range point for a lane with none
        found[lane] = point
        grids[:, x, y] = found.reshape(-1, 4)
        counts = np.bincount(lane, minlength=len(first))
        return {int(k): point[lane == k].tolist() for k in np.flatnonzero(counts != 1)}

    def fail(plane, order, context, candidates):
        if plane not in failed or order < failed[plane][0]:
            failed[plane] = (order, AmbiguousExtension("%s: candidates %s" % (context, candidates))
                             if candidates else NoExtension(context))

    grids[:, o, o] = start[:, 0]
    grids[:, o + di, o + dj] = start[:, 1:]
    for t in range(2, radius + 1):
        last, before = (o + (t - 1) * di, o + (t - 1) * dj), (o + (t - 2) * di, o + (t - 2) * dj)
        for k, candidates in step(o + t * di, o + t * dj, [(*last, s), (*before, psi)]).items():
            p, q = divmod(k, 4)
            fail(p, (0, q, t), "line step %d from %d,%d" % (
                t, grids[p, before[0][q], before[1][q]], grids[p, last[0][q], last[1][q]]),
                candidates)
    for i in range(1, radius + 1):
        for j in range(1, radius + 1):
            x, y = o + sx * i, o + sy * j
            for k, candidates in step(x, y, [(x - sx, y, s), (x, y - sy, s),
                                             (x - sx, y - sy, phi)]).items():
                p, q = divmod(k, 4)
                fail(p, (1, i, j, q), "cell (%d,%d)" % (sx[q] * i, sy[q] * j), candidates)
    grids.setflags(write=False)
    return {c: failed[p][1] if p in failed else Plane(c, bases[c], grids[p])
            for p, c in enumerate(colors)}


def check_rotation_invariance(scheme: Scheme, plane: Plane) -> bool:
    """color(alpha, grid(cell)) is constant on every quarter-turn orbit: the
    colors from alpha, as an array over the cells, equal their quarter turn."""
    colors = plane.image(scheme.color[plane.alpha])
    return bool(np.array_equal(colors, np.rot90(colors)))


def misaligned_cell(plane: Plane, sigma) -> tuple[int, int] | None:
    """The first cell c, in array order, whose point sigma does not carry to
    the point of the cell c turns to; None when np.rot90(sigma[grid]) == grid."""
    turned = np.rot90(plane.grid, -1)  # turned[c]: the point of the cell c turns to
    differ = plane.image(sigma) != turned
    if not differ.any():
        return None
    i, j = np.argwhere(differ)[0] - len(turned) // 2
    return (int(i), int(j))


def valid_bases(scheme: Scheme, pp: PhiPsi, s: int, alpha: int):
    """All distinct 4-tuples from the s-row of alpha satisfying the premise."""
    row = [int(y) for y in scheme.row(alpha, s)]
    psi_s = pp.psi[s]
    return [
        (alpha, beta, gamma, delta, epsilon)
        for beta, gamma, delta, epsilon in itertools.permutations(row, 4)
        if scheme.color[beta, delta] == psi_s == scheme.color[gamma, epsilon]
    ]


def sigma_base(scheme: Scheme, sigma, s: int, alpha: int):
    """Base aligned with a rotation automorphism: (beta, sigma beta, ...)."""
    if sigma[alpha] != alpha:
        raise InvalidBase("rotation does not fix point %d" % alpha)
    beta = int(scheme.row(alpha, s)[0])
    gamma = sigma[beta]
    delta = sigma[gamma]
    epsilon = sigma[delta]
    return (alpha, beta, gamma, delta, epsilon)
