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


class BaseMismatch(SchemeForgeError):
    """Two planes were compared around different origins."""


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


def _unique_point(scheme: Scheme, constraints, context: str) -> int:
    """The single point satisfying all (point, color) constraints."""
    mask = np.ones(scheme.n, dtype=bool)
    for point, col in constraints:
        mask &= scheme.color[point] == col
    hits = np.nonzero(mask)[0]
    if len(hits) == 0:
        raise NoExtension(context)
    if len(hits) > 1:
        raise AmbiguousExtension("%s: candidates %s" % (context, [int(h) for h in hits]))
    return int(hits[0])


def s_line(scheme: Scheme, pp: PhiPsi, s: int, x0: int, x1: int, length: int) -> tuple[int, ...]:
    """Extend x0, x1 to a line: each new point sees s from the last point
    and psi(s) from the one before; uniqueness holds because c(s,s,psi(s)) = 1."""
    if s not in pp.s3:
        raise ValueError("color %d has a doubled square; lines need the 2u+v case" % s)
    if scheme.color[x0, x1] != s:
        raise ValueError("color(x0, x1) is %d, not %d" % (int(scheme.color[x0, x1]), s))
    if length < 2:
        return (x0, x1)[:length]
    pts = [x0, x1]
    psi_s = pp.psi[s]
    while len(pts) < length:
        nxt = _unique_point(
            scheme,
            ((pts[-1], s), (pts[-2], psi_s)),
            "line step %d from %d,%d" % (len(pts), pts[-2], pts[-1]),
        )
        pts.append(nxt)
    return tuple(pts)


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
    """Fill the window [-radius, radius]^2 (the cross for doubled squares)."""
    base = (alpha, beta, gamma, delta, epsilon)
    _check_base(scheme, pp, s, base)
    if s in pp.s2:
        grid = np.array([[-1, delta, -1], [epsilon, alpha, gamma], [-1, beta, -1]], dtype=np.int64)
        grid.setflags(write=False)
        return Plane(s, base, grid)

    if radius < 1:
        raise ValueError("radius must be at least 1")
    grid = np.empty((2 * radius + 1, 2 * radius + 1), dtype=np.int64)
    o = radius  # the row and column of the origin
    # the axes from the origin through beta (+i), gamma (+j), delta (-i), epsilon (-j)
    axes = (grid[o:, o], grid[o, o:], grid[o::-1, o], grid[o, o::-1])
    for axis, second in zip(axes, (beta, gamma, delta, epsilon)):
        axis[:] = s_line(scheme, pp, s, alpha, second, radius + 1)

    phi_s = pp.phi[s]
    for i in range(1, radius + 1):
        for j in range(1, radius + 1):
            for sx in (1, -1):
                for sy in (1, -1):
                    x, y = o + sx * i, o + sy * j
                    grid[x, y] = _unique_point(
                        scheme,
                        (
                            (grid[x - sx, y], s),
                            (grid[x, y - sy], s),
                            (grid[x - sx, y - sy], phi_s),
                        ),
                        "cell (%d,%d)" % (sx * i, sy * j),
                    )
    grid.setflags(write=False)
    return Plane(s, base, grid)


def build_planes(scheme: Scheme, pp: PhiPsi, bases: dict, radius: int = DEFAULT_RADIUS) -> dict:
    """build_plane for each color s of bases ({s: base}), in that order, as
    {s: Plane}, or {s: error} where build_plane raises InvalidBase,
    NoExtension or AmbiguousExtension; its ValueErrors propagate.

    The split-square planes grow in lockstep: the four axes of every plane
    take one line step together, then each cell (i, j), in build_plane's
    order, is filled in all four quadrants of every plane at once.  A color
    with a step of no or several points is rebuilt by build_plane, which
    names the first failing step."""
    out: dict = {}
    lanes = []
    for s, base in bases.items():
        try:
            _check_base(scheme, pp, s, base)
        except InvalidBase as err:
            out[s] = err
            continue
        if s in pp.s3 and radius >= 1:
            lanes.append(s)
        else:  # the cross, or build_plane's ValueError
            out[s] = build_plane(scheme, pp, s, *base, radius=radius)
    if lanes:
        out.update(_lockstep_planes(scheme, pp, {s: tuple(bases[s]) for s in lanes}, radius))
    return {s: out[s] for s in bases}


def _lockstep_planes(scheme: Scheme, pp: PhiPsi, bases: dict, radius: int) -> dict:
    """build_planes for split-square colors whose bases passed _check_base."""
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
    built = np.ones(len(colors), dtype=bool)

    def step(x, y, constraints):
        """Fill cell (x, y) of every lane: the point meeting each
        (cell x, cell y, color) constraint, unique or not."""
        (fx, fy, col), *rest = constraints
        first = grids[:, fx, fy].ravel()
        lane, point = np.nonzero(scheme.color[first] == col[:, None])
        for cx, cy, cols in rest:
            keep = scheme.color[grids[:, cx, cy].ravel()[lane], point] == cols[lane]
            lane, point = lane[keep], point[keep]
        found = first.copy()  # an in-range point for a lane with none
        found[lane] = point
        grids[:, x, y] = found.reshape(-1, 4)
        unique = np.bincount(lane, minlength=len(first)) == 1
        built[:] &= unique.reshape(-1, 4).all(axis=1)

    grids[:, o, o] = start[:, 0]
    grids[:, o + di, o + dj] = start[:, 1:]
    for t in range(2, radius + 1):
        step(o + t * di, o + t * dj, [(o + (t - 1) * di, o + (t - 1) * dj, s),
                                      (o + (t - 2) * di, o + (t - 2) * dj, psi)])
    for i in range(1, radius + 1):
        for j in range(1, radius + 1):
            x, y = o + sx * i, o + sy * j
            step(x, y, [(x - sx, y, s), (x, y - sy, s), (x - sx, y - sy, phi)])
    grids.setflags(write=False)

    out = {}
    for c, grid, ok in zip(colors, grids, built):
        if ok:
            out[c] = Plane(c, bases[c], grid)
            continue
        try:
            out[c] = build_plane(scheme, pp, c, *bases[c], radius=radius)
        except (NoExtension, AmbiguousExtension) as err:
            out[c] = err
    return out


def check_rotation_invariance(scheme: Scheme, plane: Plane) -> bool:
    """color(alpha, grid(cell)) is constant on every quarter-turn orbit: the
    colors from alpha, as an array over the cells, equal their quarter turn."""
    colors = plane.image(scheme.color[plane.alpha])
    return bool(np.array_equal(colors, np.rot90(colors)))


def check_sim(scheme: Scheme, alpha: int, plane_s: Plane, plane_t: Plane) -> bool:
    """Cross-plane colors are preserved by a simultaneous quarter turn.

    Certifies color(P_s(c1), P_t(c2)) = color(P_s(rot c1), P_t(rot c2))
    for all window cells: the (cells x cells) color block of the two planes
    equals the block of both planes turned.
    """
    centers = [int(p.grid[len(p.grid) // 2, len(p.grid) // 2]) for p in (plane_s, plane_t)]
    if centers != [alpha, alpha]:
        raise BaseMismatch("planes sit at %d and %d, expected %d" % (*centers, alpha))
    a, b = plane_s.grid, plane_t.grid
    cells_a, cells_b = a >= 0, b >= 0
    before = scheme.color[np.ix_(a[cells_a], b[cells_b])]
    after = scheme.color[np.ix_(np.rot90(a)[cells_a], np.rot90(b)[cells_b])]
    return bool(np.array_equal(before, after))


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
