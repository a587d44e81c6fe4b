"""Coordinate planes grown from one point and four of its s-neighbors.

A base is (alpha, beta, gamma, delta, epsilon): four distinct points of
the s-row of alpha with color(beta, delta) = color(gamma, epsilon) =
psi(s).  For a doubled-square color the plane is just the five-point
cross.  Otherwise axes extend by a two-step recurrence (color s from the
last point, psi(s) from the one before) and each off-axis cell is the
unique point seeing s from both inward neighbors and phi(s) across the
inward diagonal.  Both axes use the same recurrence; the vertical axis
is the horizontal rule transported by a quarter turn.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .scheme_core import Scheme, SchemeForgeError
from .products import PhiPsi

DEFAULT_RADIUS = 3

Cell = tuple[int, int]

CROSS_WINDOW: tuple[Cell, ...] = ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1))


class NoExtension(SchemeForgeError):
    """A line or cell constraint has no solution."""


class AmbiguousExtension(SchemeForgeError):
    """A line or cell constraint has two or more solutions."""


class InvalidBase(SchemeForgeError):
    """The five base points do not satisfy the plane premise."""


class BaseMismatch(SchemeForgeError):
    """Two planes were compared around different origins."""


def rotate(cell: Cell) -> Cell:
    """Quarter turn of the coordinate lattice: (i, j) -> (-j, i)."""
    i, j = cell
    return (-j, i)


def rotation_orbit(cell: Cell) -> tuple[Cell, ...]:
    orbit = [cell]
    current = cell
    for _ in range(3):
        current = rotate(current)
        if current == cell:
            break
        orbit.append(current)
    return tuple(orbit)


@dataclass(frozen=True, eq=False)
class Plane:
    s: int
    base: tuple[int, int, int, int, int]
    grid: dict[Cell, int]
    window: tuple[Cell, ...]

    @property
    def alpha(self) -> int:
        return self.base[0]


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
    grid: dict[Cell, int] = {(0, 0): alpha}

    if s in pp.s2:
        for cell, point in zip(CROSS_WINDOW[1:], (beta, gamma, delta, epsilon)):
            grid[cell] = point
        return Plane(s, base, grid, CROSS_WINDOW)

    if radius < 1:
        raise ValueError("radius must be at least 1")
    for axis_dir, second in (((1, 0), beta), ((0, 1), gamma), ((-1, 0), delta), ((0, -1), epsilon)):
        line = s_line(scheme, pp, s, alpha, second, radius + 1)
        for step, point in enumerate(line):
            grid[(axis_dir[0] * step, axis_dir[1] * step)] = point

    phi_s = pp.phi[s]
    for i in range(1, radius + 1):
        for j in range(1, radius + 1):
            for sx in (1, -1):
                for sy in (1, -1):
                    x, y = sx * i, sy * j
                    grid[(x, y)] = _unique_point(
                        scheme,
                        (
                            (grid[(x - sx, y)], s),
                            (grid[(x, y - sy)], s),
                            (grid[(x - sx, y - sy)], phi_s),
                        ),
                        "cell (%d,%d)" % (x, y),
                    )
    window = tuple(
        (i, j) for i in range(-radius, radius + 1) for j in range(-radius, radius + 1)
    )
    return Plane(s, base, grid, window)


def check_rotation_invariance(scheme: Scheme, plane: Plane) -> bool:
    """color(alpha, grid(cell)) is constant on every quarter-turn orbit."""
    alpha = plane.alpha
    for cell in plane.window:
        ref = scheme.color[alpha, plane.grid[cell]]
        for other in rotation_orbit(cell):
            if other in plane.grid and scheme.color[alpha, plane.grid[other]] != ref:
                return False
    return True


def check_sim(scheme: Scheme, alpha: int, plane_s: Plane, plane_t: Plane) -> bool:
    """Cross-plane colors are preserved by a simultaneous quarter turn.

    Certifies color(P_s(c1), P_t(c2)) = color(P_s(rot c1), P_t(rot c2))
    for all window cells whose rotations stay in the windows.
    """
    if plane_s.grid[(0, 0)] != alpha or plane_t.grid[(0, 0)] != alpha:
        raise BaseMismatch(
            "planes sit at %d and %d, expected %d"
            % (plane_s.grid[(0, 0)], plane_t.grid[(0, 0)], alpha)
        )
    for c1 in plane_s.window:
        r1 = rotate(c1)
        if r1 not in plane_s.grid:
            continue
        for c2 in plane_t.window:
            r2 = rotate(c2)
            if r2 not in plane_t.grid:
                continue
            if (
                scheme.color[plane_s.grid[c1], plane_t.grid[c2]]
                != scheme.color[plane_s.grid[r1], plane_t.grid[r2]]
            ):
                return False
    return True


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
