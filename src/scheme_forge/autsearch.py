"""Depth-first automorphism search on a bare color matrix.

groups.automorphism_group builds its stabiliser chain from these pieces,
and scheme validation uses them to find automorphisms before the scheme
exists; this module imports nothing else from the package.  The matrix
must hold color 0 exactly on its diagonal.

A resolving base is a list of points whose color rows give every point a
distinct code.  Since color(g(b), g(x)) = color(b, x), the images of the
base force every other image, and each forced map is checked on all
n x n pairs before it counts as an automorphism.  Levels are filled from
the deepest up: at level i, each image y of base[i] that the colors allow
and that the generators found so far do not already reach gets one
depth-first search for a single automorphism fixing base[:i] and sending
base[i] to y.  A search node carries the cells of the points: for each
point, the class of base codes that its colors from the node's images
match.  A child finds its own cells from its parent's by one table lookup,
so a stack pop costs O(n) however deep the base, and at a leaf the cells
name each point's preimage.

The chain search runs without a limit.  Validation caps its search at n
stack pops in all, shared by every depth-first search through one
iterator, and keeps the automorphisms found when OutOfNodes ends it: each
was checked on all pairs, so the cap loses generators, never exactness.
"""

from __future__ import annotations

import numpy as np


def _resolving_base(color: np.ndarray, r: int, prefix=()) -> list[int]:
    """Points whose color rows give every point a distinct code: prefix, then
    points chosen greedily, each the least that splits the codes into the
    most classes.  A point always splits off itself, as color 0 is the
    diagonal, so this ends.
    """
    n = len(color)
    # codes lie below n * r; at least 16 bits, for numpy's vectorised sort
    dtype = np.promote_types(np.min_scalar_type(n * r - 1), np.uint16)
    color = color.astype(dtype)
    base = list(prefix)
    cells = np.zeros(n, dtype=dtype)
    for p in base:
        cells = np.unique(cells * r + color[p], return_inverse=True)[1].astype(dtype)
    while not base or cells.max() + 1 < n:
        trial = cells[None, :] * r + color  # row p: the codes if p joins
        ranked = np.sort(trial, axis=1)
        classes = (np.diff(ranked, axis=1) != 0).sum(axis=1)
        p = int(np.argmax(classes))
        base.append(p)
        cells = np.unique(trial[p], return_inverse=True)[1].astype(dtype)
    return base


def _code_cells(color: np.ndarray, base) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The cells of the points by their colors from each prefix of base, and
    the steps between them.

    cells[k] numbers the points by their colors from base[:k]; the last
    numbers each point by itself, as the base resolves.  steps[k] carries a
    point's cell in cells[k] and its color from base[k] to its cell in
    cells[k + 1]: -1 where no point has that pair, and a last row of -1
    that keeps -1 at -1.
    """
    n, r = len(color), int(color.max()) + 1
    cells = [np.zeros(n, dtype=np.intp)]
    steps = []
    for k, b in enumerate(base):
        if k + 1 < len(base):
            below = np.unique(cells[k] * r + color[b], return_inverse=True)[1].reshape(n)
        else:
            below = np.arange(n)
        step = np.full((int(cells[k].max()) + 2, r), -1, dtype=np.intp)
        step[cells[k], color[b]] = below
        cells.append(below)
        steps.append(step)
    return cells, steps


def _descend(step: np.ndarray, parent: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Each point's cell one level down: from its cell under the parent's
    images and its colors row from the new image, by one lookup in step."""
    return step[parent, row]


def _forced_map(color: np.ndarray, labels: np.ndarray) -> list[int] | None:
    """The map that images of the whole base force, if it is an automorphism.

    labels[y] is the point whose colors from the base equal y's colors from
    the images, or -1.  That point goes to y, when this pairs all points;
    the map is checked on all n x n pairs.
    """
    if labels.min() < 0:
        return None
    img = np.full(len(color), -1, dtype=np.intp)
    img[labels] = np.arange(len(color))
    if img.min() >= 0 and np.array_equal(color[np.ix_(img, img)], color):
        return img.tolist()
    return None


class OutOfNodes(Exception):
    """A capped search used up its stack pops."""


def _first_automorphism(color, base, cells, steps, level: int, y: int,
                        nodes=None) -> list[int] | None:
    """The first automorphism, depth first, fixing base[:level] and sending
    base[level] to y.

    A stack node is an image of base[k], pushed with its parent's cells:
    for each point, the cell in cells[k] of the base codes that its colors
    from the parent's images match, or -1.  A pop finds its own cells by
    one O(n) lookup in steps[k]; the images of base[k + 1] are then the
    points in the cell of base[k + 1].  Each stack pop takes one item of
    the iterator nodes, which the calls of one search share: OutOfNodes
    when it runs dry.  Without nodes there is no limit.
    """
    stack = [(level, y, cells[level])]
    while stack:
        if nodes is not None and next(nodes, None) is None:
            raise OutOfNodes
        k, image, parent = stack.pop()
        labels = _descend(steps[k], parent, color[image])
        if k + 1 == len(base):
            img = _forced_map(color, labels)
            if img is not None:
                return img
            continue
        images = np.flatnonzero(labels == cells[k + 1][base[k + 1]]).tolist()
        stack.extend((k + 1, z, labels) for z in reversed(images))
    return None


def _orbit(point: int, gens) -> dict[int, None]:
    """The orbit of point under gens, in the order it is reached."""
    orbit = {point: None}
    reached = [point]
    for x in reached:  # grows while it is read
        for g in gens:
            y = g[x]
            if y not in orbit:
                orbit[y] = None
                reached.append(y)
    return orbit


def _orbits(gens, n: int) -> tuple[tuple[int, ...], ...]:
    """The orbits of gens on 0..n-1, each sorted, ordered by least point."""
    seen: set[int] = set()
    out = []
    for x in range(n):
        if x not in seen:
            orbit = _orbit(x, gens)
            seen.update(orbit)
            out.append(tuple(sorted(orbit)))
    return tuple(out)


def _levels(color: np.ndarray, base, gens: list, nodes=None):
    """Fill the levels of base from the deepest up (see the module docstring),
    appending each automorphism found to gens.

    After level i, yields (i, orbit): the orbit of base[i] under the
    automorphisms found so far, which fix base[:i].  nodes limits the
    search as in _first_automorphism.
    """
    cells, steps = _code_cells(color, base)
    for i in reversed(range(len(base))):
        orbit = _orbit(base[i], gens)
        # the images of base[i] that the colors from base[:i] allow
        for y in np.flatnonzero(cells[i] == cells[i][base[i]]).tolist():
            if y in orbit:
                continue
            g = _first_automorphism(color, base, cells, steps, i, y, nodes)
            if g is not None:
                gens.append(g)
                orbit = _orbit(base[i], gens)
        yield i, orbit
