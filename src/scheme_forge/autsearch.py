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
base[i] to y.

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


def _candidates(color: np.ndarray, base, images) -> list[int]:
    """The points whose colors from images match those of base[len(images)]
    from base[:len(images)]: the images that base point may take."""
    k = len(images)
    wanted = color[base[:k], base[k]]
    return np.nonzero((color[images, :] == wanted[:, None]).all(axis=0))[0].tolist()


def _forced_map(color: np.ndarray, images, key_order, sorted_keys) -> list[int] | None:
    """The map that images of the whole base force, if it is an automorphism.

    x goes to the point whose colors from the base images equal its own
    colors from the base; the map is checked on all n x n pairs.
    """
    found = color[images, :]
    order = np.lexsort(found[::-1])
    if not np.array_equal(found[:, order], sorted_keys):
        return None
    img = np.empty(len(color), dtype=np.intp)
    img[key_order] = order
    if np.array_equal(color[np.ix_(img, img)], color):
        return img.tolist()
    return None


class OutOfNodes(Exception):
    """A capped search used up its stack pops."""


def _first_automorphism(color, base, images, key_order, sorted_keys,
                        nodes=None) -> list[int] | None:
    """The first automorphism, depth first, sending base[:len(images)] to images.

    Each stack pop takes one item of the iterator nodes, which the calls
    of one search share: OutOfNodes when it runs dry.  Without nodes there
    is no limit.
    """
    stack = [images]
    while stack:
        if nodes is not None and next(nodes, None) is None:
            raise OutOfNodes
        partial = stack.pop()
        if len(partial) < len(base):
            stack.extend(partial + [y] for y in reversed(_candidates(color, base, partial)))
            continue
        img = _forced_map(color, partial, key_order, sorted_keys)
        if img is not None:
            return img
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
    key_order = np.lexsort(color[base, :][::-1])
    sorted_keys = color[base, :][:, key_order]
    for i in reversed(range(len(base))):
        fixed = base[:i]
        orbit = _orbit(base[i], gens)
        for y in _candidates(color, base, fixed):
            if y in orbit:
                continue
            g = _first_automorphism(color, base, fixed + [y], key_order, sorted_keys, nodes)
            if g is not None:
                gens.append(g)
                orbit = _orbit(base[i], gens)
        yield i, orbit
