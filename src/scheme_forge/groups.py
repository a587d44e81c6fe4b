"""Permutation groups: scheme constructors, automorphisms, Frobenius witnesses.

Permutations are tuples of images on 0..n-1.  compose(p, q) applies p
first, then q.  Groups carry generators; element lists are enumerated by
breadth-first closure on demand and cached.

Automorphism groups come from a base-driven search (Sims 1970; McKay and
Piperno 2014): once the images of a resolving base are chosen, every other
point's image is forced, so only base images are enumerated, and each
forced map is checked on all n x n pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scheme_core import (
    FormatError,
    Scheme,
    SchemeForgeError,
    canonical_relabel,
    validate,
    _scan_dual,
)

DEFAULT_BOUND = 10**6

Perm = tuple[int, ...]


class BoundExceeded(SchemeForgeError):
    """Enumeration or search grew past the configured bound."""


class NotTransitive(SchemeForgeError):
    """Orbital schemes need a transitive group."""


class BadPrime(SchemeForgeError):
    """The cyclotomic constructors need a prime congruent to 1 mod 4."""


class DegreeTooLarge(SchemeForgeError):
    """p**d points exceed the configured degree limit."""


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(map(q.__getitem__, p))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_order(p: Perm) -> int:
    n = len(p)
    seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        order = math.lcm(order, length)
    return order


def fixed_points(p: Perm) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(p) if i == v)


def cycles_of(p: Perm, skip=()) -> set[frozenset[int]]:
    """Orbits of <p> on the points outside skip."""
    skipset = set(skip)
    seen = set(skipset)
    out = set()
    for start in range(len(p)):
        if start in seen:
            continue
        cyc = []
        x = start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = p[x]
        out.add(frozenset(cyc))
    return out


@dataclass(eq=False)
class PermGroup:
    degree: int
    generators: tuple[Perm, ...]
    _elements: tuple[Perm, ...] | None = field(default=None, repr=False)


def _closure(gens, n: int, limit: int | None):
    """Breadth-first closure of the generator set; None when limit is passed."""
    ident = identity_perm(n)
    elems = {ident}
    frontier = [ident]
    gen_list = [g for g in dict.fromkeys(gens) if g != ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gen_list:
                b = compose(a, g)
                if b not in elems:
                    elems.add(b)
                    if limit is not None and len(elems) > limit:
                        return None
                    fresh.append(b)
        frontier = fresh
    return elems


def enumerate_elements(group: PermGroup, bound: int = DEFAULT_BOUND) -> tuple[Perm, ...]:
    """All elements, sorted; BoundExceeded if the group is larger than bound."""
    if group._elements is not None:
        if len(group._elements) > bound:
            raise BoundExceeded("group has %d elements" % len(group._elements))
        return group._elements
    for g in group.generators:
        if sorted(g) != list(range(group.degree)):
            raise ValueError("generator %s is not a permutation" % (g,))
    elems = _closure(group.generators, group.degree, bound)
    if elems is None:
        raise BoundExceeded("closure exceeded bound %d" % bound)
    group._elements = tuple(sorted(elems))
    return group._elements


def group_order(group: PermGroup, bound: int = DEFAULT_BOUND) -> int:
    return len(enumerate_elements(group, bound))


def orbits(group: PermGroup) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group on its points, each sorted, ordered by least point."""
    seen = [False] * group.degree
    out = []
    for start in range(group.degree):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:  # grows while it is read
            for g in group.generators:
                if not seen[g[x]]:
                    seen[g[x]] = True
                    orbit.append(g[x])
        out.append(tuple(sorted(orbit)))
    return tuple(out)


def is_transitive(group: PermGroup) -> bool:
    return len(orbits(group)) == 1


def orbital_scheme(group: PermGroup) -> Scheme:
    """Scheme whose colors are the orbits of the group on ordered pairs.

    Colors are numbered by the row-major minimal pair they contain, so
    the diagonal orbit of a transitive group is always color 0.
    """
    if not is_transitive(group):
        raise NotTransitive("group is not transitive on its points")
    n = group.degree
    color = np.full((n, n), -1, dtype=np.int64)
    next_color = 0
    for x in range(n):
        for y in range(n):
            if color[x, y] >= 0:
                continue
            stack = [(x, y)]
            color[x, y] = next_color
            while stack:
                a, b = stack.pop()
                for g in group.generators:
                    pair = (g[a], g[b])
                    if color[pair] < 0:
                        color[pair] = next_color
                        stack.append(pair)
            next_color += 1
    dual = _scan_dual(color, next_color)
    return validate(n, next_color, color, dual)


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def _least_order_four_unit(p: int) -> int:
    for g in range(2, p):
        if pow(g, 2, p) == p - 1:
            return g
    raise BadPrime("no unit of order 4 mod %d" % p)


def cyclotomic_frobenius(p: int) -> PermGroup:
    """Translations of Z_p extended by its least multiplier of order 4."""
    if not _is_prime(p) or p % 4 != 1:
        raise BadPrime("need a prime congruent to 1 mod 4, got %d" % p)
    g = _least_order_four_unit(p)
    translation = tuple((x + 1) % p for x in range(p))
    scaling = tuple((g * x) % p for x in range(p))
    return PermGroup(p, (translation, scaling))


def vector_frobenius(p: int, d: int, max_degree: int = 2048) -> PermGroup:
    """Translations of (Z_p)^d extended by the scalar of order 4.

    Points are coordinate vectors packed little-endian: index(v) = sum
    of v[i] * p**i.
    """
    if not _is_prime(p) or p % 4 != 1:
        raise BadPrime("need a prime congruent to 1 mod 4, got %d" % p)
    if d < 1:
        raise ValueError("dimension must be positive")
    n = p**d
    if n > max_degree:
        raise DegreeTooLarge("%d**%d = %d points exceeds limit %d" % (p, d, n, max_degree))
    g = _least_order_four_unit(p)
    coords = np.array([[(idx // p**i) % p for i in range(d)] for idx in range(n)])
    weights = np.array([p**i for i in range(d)])
    gens = []
    for axis in range(d):
        shifted = coords.copy()
        shifted[:, axis] = (shifted[:, axis] + 1) % p
        gens.append(tuple(int(v) for v in shifted @ weights))
    gens.append(tuple(int(v) for v in ((coords * g) % p) @ weights))
    return PermGroup(n, tuple(gens))


def frobenius_check(group: PermGroup, bound: int = DEFAULT_BOUND) -> bool:
    """Transitive, some non-identity element fixes a point, none fixes two."""
    elems = enumerate_elements(group, bound)
    ident = identity_perm(group.degree)
    if len({g[0] for g in elems}) != group.degree:
        return False
    fixed = [len(fixed_points(g)) for g in elems if g != ident]
    return max(fixed, default=0) <= 1 and 1 in fixed


def automorphism_group(scheme: Scheme, bound: int = DEFAULT_BOUND) -> PermGroup:
    """All color-preserving permutations, by a base-driven search.

    Since color(g(b), g(x)) = color(b, x), x goes to the point whose colors
    from the base images equal its own colors from the base.
    """
    color = scheme.color
    base = _resolving_base(color, scheme.r)
    key_order = np.lexsort(color[base, :][::-1])
    sorted_keys = color[base, :][:, key_order]
    elements: list[Perm] = []

    def extend(images: list[int]) -> None:
        i = len(images)
        if i == len(base):
            found = color[images, :]
            order = np.lexsort(found[::-1])
            if not np.array_equal(found[:, order], sorted_keys):
                return
            img = np.empty(scheme.n, dtype=np.int64)
            img[key_order] = order
            if not np.array_equal(color[np.ix_(img, img)], color):
                return
            if len(elements) >= bound:
                raise BoundExceeded("more than %d automorphisms" % bound)
            elements.append(tuple(img.tolist()))
            return
        mask = np.ones(scheme.n, dtype=bool)
        for b, c in zip(base, images):
            mask &= color[c, :] == color[b, base[i]]
        for y in np.nonzero(mask)[0]:
            extend(images + [int(y)])

    extend([])
    elements.sort()
    gens = _greedy_generators(elements, scheme.n)
    return PermGroup(scheme.n, tuple(gens), _elements=tuple(elements))


def _resolving_base(color: np.ndarray, r: int) -> list[int]:
    """Points whose color rows give every point a distinct code, chosen greedily:
    each step adds the least point that splits the codes into the most classes.
    A point always splits off itself, as color 0 is the diagonal, so this ends.
    """
    base: list[int] = []
    cells = np.zeros(len(color), dtype=np.int64)
    while not base or cells.max() + 1 < len(color):
        trial = cells[None, :] * r + color  # row p: the codes if p joins
        ranked = np.sort(trial, axis=1)
        classes = (np.diff(ranked, axis=1) != 0).sum(axis=1)
        p = int(np.argmax(classes))
        base.append(p)
        cells = np.unique(trial[p], return_inverse=True)[1]
    return base


def _greedy_generators(elements, n: int) -> list[Perm]:
    ident = identity_perm(n)
    known = {ident}
    gens: list[Perm] = []
    for g in elements:
        if g in known:
            continue
        gens.append(g)
        known = _closure(gens, n, None)
    if not gens:
        gens.append(ident)
    return gens


def sigma_alpha(scheme: Scheme, alpha: int, group: PermGroup | None = None,
                bound: int = DEFAULT_BOUND) -> Perm | None:
    """Order-4 automorphism fixing alpha whose orbits off alpha are its rows.

    Scans the enumerated automorphisms in sorted order, so the result is
    deterministic.  None when no such automorphism exists.
    """
    if group is None:
        group = automorphism_group(scheme, bound)
    rows = {
        frozenset(int(y) for y in scheme.row(alpha, s)) for s in scheme.nondiagonal()
    }
    for g in enumerate_elements(group, bound):
        if g[alpha] != alpha or perm_order(g) != 4:
            continue
        if cycles_of(g, skip=(alpha,)) == rows:
            return g
    return None


def two_point_rigidity(scheme: Scheme, group: PermGroup | None = None,
                       bound: int = DEFAULT_BOUND) -> bool:
    """Only the identity automorphism fixes two or more points."""
    if group is None:
        group = automorphism_group(scheme, bound)
    ident = identity_perm(scheme.n)
    for g in enumerate_elements(group, bound):
        if g != ident and len(fixed_points(g)) >= 2:
            return False
    return True


@dataclass(frozen=True)
class FrobeniusCertificate:
    group: PermGroup
    kernel_size: int
    stabilizer_order: int
    orbital_match: bool


def _partition_matches(scheme: Scheme, other_color: np.ndarray) -> bool:
    return bool(
        np.array_equal(canonical_relabel(scheme.color), canonical_relabel(other_color))
    )


def _certificate_from(scheme: Scheme, elems) -> FrobeniusCertificate | None:
    elems = tuple(sorted(elems))
    n = scheme.n
    witness = PermGroup(n, tuple(_greedy_generators(elems, n)), _elements=elems)
    if not frobenius_check(witness):
        return None
    orbital = orbital_scheme(witness)
    if not _partition_matches(scheme, orbital.color):
        return None
    ident = identity_perm(n)
    kernel = 1 + sum(1 for g in elems if g != ident and not fixed_points(g))
    if len(elems) % kernel != 0:
        return None
    return FrobeniusCertificate(witness, kernel, len(elems) // kernel, True)


def frobenius_witness(scheme: Scheme, group: PermGroup | None = None,
                      bound: int = DEFAULT_BOUND) -> FrobeniusCertificate | None:
    """Find a Frobenius subgroup of Aut whose orbitals are exactly the colors.

    First the kernel route: the fixed-point-free automorphisms plus the
    identity, when they close into a regular subgroup, are extended by a
    point-stabilizing rotation.  If that fails (the automorphism group
    can be much larger than any witness at small rank), pairs of one
    rotation and one fixed-point-free element are closed and tested.
    """
    n = scheme.n
    if group is None:
        group = automorphism_group(scheme, bound)
    elems = enumerate_elements(group, bound)
    ident = identity_perm(n)
    fpf = [g for g in elems if g != ident and not fixed_points(g)]
    rows = {frozenset(int(y) for y in scheme.row(0, s)) for s in scheme.nondiagonal()}
    rotations = [
        g
        for g in elems
        if g[0] == 0
        and perm_order(g) == 4
        and cycles_of(g, skip=(0,)) == rows
    ]

    candidates = []
    kernel = set(fpf) | {ident}
    if len(kernel) == n:
        # the kernel is a subgroup exactly when its greedy generators close into it
        kernel_gens = _greedy_generators(sorted(kernel), n)
        if _closure(kernel_gens, n, n) == kernel:
            candidates = [kernel_gens + [sigma] for sigma in rotations]
    candidates += [[sigma, tau] for sigma in rotations for tau in fpf]
    for gens in candidates:
        closed = _closure(gens, n, 4 * n)
        if closed is not None and len(closed) == 4 * n:
            cert = _certificate_from(scheme, closed)
            if cert is not None:
                return cert
    return None


# --- permutation group text format (.perm) ---
#
# line 1: "n g"; then g lines of n space-separated images (0-based).


def write_perm(group: PermGroup) -> str:
    lines = ["%d %d" % (group.degree, len(group.generators))]
    for g in group.generators:
        lines.append(" ".join(str(v) for v in g))
    return "\n".join(lines) + "\n"


def read_perm(text: str) -> PermGroup:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty permutation file")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("header must be 'n g'")
    try:
        n, g = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError("header must be two integers") from None
    if n < 1 or g < 0:
        raise FormatError("bad header values")
    if len(lines) != g + 1:
        raise FormatError("expected %d generator rows, found %d" % (g, len(lines) - 1))
    gens = []
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != n:
            raise FormatError("generator %d has %d images, expected %d" % (i, len(parts), n))
        try:
            perm = tuple(int(p) for p in parts)
        except ValueError:
            raise FormatError("generator %d has a non-integer image" % i) from None
        if sorted(perm) != list(range(n)):
            raise FormatError("generator %d is not a permutation of 0..%d" % (i, n - 1))
        gens.append(perm)
    return PermGroup(n, tuple(gens))


def load_perm(path) -> PermGroup:
    with open(path, "r", encoding="ascii") as fh:
        return read_perm(fh.read())


def save_perm(group: PermGroup, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(write_perm(group))
