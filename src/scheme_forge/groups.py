"""Permutation groups: scheme constructors, automorphisms, Frobenius witnesses.

Permutations are tuples of images on 0..n-1.  compose(p, q) applies p
first, then q.  Groups carry generators, and automorphism groups also a
stabiliser chain.  Element lists are enumerated on demand, from the chain's
transversals or by Dimino's cosets; no command lists Aut to print it.

Automorphism groups come from a stabiliser-chain search over a resolving
base (Sims 1970; McKay and Piperno 2014), whose depth-first search lives in
autsearch, shared with scheme validation: once the images of the base are
chosen, every other point's image is forced.  Levels are filled from the
deepest up.  At level i, each image y of base[i] that the colors allow and
that the generators found so far do not already reach gets one depth-first
search for a single automorphism fixing base[:i] and sending base[i] to y,
checked on all n x n pairs; it joins the strong generators.  Every other
automorphism is a product of these checked ones, so it preserves colors by
closure, and a skipped y lies in an orbit the known subgroup reaches, so
the chain is exact: |Aut| is the product of the level orbit lengths, and
the point stabiliser of base[0] is the product of the lower levels.

Frobenius witnesses are certified by the paper's argument, not re-derived:
in a 4-equivalenced scheme, a transitive group of 4n automorphisms holding
a rotation at 0 is one (see frobenius_witness), so when |Aut| = 4n, Aut
itself is the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autsearch import _levels, _orbit, _orbits, _resolving_base
from .scheme_core import (
    FormatError,
    Scheme,
    SchemeForgeError,
    canonical_relabel,
    from_matrix,
    is_k_equivalenced,
    read_ascii,
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
    """p**d points exceed MAX_DEGREE."""


MAX_DEGREE = 2048


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


def fixed_points(p: Perm) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(p) if i == v)


@dataclass(frozen=True, eq=False)
class Chain:
    """Stabiliser chain of the automorphism group of scheme over base.

    transversals[i] has one row per point y of the orbit of base[i] under
    the automorphisms fixing base[:i]: one of them sending base[i] to y,
    the identity first.
    """

    scheme: Scheme
    base: tuple[int, ...]
    transversals: tuple[np.ndarray, ...]


@dataclass(eq=False)
class PermGroup:
    """Generators, and for an automorphism group its stabiliser chain."""

    degree: int
    generators: tuple[Perm, ...]
    chain: Chain | None = field(default=None, repr=False)


def _expand(transversals, n: int) -> np.ndarray:
    """Every product of one row per level, the deepest applied first, as rows:
    the elements fixing the base points above the given levels."""
    elems = np.arange(n)[None, :]
    for rows in reversed(transversals):
        # rows[:, h] composes h, which fixes this level's base point, with
        # each row, which moves it
        elems = rows[:, elems].reshape(-1, n)
    return elems


def _sorted_perms(rows: np.ndarray) -> tuple[Perm, ...]:
    return tuple(sorted(map(tuple, rows.tolist())))


def enumerate_elements(group: PermGroup, bound: int = DEFAULT_BOUND) -> tuple[Perm, ...]:
    """All elements, sorted.  A chain's search has already met its bound;
    other groups are closed from their generators, BoundExceeded past bound."""
    if group.chain is not None:
        return _sorted_perms(_expand(group.chain.transversals, group.degree))
    for g in group.generators:
        if sorted(g) != list(range(group.degree)):
            raise ValueError("generator %s is not a permutation" % (g,))
    closed = _dimino(group.generators, group.degree, bound)
    if closed is None:
        raise BoundExceeded("closure exceeded bound %d" % bound)
    return tuple(sorted(closed[1]))


def group_order(group: PermGroup) -> int:
    """The product of the transversal sizes for a chain, else the listed count."""
    if group.chain is not None:
        return math.prod(len(rows) for rows in group.chain.transversals)
    return len(enumerate_elements(group))


def stabilizer(group: PermGroup, points) -> tuple[Perm, ...]:
    """The elements fixing every one of points, sorted.

    An automorphism group reads them off the levels below points of a
    chain whose base starts with points: its own when it does, else one
    from a new search with points as the first base points.  Other groups
    filter their elements.
    """
    points = tuple(points)
    chain = group.chain
    if chain is None:
        return tuple(g for g in enumerate_elements(group)
                     if all(g[p] == p for p in points))
    if chain.base[:len(points)] != points:
        chain = _search(chain.scheme, points, group_order(group))[0]
    return _sorted_perms(_expand(chain.transversals[len(points):], group.degree))


def orbits(group: PermGroup) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group on its points, each sorted, ordered by least point."""
    return _orbits(group.generators, group.degree)


def is_transitive(group: PermGroup) -> bool:
    return len(orbits(group)) == 1


def orbital_scheme(group: PermGroup) -> Scheme:
    """Scheme whose colors are the orbits of the group G on ordered pairs.

    G must be transitive.  With t_x an element of the transversal from 0
    sending 0 to x, t_x^-1 carries (x, y) to (0, t_x^-1(y)), and (0, y),
    (0, z) share an orbit exactly when y, z share an orbit of the point
    stabiliser G_0.  By Schreier's lemma G_0 is generated by the elements
    t_{g(x)}^-1 g t_x over the generators g and points x.  Each point is
    labelled by the least point of its G_0-orbit, and color(x, y) is the
    label of t_x^-1(y).

    Colors are numbered by the row-major minimal pair they contain, so
    the diagonal orbit is always color 0.  Row 0 is the labelling itself
    and meets every orbit, so numbering its labels by first occurrence
    numbers the whole matrix.
    """
    n = group.degree
    orbit = list(_orbit(0, group.generators))
    if len(orbit) != n:
        raise NotTransitive("group is not transitive on its points")
    rows = _transversal(0, orbit, group.generators, n)
    t = rows[np.argsort(rows[:, 0])]  # t[x] sends 0 to x
    t_inv = np.empty_like(t)
    np.put_along_axis(t_inv, t, np.arange(n)[None, :], axis=1)
    # Each pass lowers label[y] to label[s(y)] for every Schreier generator
    # s, one generator g at a time, then follows labels once.  A label is
    # always a point of the same G_0-orbit and never above its own point; a
    # pass that changes nothing leaves labels constant along every cycle of
    # every s, hence on G_0-orbits, so each is its orbit's least point.
    label = np.arange(n)
    while True:
        before = label
        for g in group.generators:
            a = np.asarray(g)
            schreier = t_inv[a[:, None], a[t]]  # row x: t_{g(x)}^-1 g t_x
            label = np.minimum(label, label[schreier].min(axis=0))
        label = label[label]
        if np.array_equal(label, before):
            break
    return from_matrix(canonical_relabel(label)[t_inv])


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
    return vector_frobenius(p, 1)


def vector_frobenius(p: int, d: int) -> PermGroup:
    """Translations of (Z_p)^d extended by the scalar of order 4.

    Points are coordinate vectors packed little-endian: index(v) = sum
    of v[i] * p**i.  DegreeTooLarge, before anything is allocated, when
    p**d exceeds MAX_DEGREE.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    # p >= 2 passes MAX_DEGREE by the exponent MAX_DEGREE.bit_length(), so the capped
    # power decides without computing a huge p**d, and before the trial division
    if p > 1 and p ** min(d, MAX_DEGREE.bit_length()) > MAX_DEGREE:
        raise DegreeTooLarge("%d**%d points exceed limit %d" % (p, d, MAX_DEGREE))
    if not _is_prime(p) or p % 4 != 1:
        raise BadPrime("need a prime congruent to 1 mod 4, got %d" % p)
    n = p**d
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
    return is_frobenius(enumerate_elements(group, bound), group.degree)


def is_frobenius(elems, degree: int) -> bool:
    """frobenius_check on the elements of a group of the given degree, listed."""
    ident = identity_perm(degree)
    if len({g[0] for g in elems}) != degree:
        return False
    fixed = [len(fixed_points(g)) for g in elems if g != ident]
    return max(fixed, default=0) <= 1 and 1 in fixed


def automorphism_group(scheme: Scheme, bound: int = DEFAULT_BOUND) -> PermGroup:
    """All color-preserving permutations, as a stabiliser chain with its
    strong generators (see the module docstring).  BoundExceeded as soon as
    the levels filled so far hold more than bound automorphisms.
    """
    chain, gens = _search(scheme, (), bound)
    return PermGroup(scheme.n, gens, chain=chain)


def _search(scheme: Scheme, prefix, bound) -> tuple[Chain, tuple[Perm, ...]]:
    """The chain of Aut over a resolving base that starts with prefix, and
    its strong generators."""
    base = _resolving_base(scheme.color, scheme.r, prefix)
    gens: list[list[int]] = []
    transversals: list[np.ndarray] = []
    below = 1  # order of the stabiliser of base[:i + 1], then of base[:i]
    for i, orbit in _levels(scheme.color, base, gens):
        below *= len(orbit)
        if below > bound:
            raise BoundExceeded("more than %d automorphisms" % bound)
        transversals.append(_transversal(base[i], orbit, gens, scheme.n))
    chain = Chain(scheme, tuple(base), tuple(reversed(transversals)))
    return chain, tuple(map(tuple, gens))


def _transversal(point: int, orbit, gens, n: int) -> np.ndarray:
    """One row per orbit point y, in orbit order: a product of gens sending
    point to y, the identity first."""
    arrays = [np.asarray(g) for g in gens]
    rows = {point: np.arange(n)}
    for x in orbit:
        for g, a in zip(gens, arrays):
            if g[x] not in rows:
                rows[g[x]] = a[rows[x]]  # apply rows[x], then g
    return np.stack([rows[y] for y in orbit])


def _dimino(gens, n: int, limit: int | None = None) -> tuple[list[Perm], set[Perm]] | None:
    """The generators kept and the elements of the group they generate;
    None once that group has more than limit elements.

    The kept generators are those, in order, that the ones kept before them
    do not generate (the identity alone for the trivial group).  Each kept
    g extends the known subgroup H to <H, g> by Dimino's cosets: the new
    group is the union of the cosets H.w that products of a representative
    and a generator reach, so H is never closed again.  A new coset adds
    |H| elements, so limit is checked before it is built.
    """
    known = {identity_perm(n)}
    rows = np.arange(n)[None, :]  # the elements of H
    arrays: list[np.ndarray] = []
    kept: list[Perm] = []
    for g in gens:
        if g in known:
            continue
        kept.append(g)
        arrays.append(np.asarray(g))
        cosets = [rows]
        reps = [np.arange(n)]
        for w in reps:  # grows while it is read
            for s in arrays:
                x = s[w]  # apply w, then s
                if tuple(x.tolist()) not in known:
                    if limit is not None and len(known) + len(rows) > limit:
                        return None
                    coset = x[rows]  # apply each element of H, then x
                    known.update(map(tuple, coset.tolist()))
                    cosets.append(coset)
                    reps.append(x)
        rows = np.concatenate(cosets)
    return kept or [identity_perm(n)], known


def _rotations(scheme: Scheme, group: PermGroup, alpha: int):
    """Elements of G_alpha, sorted, of order 4 whose orbits off alpha are its rows.

    The rows partition the points off alpha, so the orbits of <g> off alpha
    are the rows when the orbit of one point of each row is that row; the
    order of g is then the lcm of the row sizes.
    """
    rows = [frozenset(int(y) for y in scheme.row(alpha, s)) for s in scheme.nondiagonal()]
    order_four = math.lcm(*map(len, rows)) == 4
    return (g for g in stabilizer(group, (alpha,))
            if order_four and all(_orbit(min(row), [g]).keys() == row for row in rows))


def sigma_alpha(scheme: Scheme, alpha: int, group: PermGroup) -> Perm | None:
    """Order-4 automorphism fixing alpha whose orbits off alpha are its rows.

    Scans the point stabiliser of alpha in group, the scheme's automorphism
    group, in sorted order, so the result is deterministic.  None when no
    such automorphism exists.
    """
    return next(_rotations(scheme, group, alpha), None)


def two_point_rigidity(scheme: Scheme, group: PermGroup) -> bool:
    """Only the identity in group, the scheme's automorphism group, fixes
    two or more points.

    An element fixing two points is conjugate to one in G_alpha, for alpha
    the least point of either one's orbit, so those stabilisers suffice.
    """
    ident = identity_perm(scheme.n)
    return not any(g != ident and len(fixed_points(g)) >= 2
                   for orbit in orbits(group) for g in stabilizer(group, orbit[:1]))


def _certifies(scheme: Scheme, group: PermGroup) -> bool:
    """The lemma's hypotheses on 4n permutations holding a rotation at 0: they
    are transitive and every generator preserves every color."""
    color = scheme.color
    return is_transitive(group) and all(
        np.array_equal(color[np.ix_(g, g)], color) for g in group.generators)


def frobenius_witness(scheme: Scheme, group: PermGroup) -> PermGroup | None:
    """Find a Frobenius subgroup of group, the scheme's automorphism group,
    whose orbitals are exactly the colors, or None.

    Lemma.  In a 4-equivalenced scheme on n points, let H be a transitive
    group of 4n color-preserving permutations holding a rotation sigma at 0
    (see sigma_alpha).  Then H is Frobenius with kernel n and stabilizer 4:
    H_0 has order 4 and contains sigma, so H_0 = <sigma>; the orbits of
    <sigma> off 0 are the rows of 0, so the orbitals of H are the colors;
    the rows have 4 points, so no power of sigma but the identity fixes a
    second point, nor does any conjugate of one; that leaves n - 1
    fixed-point-free elements, so the kernel has order n.  (With a row of
    fewer than 4 points, sigma**2 fixes two points: there is no witness.)

    A group of 4n elements is the only candidate, returned as given, with
    its own generators.  Otherwise the first candidate of 4n elements that
    the lemma certifies is the witness, with the greedy generators of its
    elements: first the kernel (the fixed-point-free elements and the
    identity, if a subgroup) extended by a rotation, which a group moving
    colors may need (AGL(1, 25) on v25); then one rotation closed with one
    fixed-point-free element (z5, F_9).
    """
    n = scheme.n
    if is_k_equivalenced(scheme) != 4:
        return None
    rotations = list(_rotations(scheme, group, 0))
    if not rotations:
        return None
    if group_order(group) == 4 * n:
        return group if _certifies(scheme, group) else None

    elems = enumerate_elements(group)
    ident = identity_perm(n)
    fpf = [g for g in elems if g != ident and not fixed_points(g)]
    candidates = []
    if len(fpf) == n - 1:
        # the kernel's greedy generators close into a group holding it: the
        # kernel itself exactly when that group has no more than n elements
        closed = _dimino([ident] + fpf, n, n)
        if closed is not None:
            candidates = [closed[0] + [sigma] for sigma in rotations]
    candidates += [[sigma, tau] for sigma in rotations for tau in fpf]
    for gens in candidates:
        closed = _dimino(gens, n, 4 * n)
        if closed is not None and len(closed[1]) == 4 * n:
            elements = tuple(sorted(closed[1]))
            witness = PermGroup(n, tuple(_dimino(elements, n)[0]))
            if _certifies(scheme, witness):
                return witness
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
    return read_perm(read_ascii(path))


def save_perm(group: PermGroup, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(write_perm(group))
