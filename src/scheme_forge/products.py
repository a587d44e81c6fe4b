"""Complex products of relations and the structure they force at valency 4.

In a scheme where every non-diagonal color has valency 4, the square of
a color decomposes in exactly one of two ways, and the product of two
distinct colors in one of three.  The maps phi and psi record the heavy
and light components of each square and drive everything downstream
(planes, rotation automorphisms, base-number witnesses).

Closures are found by a frontier search.  Starting from {0}, the colors
reached last are multiplied by the generators and their duals until
nothing new appears.  In the scheme algebra A_u A_g = sum_w c(u,g,w) A_w
with non-negative coefficients, so no support cancels, and by
associativity (which holds for every Scheme that validate returns,
since its tensor counts paths in real matrices) the product of two words
in the generators is again a word.  The colors reached are therefore
the supports of all words: they hold 0 and the generators, they are
closed under product, and under dual because the dual of a word is the
reversed word of duals.  Any closed set holding the generators holds
every word, so this is the smallest such set.  Each color enters the
frontier once, so one closure costs O(r^2) and all r of them O(r^3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .scheme_core import Scheme, SchemeForgeError, is_k_equivalenced


class NotFourEquivalenced(SchemeForgeError):
    """An operation needed all non-diagonal valencies to equal 4."""


class DichotomyViolation(SchemeForgeError):
    """A color square is neither 4*1 + 3s nor 4*1 + 2u + v."""

    def __init__(self, s, decomposition):
        super().__init__("square of color %d decomposes as %s" % (s, decomposition))
        self.s = s
        self.decomposition = decomposition


class TrichotomyViolation(SchemeForgeError):
    """A product of distinct colors fits none of the three allowed shapes."""

    def __init__(self, s, t, detail):
        super().__init__("product of colors %d,%d: %s" % (s, t, detail))
        self.s = s
        self.t = t


class ProductClass(enum.Enum):
    FOUR_DISTINCT = "four-distinct"
    TWO_PLUS_DOUBLE = "two-plus-double"
    TWO_TWO = "two-two"


@dataclass(frozen=True)
class PhiPsi:
    """Square decomposition maps, extended by the identity off s3.

    For s in s3 the square is 4*1 + 2*phi(s) + psi(s); for s in s2 it is
    4*1 + 3s and both maps fix s.
    """

    phi: tuple[int, ...]
    psi: tuple[int, ...]
    s2: frozenset[int]
    s3: frozenset[int]


def complex_product(scheme: Scheme, rset, tset) -> frozenset[int]:
    """Support of the product: colors u with c(r,t,u) != 0 for some r,t."""
    rs = sorted(set(int(x) for x in rset))
    ts = sorted(set(int(x) for x in tset))
    for x in rs + ts:
        if not 0 <= x < scheme.r:
            raise ValueError("no such color: %d" % x)
    if not rs or not ts:
        return frozenset()
    block = scheme.tensor.c[np.ix_(rs, ts)]
    support = np.nonzero(block.any(axis=(0, 1)))[0]
    return frozenset(int(u) for u in support)


def _closure_masks(support: np.ndarray, dual: np.ndarray, gen_sets) -> np.ndarray:
    """Closure of each generator set as one row of a (len(gen_sets), r) mask.

    support is the tensor c, or any array with the same non-zero pattern.
    All rows advance together, one frontier level per round, and each
    (row, color) pair is expanded once.
    """
    # step[i, u, w]: w occurs in u times a generator of set i or its dual
    step = np.array(
        [support[:, np.union1d(gens, dual[gens])].any(axis=1) for gens in gen_sets]
    )
    member = np.zeros((len(gen_sets), len(dual)), dtype=bool)
    member[:, 0] = True
    frontier = member.copy()
    while frontier.any():
        rows, colors = np.nonzero(frontier)
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        reached = np.zeros_like(member)
        reached[rows[starts]] = np.logical_or.reduceat(step[rows, colors], starts, axis=0)
        frontier = reached & ~member
        member |= frontier
    return member


def closure(scheme: Scheme, rset) -> frozenset[int]:
    """Smallest color set containing rset that is closed under dual and product.

    Found by the frontier search of the module docstring.
    """
    gens = np.array(sorted(set(int(x) for x in rset)), dtype=np.int64)
    for x in gens.tolist():
        if not 0 <= x < scheme.r:
            raise ValueError("no such color: %d" % x)
    (mask,) = _closure_masks(scheme.tensor.c, scheme.dual, [gens])
    return frozenset(np.flatnonzero(mask).tolist())


def wr(scheme: Scheme, s: int, t: int) -> bool:
    """True when neither color lies in the closure generated by the other."""
    return s not in closure(scheme, {t}) and t not in closure(scheme, {s})


def phi_psi(scheme: Scheme) -> PhiPsi:
    """Classify every color square; NotFourEquivalenced unless k = 4."""
    if is_k_equivalenced(scheme) != 4:
        raise NotFourEquivalenced("phi/psi need common valency 4")
    c = scheme.tensor.c
    phi = list(range(scheme.r))
    psi = list(range(scheme.r))
    s2, s3 = set(), set()
    for s in scheme.nondiagonal():
        coeffs = c[s, s]
        decomposition = {int(u): int(coeffs[u]) for u in np.nonzero(coeffs)[0]}
        if decomposition.get(0) != 4:
            raise DichotomyViolation(s, decomposition)
        rest = {u: m for u, m in decomposition.items() if u != 0}
        if rest == {s: 3}:
            s2.add(s)
        elif sorted(rest.values()) == [1, 2]:
            heavy = next(u for u, m in rest.items() if m == 2)
            light = next(u for u, m in rest.items() if m == 1)
            phi[s] = heavy
            psi[s] = light
            s3.add(s)
        else:
            raise DichotomyViolation(s, decomposition)
    return PhiPsi(tuple(phi), tuple(psi), frozenset(s2), frozenset(s3))


def product_class(scheme: Scheme, pp: PhiPsi, s: int, t: int) -> ProductClass:
    """Shape of the product of two distinct non-diagonal colors.

    The coefficient profile of c(s,t,.) must match the phi criterion:
    four singles iff neither is phi of the other, a doubled factor iff
    exactly one is, 2s + 2t iff each is phi of the other.
    """
    if s == t or s == 0 or t == 0:
        raise ValueError("product_class needs two distinct non-diagonal colors")
    coeffs = scheme.tensor.c[s, t]
    decomposition = {int(u): int(coeffs[u]) for u in np.nonzero(coeffs)[0]}
    profile = sorted(decomposition.values())
    s_is_phi_t = s == pp.phi[t]
    t_is_phi_s = t == pp.phi[s]
    if profile == [1, 1, 1, 1]:
        if s_is_phi_t or t_is_phi_s:
            raise TrichotomyViolation(
                s, t, "four distinct factors but a phi relation holds"
            )
        return ProductClass.FOUR_DISTINCT
    if profile == [1, 1, 2]:
        heavy = next(u for u, m in decomposition.items() if m == 2)
        if heavy == s and t_is_phi_s and not s_is_phi_t:
            return ProductClass.TWO_PLUS_DOUBLE
        if heavy == t and s_is_phi_t and not t_is_phi_s:
            return ProductClass.TWO_PLUS_DOUBLE
        raise TrichotomyViolation(
            s, t, "doubled factor %d disagrees with phi: %s" % (heavy, decomposition)
        )
    if profile == [2, 2]:
        if set(decomposition) == {s, t} and s_is_phi_t and t_is_phi_s:
            return ProductClass.TWO_TWO
        raise TrichotomyViolation(s, t, "2+2 shape disagrees with phi: %s" % decomposition)
    raise TrichotomyViolation(s, t, "unrecognized profile %s" % decomposition)


@dataclass
class StructureReport:
    """Outcome of the full structure sweep: empty violations means pass.

    pp is the phi/psi the sweep built, None when the square dichotomy fails.
    """

    violations: list[str]
    checked: dict[str, int]
    pp: PhiPsi | None

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_structure_lemmas(scheme: Scheme) -> StructureReport:
    """Exhaustively check the valency-4 product structure over all colors.

    Covers: the square dichotomy, the distinct-product trichotomy with
    its phi criteria, bijectivity of phi and psi on s3 with psi = phi o
    phi, existence of a four-element product partner once there are at
    least four non-diagonal colors, and both independence properties of
    pairs whose closures avoid each other.

    Every pair (s, t) is checked at once over the tensor.  One pass gives
    the support of each product c(s,t,.), its size, and its largest and
    total coefficient; phi compared along both axes then decides the
    trichotomy.  The closures of all colors form one membership matrix,
    from the frontier search of the module docstring: by associativity
    the colors reached from 0 by multiplying by s and s* are exactly the
    smallest set holding s that is closed under product and dual.  Masks
    over these arrays flag the pairs that may fail.  A message is built
    only for a flagged pair, in row-major order as a pair-by-pair loop
    would meet it, and every trichotomy message comes from product_class.
    O(r^3) time; the r^3 temporaries are boolean.
    """
    violations: list[str] = []
    checked: dict[str, int] = {}
    if is_k_equivalenced(scheme) != 4:
        raise NotFourEquivalenced("structure sweep needs common valency 4")
    c = scheme.tensor.c
    colors = np.arange(scheme.r)
    # nonzero[s, t, u]: u occurs in the product of s and t
    nonzero = c != 0
    size = nonzero.sum(axis=2)
    distinct = np.ones((scheme.r, scheme.r), dtype=bool)
    distinct[0] = distinct[:, 0] = False
    np.fill_diagonal(distinct, False)

    pp = None
    try:
        pp = phi_psi(scheme)
    except DichotomyViolation as err:
        violations.append("square-dichotomy: %s" % err)
    checked["square-dichotomy"] = scheme.r - 1

    if pp is not None:
        phi = np.array(pp.phi)
        s_is_phi_t = phi[None, :] == colors[:, None]
        t_is_phi_s = phi[:, None] == colors[None, :]
        total = c.sum(axis=2)
        largest = c.max(axis=2)
        doubled_s = c[colors[:, None], colors[None, :], colors[:, None]] == 2
        doubled_t = c[colors[:, None], colors[None, :], colors[None, :]] == 2
        # the three shapes product_class accepts: 1+1+1+1, 1+1+2, 2+2
        no_phi = ~s_is_phi_t & ~t_is_phi_s
        four_distinct = (size == 4) & (largest == 1) & (total == 4) & no_phi
        one_double = (size == 3) & (largest == 2) & (total == 4) & (
            doubled_s & t_is_phi_s & ~s_is_phi_t | doubled_t & s_is_phi_t & ~t_is_phi_s
        )
        two_two = (size == 2) & doubled_s & doubled_t & s_is_phi_t & t_is_phi_s
        flagged = distinct & ~(four_distinct | one_double | two_two)
        for s, t in zip(*np.nonzero(flagged)):
            try:
                product_class(scheme, pp, int(s), int(t))
            except TrichotomyViolation as err:
                violations.append("product-trichotomy: %s" % err)
        checked["product-trichotomy"] = (scheme.r - 1) * (scheme.r - 2)

        image_phi = sorted(pp.phi[s] for s in pp.s3)
        image_psi = sorted(pp.psi[s] for s in pp.s3)
        ok = image_phi == sorted(pp.s3) and image_psi == sorted(pp.s3)
        for s in pp.s3:
            if pp.psi[s] != pp.phi[pp.phi[s]]:
                ok = False
        if not ok:
            violations.append(
                "phi-psi-bijections: phi=%s psi=%s on s3=%s"
                % (pp.phi, pp.psi, sorted(pp.s3))
            )
        checked["phi-psi-bijections"] = len(pp.s3)

    # a partner with a four-element product exists once there are at
    # least four non-diagonal colors to choose from
    if scheme.r >= 5:
        partnered = (size[1:, 1:] == 4).any(axis=1)
        for u in colors[1:][~partnered].tolist():
            violations.append(
                "four-product-partner: color %d has no partner with |uv| = 4" % u
            )
        checked["four-product-partner"] = scheme.r - 1
    else:
        checked["four-product-partner"] = 0

    # members[s, u]: u lies in the closure of {s}, which always holds 0,
    # so no pair with the diagonal color counts as independent
    members = _closure_masks(nonzero, scheme.dual, [np.array([s]) for s in colors])
    first, second = np.nonzero(np.triu(~members & ~members.T, 1))
    meets = (nonzero[first, second] & (members[first] | members[second])).any(axis=1)
    flagged = (size[first, second] != 4) | meets
    for s, t in zip(first[flagged].tolist(), second[flagged].tolist()):
        if size[s, t] != 4:
            violations.append("independent-product-split: |%d.%d| = %d" % (s, t, size[s, t]))
        else:
            violations.append(
                "independent-product-split: product of %d,%d meets a closure" % (s, t)
            )
    checked["independent-product-split"] = len(first)

    bound_pairs = 0
    if pp is not None:
        split = np.isin(first, list(pp.s3)) & np.isin(second, list(pp.s3))
        s_split, t_split = first[split], second[split]
        phi, psi = np.array(pp.phi), np.array(pp.psi)
        shared = nonzero[phi[t_split], phi[s_split]] & nonzero[psi[t_split], psi[s_split]]
        flagged = shared.sum(axis=1) > 1
        for s, t, row in zip(s_split[flagged], t_split[flagged], shared[flagged]):
            violations.append(
                "split-intersection-bound: colors %d,%d share %s"
                % (s, t, np.flatnonzero(row).tolist())
            )
        bound_pairs = len(s_split)
    checked["split-intersection-bound"] = bound_pairs

    return StructureReport(violations, checked, pp)
