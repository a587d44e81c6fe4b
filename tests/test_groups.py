import hashlib
import json

import numpy as np
import pytest

import scheme_forge as sf
from scheme_forge import groups
from scheme_forge.cli import build_report, run

import oracles


# --- permutation plumbing ---


def test_compose_order_convention():
    p = (1, 2, 0)
    q = (0, 2, 1)
    # apply p first, then q
    assert sf.compose(p, q) == (2, 1, 0)
    assert sf.compose(p, sf.inverse(p)) == (0, 1, 2)


def test_perm_order():
    assert oracles.perm_order((1, 2, 0, 4, 3)) == 6
    assert oracles.perm_order((0, 1, 2)) == 1


def test_orbits_of_one_permutation():
    sigma = (0, 2, 3, 4, 1)
    assert groups.orbits(sf.PermGroup(5, (sigma,))) == ((0,), (1, 2, 3, 4))
    assert groups.orbits(sf.PermGroup(4, ((2, 3, 0, 1),))) == ((0, 2), (1, 3))


def test_enumerate_and_order():
    group = sf.PermGroup(3, ((1, 2, 0),))
    assert sf.group_order(group) == 3
    assert sf.group_order(sf.PermGroup(3, ())) == 1


def test_enumerate_bound():
    sym5 = sf.PermGroup(5, ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0)))
    with pytest.raises(sf.BoundExceeded):
        groups.enumerate_elements(sym5, bound=100)


def test_bad_generator_degree():
    with pytest.raises(ValueError):
        groups.enumerate_elements(sf.PermGroup(3, ((0, 1),)))


# --- constructions ---


def test_cyclotomic_rejects_bad_primes():
    for p in (2, 3, 7, 9, 15, 21):
        with pytest.raises(sf.BadPrime):
            sf.cyclotomic_frobenius(p)


def test_cyclotomic_group_shape():
    group = sf.cyclotomic_frobenius(13)
    assert sf.group_order(group) == 52
    assert groups.is_transitive(group)
    scheme = sf.orbital_scheme(group)
    assert (scheme.n, scheme.r) == (13, 4)


def test_vector_construction_matches_prime_case():
    # d = 1 is the prime field: translation by 1, then the least unit of order 4
    for p, unit in ((5, 2), (13, 5), (17, 4)):
        expected = (tuple((x + 1) % p for x in range(p)), tuple(unit * x % p for x in range(p)))
        assert sf.vector_frobenius(p, 1).generators == expected
        assert sf.cyclotomic_frobenius(p).generators == expected


def test_vector_frobenius_sizes():
    group = sf.vector_frobenius(5, 2)
    assert sf.group_order(group) == 100
    scheme = sf.orbital_scheme(group)
    assert (scheme.n, scheme.r) == (25, 7)


def test_vector_frobenius_degree_cap():
    with pytest.raises(groups.DegreeTooLarge):
        sf.vector_frobenius(13, 4)
    # refused before the primality test and before p**d is computed
    for p, d in ((30013, 1), (10**12 + 39, 1), (5, 10**4)):
        with pytest.raises(groups.DegreeTooLarge):
            sf.vector_frobenius(p, d)
    with pytest.raises(groups.DegreeTooLarge):
        sf.cyclotomic_frobenius(30013)
    # a non-positive p is never a prime, whatever the size of p**d
    for p, d in ((-50, 2), (0, 5), (-3, 10**4)):
        with pytest.raises(groups.BadPrime):
            sf.vector_frobenius(p, d)


def test_vector_frobenius_needs_a_positive_dimension():
    with pytest.raises(ValueError) as err:
        sf.vector_frobenius(5, 0)
    assert type(err.value) is ValueError and str(err.value) == "dimension must be positive"


def test_orbital_scheme_needs_transitive():
    # the orbit of 0 misses a point: 0 moves, or 0 is fixed
    for stuck in (sf.PermGroup(4, ((1, 0, 2, 3),)), sf.PermGroup(3, ((0, 2, 1),)),
                  sf.PermGroup(2, ())):
        with pytest.raises(sf.NotTransitive, match="^group is not transitive on its points$"):
            sf.orbital_scheme(stuck)


ORBITAL_GROUPS = {
    "z5": lambda request: sf.cyclotomic_frobenius(5),
    "z13": lambda request: sf.cyclotomic_frobenius(13),
    "z17": lambda request: sf.cyclotomic_frobenius(17),
    "z29": lambda request: sf.cyclotomic_frobenius(29),
    "v25": lambda request: sf.vector_frobenius(5, 2),
    "c53": lambda request: sf.cyclotomic_frobenius(53),
    "f9": lambda request: request.getfixturevalue("f9_group"),
    "f9_squared": lambda request: request.getfixturevalue("f9_squared_group"),
    "sym5": lambda request: sf.PermGroup(5, ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))),
    "point": lambda request: sf.PermGroup(1, ()),
}


@pytest.mark.parametrize("name", sorted(ORBITAL_GROUPS))
def test_orbital_scheme_matches_the_orbit_oracle(request, name):
    # the oracle labels each orbit on pairs at its row-major least pair, as
    # orbital_scheme numbers its colors
    group = ORBITAL_GROUPS[name](request)
    expected = oracles.orbital_partition(groups.enumerate_elements(group), group.degree)
    assert sf.orbital_scheme(group).color.tolist() == expected


def test_orbital_colors_are_orbits(z13):
    # color classes = orbits of the group on ordered pairs
    group = sf.cyclotomic_frobenius(13)
    elements = groups.enumerate_elements(group)
    expected = oracles.orbital_partition(elements, 13)
    assert oracles.partition_of(expected) == oracles.partition_of(z13.color.tolist())


# --- automorphisms ---


def test_automorphism_group_orders(battery, auts):
    expected = {"z5": 120, "z13": 52, "z17": 68, "z29": 116, "v25": 100}
    for name, group in auts.items():
        assert sf.group_order(group) == expected[name], name


def test_automorphisms_against_factorial_filter(z5):
    brute = oracles.aut_by_factorial(z5)
    fast = sorted(groups.enumerate_elements(sf.automorphism_group(z5)))
    assert fast == brute
    assert len(brute) == 120


def test_automorphisms_against_anchor_oracle(z13, z17, z29, v25, auts):
    for name, scheme in (("z13", z13), ("z17", z17), ("z29", z29), ("v25", v25)):
        anchored = oracles.aut_by_anchors(scheme)
        fast = sorted(groups.enumerate_elements(auts[name]))
        assert fast == anchored


def test_every_listed_automorphism_is_one(z29, auts):
    for img in groups.enumerate_elements(auts["z29"]):
        assert oracles.is_automorphism(z29.color, img)


def test_every_automorphism_of_c53_is_one():
    c53 = sf.orbital_scheme(sf.cyclotomic_frobenius(53))
    elements = groups.enumerate_elements(sf.automorphism_group(c53))
    assert len(elements) == 212
    assert all(oracles.is_automorphism(c53.color, img) for img in elements)


def test_automorphism_bound_is_exact(z13):
    with pytest.raises(sf.BoundExceeded):
        sf.automorphism_group(z13, bound=51)
    assert sf.group_order(sf.automorphism_group(z13, bound=52)) == 52


def test_automorphism_bound_with_a_long_base(z5):
    # Aut is Sym(5): a resolving base needs 4 points and all 120 maps pass
    with pytest.raises(sf.BoundExceeded):
        sf.automorphism_group(z5, bound=100)


def test_automorphisms_of_cospectral_rank_three_schemes(shrikhande, rook):
    # SRG(16,6,2,2) twice: the Shrikhande graph (|Aut| = 192) and the 4x4
    # rook's graph (|Aut| = 2 * 24**2 = 1152).  On the Shrikhande graph some
    # forced maps are not automorphisms, so only the full check keeps the
    # count at the true order.
    for scheme, order in ((shrikhande, 192), (rook, 1152)):
        elements = groups.enumerate_elements(sf.automorphism_group(scheme, bound=order))
        assert len(elements) == order
        assert all(oracles.is_automorphism(scheme.color, img) for img in elements)


def test_relabelled_v25_has_the_conjugate_group(v25, auts):
    rng = np.random.default_rng(25)
    points = rng.permutation(v25.n)
    colors = np.concatenate(([0], 1 + rng.permutation(v25.r - 1)))
    color = np.empty_like(v25.color)
    color[np.ix_(points, points)] = colors[v25.color]
    relabelled = sf.from_matrix(color)
    found = set(groups.enumerate_elements(sf.automorphism_group(relabelled)))
    conjugated = set()
    for g in groups.enumerate_elements(auts["v25"]):
        h = [0] * v25.n
        for x in range(v25.n):
            h[points[x]] = int(points[g[x]])
        conjugated.add(tuple(h))
    assert len(found) == 100
    assert found == conjugated


# |Aut| of each instance the chain search is checked on: z5 is Sym(5), with
# a 4-point base; F_9 has 72; the Shrikhande and 4x4 rook's graphs 192 and 1152
CHAIN_ORDERS = {"z5": 120, "z13": 52, "z17": 68, "z29": 116, "v25": 100, "c53": 212,
                "c101": 404, "v125": 500, "f9": 72, "shrikhande": 192, "rook": 1152}


@pytest.mark.parametrize("name", sorted(CHAIN_ORDERS))
def test_chain_matches_the_per_element_search(request, name):
    scheme = request.getfixturevalue(name)
    order = CHAIN_ORDERS[name]
    listed = oracles.aut_by_base_images(scheme)
    aut = sf.automorphism_group(scheme, bound=order)
    assert sf.group_order(aut) == len(listed) == order
    assert list(groups.enumerate_elements(aut)) == listed
    # point stabilisers, read off the chain at its first base point and
    # searched again elsewhere, and one prefix stabiliser of two points
    for points in [(alpha,) for alpha in sorted({0, scheme.n // 2, scheme.n - 1})] + [
            (scheme.n - 1, 1)]:
        fixing = [g for g in listed if all(g[p] == p for p in points)]
        assert list(groups.stabilizer(aut, points)) == fixing, points
    with pytest.raises(sf.BoundExceeded, match="^more than %d automorphisms$" % (order - 1)):
        sf.automorphism_group(scheme, bound=order - 1)
    with pytest.raises(sf.BoundExceeded):
        oracles.aut_by_base_images(scheme, bound=order - 1)


@pytest.mark.parametrize("name", ("c53", "v125"))
def test_report_lists_no_automorphisms(request, name, monkeypatch):
    # the report reads |Aut|, the orbits and G_0 off the chain: it lists no
    # element of Aut, and closes and composes nothing
    scheme = request.getfixturevalue(name)
    found = []
    search, listing = groups.automorphism_group, groups.enumerate_elements

    def recording(*args, **kwargs):
        found.append(search(*args, **kwargs))
        return found[-1]

    def guarded(group, *args, **kwargs):
        assert all(group is not aut for aut in found), "Aut listed"
        return listing(group, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(groups, "automorphism_group", recording)
    monkeypatch.setattr(groups, "enumerate_elements", guarded)
    for helper in ("_dimino", "compose"):
        monkeypatch.setattr(groups, helper, refuse)
    statuses = {c.name: c.status for c in build_report(scheme, name).checks}
    assert len(found) == 1
    assert set(statuses.values()) <= {"pass", sf.cli.NA}
    assert statuses["frobenius-witness"] == statuses["two-point-rigidity"] == "pass"


def test_two_point_rigidity(z13, z17, z29, v25, auts):
    assert sf.two_point_rigidity(z13, group=auts["z13"])
    assert sf.two_point_rigidity(z17, group=auts["z17"])
    assert sf.two_point_rigidity(z29, group=auts["z29"])
    assert sf.two_point_rigidity(v25, group=auts["v25"])


def test_rank_two_is_not_rigid(z5, auts):
    assert not sf.two_point_rigidity(z5, group=auts["z5"])


def test_sigma_alpha_everywhere(z13, z17, z29, auts):
    for name, scheme in (("z13", z13), ("z17", z17), ("z29", z29)):
        group = auts[name]
        for alpha in range(scheme.n):
            sigma = sf.sigma_alpha(scheme, alpha, group=group)
            assert sigma is not None, (name, alpha)
            assert sigma[alpha] == alpha
            assert oracles.perm_order(sigma) == 4
            rows = {frozenset(int(x) for x in scheme.row(alpha, s)) for s in scheme.nondiagonal()}
            cycles = set(map(frozenset, groups.orbits(sf.PermGroup(scheme.n, (sigma,)))))
            assert cycles == rows | {frozenset({alpha})}


def test_sigma_alpha_is_minimal_choice(z13, auts):
    sigma = sf.sigma_alpha(z13, 0, group=auts["z13"])
    # multiplication by 5 is the lexicographically first qualifying map
    assert sigma == tuple((5 * x) % 13 for x in range(13))


def test_rotations_cycle_every_row(z13):
    # sigma rotates all three rows at 0, g only the row of 1; of the 16
    # elements of <g, sigma>, those of order 4 whose cycles off 0 are the
    # rows are g**i sigma**j with i even and j odd
    sigma = tuple((5 * x) % 13 for x in range(13))
    row = set(int(y) for y in z13.row(0, z13.color[0, 1]))
    g = tuple(sigma[x] if x in row else x for x in range(13))
    group = sf.PermGroup(13, (g, sigma))
    rows = {frozenset(int(y) for y in z13.row(0, s)) for s in z13.nondiagonal()} | {frozenset({0})}
    expected = [h for h in groups.enumerate_elements(group) if oracles.perm_order(h) == 4
                and set(map(frozenset, groups.orbits(sf.PermGroup(13, (h,))))) == rows]
    assert len(expected) == 4
    assert list(groups._rotations(z13, group, 0)) == expected


# --- Frobenius property and witnesses ---


def test_frobenius_check_positive():
    group = sf.cyclotomic_frobenius(13)
    assert sf.frobenius_check(group)


def test_frobenius_check_negative():
    sym4 = sf.PermGroup(4, ((1, 0, 2, 3), (1, 2, 3, 0)))
    assert not sf.frobenius_check(sym4)  # transpositions fix two points
    cyclic = sf.PermGroup(4, ((1, 2, 3, 0),))
    assert not sf.frobenius_check(cyclic)  # no element fixes exactly one
    shift13 = sf.PermGroup(13, (tuple((x + 1) % 13 for x in range(13)),))
    assert not sf.frobenius_check(shift13)  # regular: same failure
    # a 3-cycle fixes only the point 3, but that point is an orbit of its own
    assert not sf.frobenius_check(sf.PermGroup(4, ((1, 2, 0, 3),)))


def test_frobenius_check_sym3_control():
    # on 3 points: transpositions fix one point, 3-cycles fix none
    sym3 = sf.PermGroup(3, ((1, 0, 2), (1, 2, 0)))
    assert sf.frobenius_check(sym3)


def test_group_inside_automorphisms_of_own_orbitals(auts):
    for p in (13, 29):
        group = sf.cyclotomic_frobenius(p)
        aut = auts["z13" if p == 13 else "z29"]
        aut_elements = set(groups.enumerate_elements(aut))
        assert set(groups.enumerate_elements(group)) <= aut_elements


def test_witness_certificates(battery, auts):
    sizes = {"z5": 5, "z13": 13, "z17": 17, "z29": 29, "v25": 25}
    for name, scheme in battery.items():
        witness = sf.frobenius_witness(scheme, group=auts[name])
        assert witness is not None, name
        assert sf.group_order(witness) == 4 * sizes[name]
        elements = groups.enumerate_elements(witness)
        assert len(elements) == 4 * sizes[name]
        assert oracles.frobenius_by_definition(set(elements), scheme.n)
        expected = oracles.orbital_partition(elements, scheme.n)
        assert oracles.partition_of(expected) == oracles.partition_of(scheme.color.tolist())


def test_witness_on_symmetric_group_scheme(z5, auts):
    # Aut is all of Sym(5); the witness must be a proper Frobenius subgroup
    witness = sf.frobenius_witness(z5, group=auts["z5"])
    assert sf.group_order(witness) == 20
    assert oracles.frobenius_by_definition(set(groups.enumerate_elements(witness)), 5)


def test_aut_is_the_witness_without_closure(z13, v25, c53, auts, monkeypatch):
    # |Aut| = 4n, so the lemma certifies Aut itself: no closure, no products,
    # no fixed-point scan, no re-check and no orbital scheme to validate
    cases = [(z13, auts["z13"]), (v25, auts["v25"]), (c53, sf.automorphism_group(c53))]

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    for name in ("_dimino", "compose", "fixed_points", "frobenius_check", "from_matrix"):
        monkeypatch.setattr(groups, name, refuse)
    for scheme, aut in cases:
        witness = sf.frobenius_witness(scheme, group=aut)
        assert witness is aut
        assert sf.group_order(witness) == 4 * scheme.n


def test_f9_witness_from_a_larger_aut(f9):
    # |Aut| = 72 is not 4n, and Aut has more fixed-point-free elements than
    # translations, so the pair route finds the witness
    scheme = f9
    aut = sf.automorphism_group(scheme)
    assert sf.group_order(aut) == 72
    witness = sf.frobenius_witness(scheme, group=aut)
    assert sf.group_order(witness) == 36
    assert witness.generators == (
        (0, 2, 1, 6, 8, 7, 3, 5, 4), (0, 3, 6, 2, 5, 8, 1, 4, 7), (1, 0, 2, 7, 6, 8, 4, 3, 5))
    assert oracles.frobenius_by_definition(set(groups.enumerate_elements(witness)), 9)


def test_witness_needs_a_rotation(f9):
    # Sym(3) x Sym(3) on the 3 x 3 grid of F_9 is transitive, color-preserving
    # and of order 36 = 4n, but its point stabilizer is C2 x C2
    pts = [(a, b) for b in range(3) for a in range(3)]
    index = lambda a, b: a % 3 + 3 * (b % 3)
    maps = (lambda a, b: (a + 1, b), lambda a, b: (-a, b),
            lambda a, b: (a, b + 1), lambda a, b: (a, -b))
    grid = sf.PermGroup(9, tuple(tuple(index(*f(a, b)) for a, b in pts) for f in maps))
    scheme = f9
    assert sf.group_order(grid) == 36 and groups.is_transitive(grid)
    assert all(oracles.is_automorphism(scheme.color, g) for g in grid.generators)
    assert sf.frobenius_witness(scheme, group=grid) is None


def test_witness_by_the_kernel_route(v25):
    # AGL(1, 25) on F_25 = F_5[t], t^2 = 2, with point a + 5b for a + bt, is
    # Frobenius of order 600 with kernel Z_5^2, and moves the colors of v25.
    # Its rotations at 0 are scalars, so a rotation and one translation close
    # to 20 elements only: the kernel extended by the first rotation is the
    # witness
    pts = [(a, b) for b in range(5) for a in range(5)]
    index = lambda a, b: a % 5 + 5 * (b % 5)
    times_2_plus_t = tuple(index(2 * a + 2 * b, a + 2 * b) for a, b in pts)
    group = sf.PermGroup(25, (tuple(index(a + 1, b) for a, b in pts),
                              tuple(index(a, b + 1) for a, b in pts), times_2_plus_t))
    assert sf.group_order(group) == 600
    witness = sf.frobenius_witness(v25, group=group)
    assert sf.group_order(witness) == 100
    elements = groups.enumerate_elements(witness)
    assert oracles.frobenius_by_definition(set(elements), 25)
    assert all(oracles.is_automorphism(v25.color, g) for g in elements)
    assert witness.generators == (
        (0, 2, 4, 1, 3, 10, 12, 14, 11, 13, 20, 22, 24, 21, 23, 5, 7, 9, 6, 8, 15, 17, 19, 16, 18),
        (1, 0, 4, 3, 2, 21, 20, 24, 23, 22, 16, 15, 19, 18, 17, 11, 10, 14, 13, 12, 6, 5, 9, 8, 7),
        tuple(range(5, 25)) + tuple(range(5)))


def test_witness_of_order_4n_keeps_the_given_generators(z13):
    # the constructor's generators (x + 1, x -> 5x) are not the greedy ones of
    # the sorted elements (x -> 5x, x -> 1 - x); a group of 4n elements is
    # certified as given
    group = sf.cyclotomic_frobenius(13)
    witness = sf.frobenius_witness(z13, group=group)
    assert witness is group
    assert sf.group_order(witness) == 52
    assert witness.generators == (
        tuple((x + 1) % 13 for x in range(13)), tuple(5 * x % 13 for x in range(13)))


def test_witness_needs_colors_preserved(z13, auts):
    # swapping two points of one row of 0 keeps the group transitive, of
    # order 52 and holding a rotation at 0, but it no longer preserves colors
    x, y = (int(v) for v in z13.row(0, 1)[:2])
    swap = list(range(13))
    swap[x], swap[y] = y, x
    swap = tuple(swap)
    conjugated = sf.PermGroup(
        13, tuple(sf.compose(sf.compose(swap, g), swap) for g in auts["z13"].generators))
    assert sf.group_order(conjugated) == 52 and groups.is_transitive(conjugated)
    assert sf.sigma_alpha(z13, 0, group=conjugated) is not None
    assert sf.frobenius_witness(z13, group=conjugated) is None


def test_certificate_needs_a_transitive_group(z13, auts):
    sigma = sf.sigma_alpha(z13, 0, group=auts["z13"])
    assert groups._certifies(z13, auts["z13"])
    assert not groups._certifies(z13, sf.PermGroup(13, (sigma,)))


def test_no_witness_outside_four_equivalenced():
    # K_{2,2,2} has valencies 1 and 4.  Its Aut (order 48) holds a rotation at
    # 0 and Sym(4), transitive, color-preserving and of order 24 = 4n; but the
    # rotation's square fixes the point opposite 0
    color = [[0 if x == y else 1 if (x - y) % 3 == 0 else 2 for y in range(6)] for x in range(6)]
    scheme = sf.from_matrix(np.array(color))
    aut = sf.automorphism_group(scheme)
    assert sf.group_order(aut) == 48
    assert sf.sigma_alpha(scheme, 0, group=aut) is not None
    assert sf.frobenius_witness(scheme, group=aut) is None


def test_witness_tests_the_valency_before_listing_rotations(monkeypatch):
    # K_9 has valency 8; its G_0 = Sym(8), 40320 elements, is never listed
    color = np.ones((9, 9), dtype=np.int64)
    np.fill_diagonal(color, 0)
    scheme = sf.from_matrix(color)
    aut = sf.automorphism_group(scheme)

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(groups, "stabilizer", refuse)
    assert sf.frobenius_witness(scheme, group=aut) is None


# sha256 of `frobenius --json` on each battery scheme, recorded from the
# depth-first backtracking search that the base-driven search replaced: the
# witness and its generators must not move.
FROBENIUS_JSON_SHA256 = {
    "z5": "5796f6760c1d796a882a02cd50dc263921f4e1cd77a83a4d2ed3ca229b2fb89a",
    "z13": "11dfe4affdf988a3a0ab2e775683715cacf6d2fd8c972394d2bd7fd0f9725f4f",
    "z17": "b4673e9af3b0b10cdb7579f03f7d8d0e854d1d66a85a1bd983abfd3d4a6ea314",
    "z29": "9600088eb57703493291061e8459845e98e6284ac9ddd90381192af4d7044972",
    "v25": "69dce497d6aa0084e5e9ae7da7357676e8b20d93683ac136ff3818c206aa36fd",
}


def _json_digests(command, battery, tmp_path, capsys, flags=("--json",)):
    """sha256 of `command FILE FLAGS` on each battery scheme, --json by default."""
    digests = {}
    for name, scheme in battery.items():
        path = tmp_path / (name + ".asc")
        sf.save_asc(scheme, str(path))
        assert run([command, str(path), *flags]) == 0
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    return digests


def test_frobenius_json_is_unchanged(battery, tmp_path, capsys):
    assert _json_digests("frobenius", battery, tmp_path, capsys) == FROBENIUS_JSON_SHA256


# sha256 of `frobenius FILE` on each battery scheme, recorded from the
# witness certificates that stored the order, kernel and stabiliser the
# lemma gives: the witness group alone must print the same line.
FROBENIUS_TEXT_SHA256 = {
    "z5": "43b62ddbffb2b7fada579b839bac6d8d7266250bc88d57bf0e02de271fe69eed",
    "z13": "975745e5add8d4330b03898a852a07a09ad8396cfa708ea8b92f4324e02afe3c",
    "z17": "fb1102c56353058518fcbdee14a8748283d903408e26526c100f6ef349783557",
    "z29": "612db0f64efd29eeba6a14a3f4d0fd090bff0ed76b8617dfacce2796d8d33a94",
    "v25": "e3c74a93a72431b82a5abbf1b23721742fbf38b784b54c8fc98e69033aae59f6",
}


def test_frobenius_text_is_unchanged(battery, tmp_path, capsys):
    assert _json_digests("frobenius", battery, tmp_path, capsys, ()) == FROBENIUS_TEXT_SHA256


# sha256 of `aut --json` on each battery scheme, recorded from the
# per-element search that the chain search replaced, when the printed
# generators were the greedy ones of the sorted elements: on the battery
# the chain's strong generators, printed now, are the same.
AUT_JSON_SHA256 = {
    "z5": "19bbaa8a1c3e8432f25d6bc11ecceeeb2a89e0155c5204ad67f1944d8bccaffe",
    "z13": "360e1062640763503f143f1844316d42b4394e11a51475e667f5005bf13b88ba",
    "z17": "b11707e9d20a3219d02da0a09da155667d90180a2a8c7014d751471aa036b980",
    "z29": "b88e0f69a6a5a6d1b6a82f17b11b18291a1940a3cf052998037eba8fecc74632",
    "v25": "b11d331c0e3c54ce66bb2a96dbd869b321632eaa47c8e863e2267481d87ba0c9",
}


def test_aut_json_is_unchanged(battery, tmp_path, capsys):
    assert _json_digests("aut", battery, tmp_path, capsys) == AUT_JSON_SHA256


# sha256 of `aut --json` where the chain's strong generators are not the
# greedy ones of the sorted elements, recorded when aut began to print them:
# K_1's chain holds no generator, so it prints [] where [[0]] was.
AUT_STRONG_JSON_SHA256 = {
    "k1": "2fbfcc40268422dbde80fa35d92dd087ae96e9e6cc54507ffe153d4a477a1af9",
    "rook": "dee4a6984ecf09de5684a8ca531d9cbb4279e8cb412ad757a69fba6068fa67bb",
    "shrikhande": "43380dfc8132b804a56f55514a20f705d86350284420018c4538f39c520c9539",
}


def test_aut_json_prints_the_strong_generators(rook, shrikhande, tmp_path, capsys):
    schemes = {"k1": sf.from_matrix(np.zeros((1, 1), dtype=np.int64)), "rook": rook,
               "shrikhande": shrikhande}
    assert _json_digests("aut", schemes, tmp_path, capsys) == AUT_STRONG_JSON_SHA256
    for name, scheme in schemes.items():
        path = tmp_path / (name + ".asc")
        assert run(["aut", str(path), "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)["generators"]
        assert [tuple(g) for g in listed] == list(sf.automorphism_group(scheme).generators)


@pytest.mark.parametrize("command", ("aut", "frobenius"))
def test_aut_and_frobenius_list_no_automorphisms(command, c53, tmp_path, capsys, monkeypatch):
    # both print the generators the group holds: Aut's strong ones, and for
    # c53, where |Aut| = 4n, Aut is the witness
    found = []
    search, listing = groups.automorphism_group, groups.enumerate_elements

    def recording(*args, **kwargs):
        found.append(search(*args, **kwargs))
        return found[-1]

    def guarded(group, *args, **kwargs):
        assert all(group is not aut for aut in found), "Aut listed"
        return listing(group, *args, **kwargs)

    monkeypatch.setattr(groups, "automorphism_group", recording)
    monkeypatch.setattr(groups, "enumerate_elements", guarded)
    path = tmp_path / "c53.asc"
    sf.save_asc(c53, str(path))
    assert run([command, str(path), "--json"]) == 0
    listed = json.loads(capsys.readouterr().out)["generators"]
    assert len(found) == 1
    assert [tuple(g) for g in listed] == list(found[0].generators)


def test_frobenius_json_closes_the_witness_once(z5, tmp_path, capsys, monkeypatch):
    # |Aut(z5)| = 120 != 20: the witness holds the greedy generators of its
    # sorted elements, which the listing reuses instead of closing them again
    closed = []
    original = groups._dimino

    def recording(gens, n, limit=None):
        closed.append(len(gens))
        return original(gens, n, limit)

    monkeypatch.setattr(groups, "_dimino", recording)
    path = tmp_path / "z5.asc"
    sf.save_asc(z5, str(path))
    assert run(["frobenius", str(path), "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == FROBENIUS_JSON_SHA256["z5"]
    assert closed.count(20) == 1


@pytest.mark.parametrize("name", ("z5", "v25", "f9", "rook"))
def test_greedy_generators_match_closing_from_scratch(request, name):
    # keep each element that the ones kept before it do not generate,
    # closing them again every time
    scheme = request.getfixturevalue(name)
    elements = groups.enumerate_elements(sf.automorphism_group(scheme))
    expected, known = [], {groups.identity_perm(scheme.n)}
    for g in elements:
        if g not in known:
            expected.append(g)
            known = oracles.closure_by_bfs(expected, scheme.n, None)
    assert groups._dimino(elements, scheme.n) == (expected, set(elements))
    assert groups._dimino([groups.identity_perm(3)], 3) == ([(0, 1, 2)], {(0, 1, 2)})


def _random_generators(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    return [tuple(rng.permutation(n).tolist()) for _ in range(int(rng.integers(0, 4)))], n


@pytest.mark.parametrize("case", [*range(30), "sym5", "f9", "c53"])
def test_dimino_matches_breadth_first_closure(request, case):
    # the same elements as the oracle's closure, and None past the limit:
    # with the limit at the group order, one below it, one above it, and a
    # few fixed limits
    if isinstance(case, int):
        gens, n = _random_generators(case)
    else:
        group = ORBITAL_GROUPS[case](request)
        gens, n = list(group.generators), group.degree
    elements = oracles.closure_by_bfs(gens, n, None)
    order = len(elements)
    assert groups._dimino(gens, n)[1] == elements
    for limit in (order - 1, order, order + 1, 1, 6, 24, 200):
        closed = groups._dimino(gens, n, limit)
        assert (None if closed is None else closed[1]) == oracles.closure_by_bfs(gens, n, limit)
    # each generator kept is one the ones kept before it do not generate
    kept, known = groups._dimino(gens, n)[0], {groups.identity_perm(n)}
    for g in gens:
        if g not in known:
            assert kept[0] == g
            kept = kept[1:]
            known = oracles.closure_by_bfs(known | {g}, n, None)
    assert kept in ([], [groups.identity_perm(n)])


# --- .perm format ---


def test_perm_roundtrip(tmp_path):
    group = sf.cyclotomic_frobenius(13)
    path = tmp_path / "g.perm"
    sf.save_perm(group, str(path))
    loaded = sf.load_perm(str(path))
    assert loaded.degree == 13
    assert loaded.generators == group.generators
    assert path.read_text() == sf.write_perm(loaded)


def test_read_perm_rejects_garbage():
    for text in ("", "3\n", "3 1\n0 1\n", "3 1\n0 1 5\n", "3 1\n0 0 1\n", "x y\n"):
        with pytest.raises(sf.FormatError):
            sf.read_perm(text)
    for text, message in (("0 1\n", "bad header values"),
                          ("3 1\n0 x 2\n", "generator 0 has a non-integer image")):
        with pytest.raises(sf.FormatError) as err:
            sf.read_perm(text)
        assert str(err.value) == message
