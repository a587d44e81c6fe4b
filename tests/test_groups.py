import hashlib

import numpy as np
import pytest

import scheme_forge as sf
from scheme_forge import groups
from scheme_forge.cli import run

import oracles


# --- permutation plumbing ---


def test_compose_order_convention():
    p = (1, 2, 0)
    q = (0, 2, 1)
    # apply p first, then q
    assert sf.compose(p, q) == (2, 1, 0)
    assert sf.compose(p, sf.inverse(p)) == (0, 1, 2)


def test_perm_order():
    assert sf.perm_order((1, 2, 0, 4, 3)) == 6
    assert sf.perm_order((0, 1, 2)) == 1


def test_cycles_skip():
    sigma = (0, 2, 3, 4, 1)
    assert groups.cycles_of(sigma, skip=(0,)) == {frozenset({1, 2, 3, 4})}


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
    a = sf.orbital_scheme(sf.cyclotomic_frobenius(5))
    b = sf.orbital_scheme(sf.vector_frobenius(5, 1))
    assert np.array_equal(a.color, b.color)


def test_vector_frobenius_sizes():
    group = sf.vector_frobenius(5, 2)
    assert sf.group_order(group) == 100
    scheme = sf.orbital_scheme(group)
    assert (scheme.n, scheme.r) == (25, 7)


def test_vector_frobenius_degree_cap():
    with pytest.raises(groups.DegreeTooLarge):
        sf.vector_frobenius(13, 4)


def test_orbital_scheme_needs_transitive():
    stuck = sf.PermGroup(4, ((1, 0, 2, 3),))
    with pytest.raises(sf.NotTransitive):
        sf.orbital_scheme(stuck)


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


def _cayley_scheme_z4z4(connection):
    pts = [(i, j) for i in range(4) for j in range(4)]
    adjacent = np.array(
        [[((a[0] - b[0]) % 4, (a[1] - b[1]) % 4) in connection for b in pts] for a in pts]
    )
    color = np.where(adjacent, 1, 2)
    np.fill_diagonal(color, 0)
    return sf.from_matrix(color)


def test_automorphisms_of_cospectral_rank_three_schemes():
    # SRG(16,6,2,2) twice: the Shrikhande graph (|Aut| = 192) and the 4x4
    # rook's graph (|Aut| = 2 * 24**2 = 1152).  On the Shrikhande graph some
    # forced maps are not automorphisms, so only the full check keeps the
    # count at the true order.
    shrikhande = _cayley_scheme_z4z4({(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)})
    rook = _cayley_scheme_z4z4({(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)})
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
            assert sf.perm_order(sigma) == 4
            rows = {frozenset(int(x) for x in scheme.row(alpha, s)) for s in scheme.nondiagonal()}
            assert set(groups.cycles_of(sigma, skip=(alpha,))) == rows


def test_sigma_alpha_is_minimal_choice(z13, auts):
    sigma = sf.sigma_alpha(z13, 0, group=auts["z13"])
    # multiplication by 5 is the lexicographically first qualifying map
    assert sigma == tuple((5 * x) % 13 for x in range(13))


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
        cert = sf.frobenius_witness(scheme, group=auts[name])
        assert cert is not None, name
        assert cert.orbital_match
        assert cert.kernel_size == sizes[name]
        assert cert.stabilizer_order == 4
        elements = groups.enumerate_elements(cert.group)
        assert len(elements) == 4 * sizes[name]
        assert oracles.frobenius_by_definition(set(elements), scheme.n)
        expected = oracles.orbital_partition(elements, scheme.n)
        assert oracles.partition_of(expected) == oracles.partition_of(scheme.color.tolist())


def test_witness_on_symmetric_group_scheme(z5, auts):
    # Aut is all of Sym(5); the witness must be a proper Frobenius subgroup
    cert = sf.frobenius_witness(z5, group=auts["z5"])
    assert cert.kernel_size * cert.stabilizer_order == 20


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


def test_frobenius_json_is_unchanged(battery, tmp_path, capsys):
    for name, scheme in battery.items():
        path = tmp_path / (name + ".asc")
        sf.save_asc(scheme, str(path))
        assert run(["frobenius", str(path), "--json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == FROBENIUS_JSON_SHA256[name], name


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
