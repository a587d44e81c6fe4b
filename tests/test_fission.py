import math

import numpy as np
import pytest

import scheme_forge as sf
from scheme_forge import fission, groups
from scheme_forge.cli import build_report, run

import oracles


def test_wl_fixes_scheme_matrices(battery):
    # scheme colorings are already stable under pair refinement
    for scheme in battery.values():
        cfg = sf.wl_stabilize(scheme.color)
        assert cfg.num_colors == scheme.r
        assert oracles.partition_of(cfg.color) == oracles.partition_of(scheme.color)


LADDER = ("z5", "z13", "z17", "z29", "v25", "c53", "c101", "v125", "c197", "f9")


@pytest.fixture(scope="session")
def ladder(battery, c53, c101, v125, c197, f9):
    return battery | {"c53": c53, "c101": c101, "v125": v125, "c197": c197, "f9": f9}


@pytest.mark.parametrize("name", LADDER)
def test_fissions_match_sorted_path_oracle(ladder, name):
    # the automorphism group only stops the rounds early: same matrix
    scheme = ladder[name]
    aut = sf.automorphism_group(scheme)
    for points in ((0,), (0, 1)):
        expected = oracles.point_fission_by_sorted_paths(scheme, points)
        for group in (None, aut):
            cc = sf.point_fission(scheme, points, group)
            assert np.array_equal(cc.color, expected), (points, group)
            assert cc.num_colors == int(expected.max()) + 1


def _spy(monkeypatch, name, record=lambda args, result: result):
    """Replace fission.<name> by a wrapper that appends record(args, result)
    for each call, the result by default; returns the list."""
    seen = []
    original = getattr(fission, name)

    def recording(*args):
        result = original(*args)
        seen.append(record(args, result))
        return result

    monkeypatch.setattr(fission, name, recording)
    return seen


@pytest.mark.parametrize("modulus", (1, 3))
def test_colliding_evaluations_fall_back_to_exact_splits(ladder, modulus, monkeypatch):
    # modulo 3 the random evaluations collide often; modulo 1 they are all
    # zero, so every split must come from the exact fallback, with or
    # without the orbit count to stop at
    found = []
    original = fission._unstable_pairs

    def recording(color, num):
        unstable = original(color, num)
        found.append(bool(unstable.any()))
        return unstable

    monkeypatch.setattr(fission, "_modulus", lambda n: modulus)
    monkeypatch.setattr(fission, "_unstable_pairs", recording)
    certified = _spy(monkeypatch, "_orbits_certified")
    for name in ("z13", "z17", "v25", "c53"):
        scheme = ladder[name]
        aut = sf.automorphism_group(scheme)
        for points in ((0,), (0, 1)):
            expected = oracles.point_fission_by_sorted_paths(scheme, points)
            for group in (None, aut):
                cc = sf.point_fission(scheme, points, group)
                assert np.array_equal(cc.color, expected), (name, points, group)
    if modulus == 1:
        # every point refinement hashes to 0 and stalls, so the patch reached it
        assert any(found)
        assert certified and not any(certified)


def _same_configuration(cc, expected):
    return (np.array_equal(cc.color, expected.color) and cc.num_colors == expected.num_colors
            and cc.fibers == expected.fibers)


@pytest.mark.parametrize("name", ("z5", "z13", "z17", "z29", "v25", "c53"))
def test_point_refinement_certifies_complete_pairs(ladder, monkeypatch, name):
    # Aut is transitive, so every pair is carried by an automorphism onto a
    # pair (0, y), and its fission onto that pair's: the pairs from 0 meet
    # every orbit of pairs, complete or not
    scheme = ladder[name]
    n = scheme.n
    aut = sf.automorphism_group(scheme)
    assert groups.is_transitive(aut)
    certified = _spy(monkeypatch, "_orbits_certified")
    complete = 0
    for y in range(1, n):
        expected = sf.wl_stabilize(oracles.individualized(scheme, (0, y)))
        assert np.array_equal(expected.color, oracles.point_fission_by_sorted_paths(scheme, (0, y)))
        for group in (None, aut):
            certified.clear()
            cc = sf.point_fission(scheme, (0, y), group)
            assert _same_configuration(cc, expected), (y, group)
            # without a group only a complete fission is certified (the
            # trivial group's orbits are single pairs); with Aut, every one
            assert certified == [expected.is_complete or group is aut], (y, group)
        if expected.is_complete:
            complete += 1
            oracles.validate_configuration(cc)
    # base number 2 at every pair past rank 2; z5 has none complete
    assert complete == (n - 1 if scheme.r >= 3 else 0)


def test_report_and_base_certify_pairs_without_full_wl(c197, v25, tmp_path, capsys,
                                                       monkeypatch):
    bounds = _spy(monkeypatch, "wl_stabilize", lambda args, result: args[1])
    certified = _spy(monkeypatch, "_orbits_certified")
    report = build_report(c197, "c197")
    assert {c.status for c in report.checks} <= {"pass", sf.cli.NA}
    # every fission certified, the one-point fission and the pairs alike
    assert bounds == [] and certified and all(certified)
    certified.clear()
    path = tmp_path / "v25.asc"
    sf.save_asc(v25, str(path))
    assert run(["base", str(path)]) == 0
    assert "base number: 2" in capsys.readouterr().out
    # the one-point fission at 0, then the first doubled-square pair
    assert bounds == [] and certified == [True, True]


def test_point_refinement_stalls_without_a_base_of_two(f9, monkeypatch):
    # K_12 has every pair in one orbit of Sym(12), and F_9 has base number
    # 3: no pair fission is complete, so the refinement stalls and the WL
    # rounds give the same matrix as without it
    k12 = sf.from_matrix(np.ones((12, 12), dtype=np.int64) - np.eye(12, dtype=np.int64))
    certified = _spy(monkeypatch, "_orbits_certified")
    bounds = _spy(monkeypatch, "wl_stabilize", lambda args, result: args[1])
    pairs = [(k12, (0, 1)), (k12, (3, 7))] + [(f9, (0, y)) for y in range(1, 9)]
    for scheme, points in pairs:
        cc = sf.point_fission(scheme, points)
        assert not cc.is_complete
        assert np.array_equal(cc.color, oracles.point_fission_by_sorted_paths(scheme, points))
        assert _same_configuration(cc, sf.wl_stabilize(oracles.individualized(scheme, points)))
    assert certified == [False] * len(pairs)
    assert bounds == [scheme.n ** 2 for scheme, _ in pairs]


@pytest.mark.parametrize("name", ("z5", "z13", "z17", "z29", "v25", "c53", "f9", "f9_squared"))
def test_certified_fission_is_the_orbit_partition(request, monkeypatch, name):
    # with Aut the point refinement certifies every fission, which is then
    # the orbit partition of the listed elements fixing the points, and
    # equals the WL rounds and the sorted-path oracle without a group
    scheme = request.getfixturevalue(name)
    n = scheme.n
    aut = sf.automorphism_group(scheme)
    elements = groups.enumerate_elements(aut)
    certified = _spy(monkeypatch, "_orbits_certified")
    for points in ((0,), (0, 1), (0, 1, 2)):
        certified.clear()
        cc = sf.point_fission(scheme, points, aut)
        assert certified == [True], points
        fixing = [g for g in elements if all(g[p] == p for p in points)]
        assert np.array_equal(cc.color, oracles.orbital_partition(fixing, n)), points
        assert np.array_equal(cc.color, oracles.point_fission_by_sorted_paths(scheme, points))
        assert _same_configuration(cc, sf.wl_stabilize(oracles.individualized(scheme, points)))
        oracles.validate_configuration(cc)


@pytest.mark.parametrize("name", ("z13", "v25", "c53", "f9"))
def test_stalled_refinement_falls_back_to_wl(request, monkeypatch, name):
    # a refinement that adds no cell certifies nothing: each fission takes
    # the WL rounds to the orbit count, with the same configuration
    scheme = request.getfixturevalue(name)
    aut = sf.automorphism_group(scheme)
    expected = {(points, group is aut): sf.point_fission(scheme, points, group)
                for points in ((0,), (0, 1), (0, 1, 2)) for group in (None, aut)}
    monkeypatch.setattr(fission, "_refine", lambda scheme, cells, goal: cells)
    certified = _spy(monkeypatch, "_orbits_certified")
    bounds = _spy(monkeypatch, "wl_stabilize", lambda args, result: args[1])
    for (points, known), cc in expected.items():
        certified.clear()
        bounds.clear()
        stalled = sf.point_fission(scheme, points, aut if known else None)
        assert _same_configuration(stalled, cc), (points, known)
        bound = fission._pair_orbits(scheme, points, aut if known else None)[1]
        assert certified == [False] and bounds == [bound], (points, known)


@pytest.mark.parametrize("name", LADDER)
def test_pair_orbit_count_by_burnside(ladder, name):
    # against the orbits of the listed elements fixing the points, both by
    # Burnside and listed; where |Aut| = 4n it is the Frobenius witness, G_0
    # is a C4 fixing only 0, and there are (n**2 + 3) / 4
    scheme = ladder[name]
    n = scheme.n
    aut = sf.automorphism_group(scheme)
    elements = groups.enumerate_elements(aut)
    for points in ([0], [0, 1], [0, n - 1]):
        fixing = [g for g in elements if all(g[p] == p for p in points)]
        listed = np.array(oracles.orbital_partition(fixing, n))
        orbit, num = fission._pair_orbits(scheme, points, aut)
        assert num == oracles.pair_orbit_count_by_burnside(fixing, n) == listed.max() + 1, points
        assert np.array_equal(orbit, listed), points
    if sf.group_order(aut) == 4 * n:
        assert fission._pair_orbits(scheme, [0], aut)[1] == (n * n + 3) // 4


def test_groups_that_may_move_colors_count_every_pair(z13, paley13):
    # a plain group is not known to preserve colors, here a transposition
    # that moves them, and the automorphisms of the Paley graph on 13 points
    # are those of another scheme: neither may stop the rounds early
    swap = sf.PermGroup(13, (tuple(range(11)) + (12, 11),))
    trivial = oracles.pair_orbit_count_by_burnside([tuple(range(13))], 13)
    assert fission._pair_orbits(z13, [0], swap)[1] == trivial == 169
    assert fission._pair_orbits(z13, [0], sf.automorphism_group(paley13))[1] == 169
    for points in ((0,), (0, 1)):
        expected = oracles.point_fission_by_sorted_paths(z13, points)
        assert np.array_equal(sf.point_fission(z13, points, swap).color, expected), points
    assert sf.find_base(z13, cutoff=3, group=swap) == sf.find_base(z13, cutoff=3)


@pytest.fixture
def exact_checks(monkeypatch):
    """Color counts at which the exact stability check ran, in order."""
    calls = []
    original = fission._unstable_pairs

    def recording(color, num):
        calls.append(num)
        return original(color, num)

    monkeypatch.setattr(fission, "_unstable_pairs", recording)
    return calls


@pytest.mark.parametrize("name", ("c53", "c101", "v125"))
def test_report_reaches_the_orbit_count_without_exact_checks(ladder, exact_checks, name):
    report = build_report(ladder[name], name)
    assert {c.status for c in report.checks} <= {"pass", sf.cli.NA}
    assert exact_checks == []


def test_fission_command_reaches_the_orbit_count_without_exact_checks(
        c197, tmp_path, capsys, monkeypatch, exact_checks):
    path = tmp_path / "c197.asc"
    sf.save_asc(c197, str(path))
    bounds = _spy(monkeypatch, "wl_stabilize", lambda args, result: args[1])
    assert run(["fission", str(path), "--points", "0"]) == 0
    assert "colors: 9703  fibers: 50" in capsys.readouterr().out
    assert exact_checks == [] and bounds == []


def test_modulus_keeps_products_exact():
    for n in (1, 2, 13, 625, 10**6):
        p = fission._modulus(n)
        assert n * (p - 1) ** 2 < 2**53 < n * (2 * p) ** 2
        assert all(p % d for d in range(2, math.isqrt(p) + 1))


def test_int64_reduction_is_exact_at_the_bound():
    # the largest degree and its modulus, with every operand p - 1 in row 0
    # and column 0: that entry is n * (p - 1)**2, the largest sum the bound
    # allows; the float64 product converts to int64 exactly and % reduces it
    n = groups.MAX_DEGREE
    p = fission._modulus(n)
    rng = np.random.default_rng(n)
    left = rng.integers(0, p, size=(3, n))
    right = rng.integers(0, p, size=(n, 4))
    left[0] = right[:, 0] = p - 1
    h = (left.astype(np.float64) @ right.astype(np.float64)).astype(np.int64) % p
    expected = [[sum(a * b for a, b in zip(row, col)) % p for col in right.T.tolist()]
                for row in left.tolist()]
    assert h.tolist() == expected
    assert expected[0][0] == n * (p - 1) ** 2 % p


def test_wl_matches_dict_oracle():
    # a path graph: refinement must discover distances
    n = 6
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1
    seed = np.where(np.eye(n, dtype=bool), 0, adj + 1)
    cfg = sf.wl_stabilize(seed)
    expected = oracles.wl_partition_by_dicts(seed.tolist())
    assert oracles.partition_of(cfg.color) == expected


def test_wl_first_occurrence_numbering(z13):
    cfg = sf.wl_stabilize(z13.color)
    # color ids appear in row-major first-occurrence order
    flat = np.asarray(cfg.color).reshape(-1)
    first_seen = []
    for value in flat:
        if value not in first_seen:
            first_seen.append(int(value))
    assert first_seen == sorted(first_seen)


def _as_partition(matrix):
    return oracles.partition_of(matrix)


def test_wl_idempotent(z13):
    once = sf.point_fission(z13, (0,))
    again = sf.wl_stabilize(once.color)
    assert _as_partition(again.color) == _as_partition(once.color)


def test_wl_refines_input(z13):
    cfg = sf.point_fission(z13, (0,))
    for cls in _as_partition(cfg.color):
        colors = {int(z13.color[x, y]) for x, y in cls}
        assert len(colors) == 1


def test_wl_complete_seed_unchanged():
    seed = np.arange(9).reshape(3, 3)
    cfg = sf.wl_stabilize(seed)
    assert cfg.is_complete
    assert cfg.num_colors == 9


def test_fission_monotone(z13):
    small = sf.point_fission(z13, (0,))
    big = sf.point_fission(z13, (0, 1))
    small_classes = _as_partition(small.color)
    for cls in _as_partition(big.color):
        assert any(cls <= other for other in small_classes)


def test_fission_all_points_complete(z13):
    cfg = sf.point_fission(z13, tuple(range(13)))
    assert cfg.is_complete


def test_point_fission_shapes(z13):
    cfg = sf.point_fission(z13, (0,))
    assert cfg.num_colors == 43
    assert len(cfg.fibers) == 4
    assert cfg.fibers[0] == (0,)
    assert not cfg.is_complete
    oracles.validate_configuration(cfg)


def test_point_fission_fibers_are_rows(battery):
    for name, scheme in battery.items():
        if scheme.r < 3:
            continue
        cfg = sf.point_fission(scheme, (0,))
        assert sf.fibers_refine_rows(scheme, cfg, 0), name
        rows = {frozenset(int(x) for x in scheme.row(0, s)) for s in scheme.nondiagonal()}
        others = {frozenset(f) for f in cfg.fibers if f != (0,)}
        assert others <= rows, name


@pytest.mark.parametrize("name", ("z5", "z13", "z17", "z29", "v25", "c53", "f9"))
def test_fibers_match_dict_oracle(ladder, name):
    # WL configurations without a group, certified orbit partitions with one
    scheme = ladder[name]
    aut = sf.automorphism_group(scheme)
    for points in ((0,), (0, 1)):
        for group in (None, aut):
            cc = sf.point_fission(scheme, points, group)
            assert cc.fibers == oracles.fibers_by_dict(cc.color), (points, group)
            assert all(type(x) is int for f in cc.fibers for x in f)
    cc = sf.wl_stabilize(scheme.color)  # nothing split: one fiber
    assert cc.fibers == oracles.fibers_by_dict(cc.color) == (tuple(range(scheme.n)),)


def test_fibers_follow_least_points_not_color_numbers(z13):
    # diagonal colors numbered against the order of their least points
    cc = sf.point_fission(z13, (0,))
    color = cc.num_colors - 1 - cc.color
    tampered = fission.CoherentConfiguration(color, cc.num_colors)
    assert tampered.fibers == cc.fibers == oracles.fibers_by_dict(color)


def test_fibers_refine_rows_matches_fiber_loop(battery, c53):
    # fissions at one point read at every point, whose fibers straddle the
    # rows of most of them, and fissions with two diagonal colors merged,
    # so that the split point shares its fiber
    outcomes = set()
    for scheme in (*battery.values(), c53):
        cc = sf.point_fission(scheme, (0,))
        colors = [cc.color, sf.wl_stabilize(scheme.color).color]
        diagonal = np.unique(cc.color.diagonal())
        for u, v in zip(diagonal, diagonal[1:]):
            colors.append(np.where(cc.color == v, u, cc.color))
        for color in colors:
            merged = fission.CoherentConfiguration(color, int(color.max()) + 1)
            for alpha in range(scheme.n):
                expected = oracles.fibers_refine_rows_by_fibers(scheme, color, alpha)
                assert sf.fibers_refine_rows(scheme, merged, alpha) == expected
                outcomes.add(expected)
    assert outcomes == {True, False}


def test_semiregular_battery(battery):
    for name, scheme in battery.items():
        if scheme.r < 3:
            continue
        for alpha in range(scheme.n):
            cfg = sf.point_fission(scheme, (alpha,))
            assert sf.is_semiregular_off(cfg, alpha), (name, alpha)


def test_rank_two_not_semiregular(z5):
    cfg = sf.point_fission(z5, (0,))
    assert not sf.is_semiregular_off(cfg, 0)


def test_semiregular_off_sees_a_lone_repeated_color():
    # color 9, twice in row 1, is the only color of out-degree 2, and it
    # touches neither row 0 nor column 0
    color = np.array([[0, 1, 2, 3], [4, 5, 9, 9], [6, 7, 8, 10], [11, 12, 13, 14]])
    assert not sf.is_semiregular_off(fission.CoherentConfiguration(color, 15), 0)


def test_semiregular_needs_singleton_fiber(z13):
    cfg = sf.wl_stabilize(z13.color)  # nothing individualized
    with pytest.raises(fission.NotAFiber):
        sf.is_semiregular_off(cfg, 0)


def test_two_points_complete(battery):
    for name, scheme in battery.items():
        if scheme.r < 3:
            continue
        cfg = sf.point_fission(scheme, (0, 1))
        assert cfg.is_complete, name
        assert cfg.num_colors == scheme.n * scheme.n


def test_find_base(battery):
    expected = {"z13": 2, "z17": 2, "z29": 2, "v25": 2}
    for name, size in expected.items():
        scheme = battery[name]
        got, witness = sf.find_base(scheme, cutoff=3)
        assert got == size
        assert len(witness) == size
        assert sf.point_fission(scheme, witness).is_complete
        assert sf.base_number(scheme) == size


def test_find_base_prefers_doubled_square_pairs(v25):
    pp = sf.phi_psi(v25)
    size, witness = sf.find_base(v25, cutoff=3)
    assert size == 2
    assert int(v25.color[witness[0], witness[1]]) in pp.s2


def test_base_cutoff(z5):
    # rank 2 on 5 points: any 3 points leave two twins unseparated
    with pytest.raises(sf.CutoffExceeded):
        sf.find_base(z5, cutoff=3)


def test_single_point_base():
    one = sf.from_matrix(np.zeros((1, 1), dtype=np.int64))
    assert sf.find_base(one, cutoff=3) == (0, ())


def test_describe_fission(z13):
    # the facts the fission command reports, read off the configuration
    for group in (None, sf.automorphism_group(z13)):
        cc = sf.point_fission(z13, (0,), group)
        assert (0,) in cc.fibers
        assert cc.num_colors == 43
        assert len(cc.fibers) == 4
        assert fission.is_semiregular_off(cc, 0)
        assert not cc.is_complete
