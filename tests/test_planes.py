import collections
import dataclasses
import re

import numpy as np
import pytest

import scheme_forge as sf
from scheme_forge import planes

import oracles


@pytest.fixture(scope="module")
def pp13(z13):
    return sf.phi_psi(z13)


@pytest.fixture(scope="module")
def pp17(z17):
    return sf.phi_psi(z17)


def test_quarter_turn_convention(z13, pp13):
    # grid[R + i, R + j] holds cell (i, j), which in the prime field is
    # i*beta + j*gamma; np.rot90 carries cell (i, j) to (-j, i)
    radius = 3
    plane = sf.build_plane(z13, pp13, 1, 0, 1, 5, 12, 8, radius=radius)
    turned = np.rot90(plane.grid)
    cells = range(-radius, radius + 1)
    for i in cells:
        for j in cells:
            assert plane.grid[radius + i, radius + j] == (i + 5 * j) % 13
            assert turned[radius - j, radius + i] == plane.grid[radius + i, radius + j]
    assert oracles.rotate((2, 1)) == (-1, 2)
    assert oracles.rotation_orbit((2, 1)) == ((2, 1), (-1, 2), (-2, -1), (1, -2))
    assert oracles.rotation_orbit((0, 0)) == ((0, 0),)


def test_grid_is_read_only(z13, pp13, v25):
    pp = sf.phi_psi(v25)
    for plane in (sf.build_plane(z13, pp13, 1, 0, 1, 5, 12, 8, radius=1),
                  sf.build_plane(v25, pp, 1, *sf.valid_bases(v25, pp, 1, 0)[0])):
        assert not plane.grid.flags.writeable
        with pytest.raises(ValueError):
            plane.grid[0, 0] = 0


def test_axis_is_modular(z13, pp13):
    # alpha=0, beta=1: the axis through beta walks 2, 3, 4, ... times beta
    plane = sf.build_plane(z13, pp13, 1, 0, 1, 5, 12, 8, radius=6)
    assert plane.grid[6:, 6].tolist() == [0, 1, 2, 3, 4, 5, 6]


def test_valid_bases_count(z13, z17, pp13, pp17):
    for scheme, pp in ((z13, pp13), (z17, pp17)):
        for s in sorted(pp.s3):
            bases = sf.valid_bases(scheme, pp, s, 0)
            assert len(bases) == 8
            for base in bases:
                assert len(set(base)) == 5


def test_valid_bases_structure(z13, pp13):
    # beta fixes gamma up to the two psi-partners; delta, epsilon follow
    for base in sf.valid_bases(z13, pp13, 1, 0):
        alpha, beta, gamma, delta, epsilon = base
        assert alpha == 0
        s = int(z13.color[0, beta])
        assert s == 1
        assert int(z13.color[beta, delta]) == pp13.psi[1]
        assert int(z13.color[gamma, epsilon]) == pp13.psi[1]


def test_grid_matches_modular_model(z13, pp13):
    # in the prime field the plane is literally i*beta + j*gamma
    base = (0, 1, 5, 12, 8)
    plane = sf.build_plane(z13, pp13, 1, *base, radius=3)
    for (i, j), point in oracles.plane_cells(plane).items():
        assert point == (i * 1 + j * 5) % 13
    assert len(oracles.plane_cells(plane)) == 49


def test_every_base_gives_unique_grid(z17, pp17):
    for s in sorted(pp17.s3):
        for base in sf.valid_bases(z17, pp17, s, 0):
            plane = sf.build_plane(z17, pp17, s, *base, radius=2)
            assert len(oracles.plane_cells(plane)) == 25
            assert plane.base == base
            assert plane.alpha == 0


def test_degenerate_base_is_invalid(z13, pp13):
    # collapsing beta = gamma and delta = epsilon fails the premise before
    # any cell is built
    with pytest.raises(sf.InvalidBase, match=r"^base points \(1, 1, 12, 12\) are not distinct$"):
        sf.build_plane(z13, pp13, 1, 0, 1, 1, 12, 12, radius=1)


def test_base_color_mismatch_rejected(z13, pp13):
    with pytest.raises(sf.InvalidBase):
        sf.build_plane(z13, pp13, 1, 0, 2, 5, 12, 8, radius=1)  # beta has color 2


def test_wrong_psi_witness_rejected(z13, pp13):
    # base (0, 1, 5, 8, 12): color(beta, delta) = color(1, 8) = 3 != psi(1)
    assert int(z13.color[1, 8]) != pp13.psi[1]
    with pytest.raises(sf.InvalidBase):
        sf.build_plane(z13, pp13, 1, 0, 1, 5, 8, 12, radius=1)


def test_cross_for_doubled_square(v25):
    pp = sf.phi_psi(v25)
    bases = sf.valid_bases(v25, pp, 1, 0)
    assert bases
    plane = sf.build_plane(v25, pp, 1, *bases[0], radius=3)
    assert set(oracles.plane_cells(plane)) == {(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)}
    assert len(oracles.plane_cells(plane)) == 5


def test_rotation_invariance_all_bases(z13, z17, pp13, pp17):
    for scheme, pp in ((z13, pp13), (z17, pp17)):
        for s in sorted(pp.s3):
            for base in sf.valid_bases(scheme, pp, s, 0):
                plane = sf.build_plane(scheme, pp, s, *base, radius=3)
                assert sf.check_rotation_invariance(scheme, plane)


def test_sigma_base_ties_to_rotation(z13, z17, z29, auts):
    for name, scheme in (("z13", z13), ("z17", z17), ("z29", z29)):
        pp = sf.phi_psi(scheme)
        sigma = sf.sigma_alpha(scheme, 0, group=auts[name])
        for s in sorted(pp.s3):
            base = sf.sigma_base(scheme, sigma, s, 0)
            plane = sf.build_plane(scheme, pp, s, *base, radius=3)
            cells = oracles.plane_cells(plane)
            for cell, point in cells.items():
                turned = oracles.rotate(cell)
                if turned in cells:
                    assert cells[turned] == sigma[point]


def test_tampered_grid_fails_rotation(z13, pp13):
    plane = sf.build_plane(z13, pp13, 1, 0, 1, 5, 12, 8, radius=2)
    tampered = plane.grid.copy()
    # send a cell to a point of a different color from alpha
    cell = (2 + 2, 2 + 1)
    for candidate in range(13):
        if z13.color[0, candidate] != z13.color[0, tampered[cell]]:
            tampered[cell] = candidate
            break
    broken = dataclasses.replace(plane, grid=tampered)
    assert not sf.check_rotation_invariance(z13, broken)


def test_cross_planes_rotate_together(v25, auts):
    # doubled-square colors on different lines: aligned crosses still
    # turn in step (the cross-plane relation certification)
    pp = sf.phi_psi(v25)
    sigma = sf.sigma_alpha(v25, 0, group=auts["v25"])
    crosses = {
        s: sf.build_plane(v25, pp, s, *sf.sigma_base(v25, sigma, s, 0), radius=1)
        for s in (1, 2, 3)
    }
    for s in (1, 2, 3):
        assert sf.check_rotation_invariance(v25, crosses[s])
        for t in (1, 2, 3):
            assert oracles.sim_by_cells(v25, crosses[s], crosses[t])


def test_sigma_base_needs_fixed_point(z13, auts):
    sigma = sf.sigma_alpha(z13, 0, group=auts["z13"])
    with pytest.raises(sf.InvalidBase):
        sf.sigma_base(z13, sigma, 1, 1)  # sigma fixes 0, not 1


def test_check_sim_same_rotation(z13, pp13, auts):
    sigma = sf.sigma_alpha(z13, 0, group=auts["z13"])
    first = sf.build_plane(z13, pp13, 1, *sf.sigma_base(z13, sigma, 1, 0), radius=2)
    second = sf.build_plane(z13, pp13, 2, *sf.sigma_base(z13, sigma, 2, 0), radius=2)
    assert oracles.sim_by_cells(z13, first, second)


def _agreement(scheme, sigma, plane):
    """The array checks against the cell-by-cell oracles; returns whether
    each passed."""
    outcomes = (sf.check_rotation_invariance(scheme, plane), sf.misaligned_cell(plane, sigma))
    assert outcomes == (
        oracles.rotation_invariant_by_cells(scheme, plane),
        oracles.misaligned_by_cells(plane, sigma),
    )
    return outcomes[0], outcomes[1] is None


def _tampered(plane, cell, point):
    grid = plane.grid.copy()
    grid[cell] = point
    grid.setflags(write=False)
    return dataclasses.replace(plane, grid=grid)


def test_array_checks_match_cell_oracles(z13, z17, v25, auts):
    # every valid base of z13 and z17 at radius 1 and 2, and one tampered
    # cell next to the origin and one on the rim; v25's crosses, with the
    # cell (1, 0) next to two corners tampered
    seen = set()
    for name, scheme in (("z13", z13), ("z17", z17), ("v25", v25)):
        pp = sf.phi_psi(scheme)
        sigma = sf.sigma_alpha(scheme, 0, group=auts[name])
        for radius in (1, 2):
            built = [sf.build_plane(scheme, pp, s, *base, radius=radius)
                     for s in sorted(pp.s2 | pp.s3) for base in sf.valid_bases(scheme, pp, s, 0)]
            for plane in built:
                seen.add(_agreement(scheme, sigma, plane))
                o = len(plane.grid) // 2
                for cell in ((o + 1, o), (len(plane.grid) - 1, 0)):
                    if plane.grid[cell] >= 0:
                        point = (plane.grid[cell] + 1) % scheme.n
                        seen.add(_agreement(scheme, sigma, _tampered(plane, cell, point)))
    # each array check both passed and failed
    for k in range(2):
        assert {outcome[k] for outcome in seen} == {True, False}


def _bases_at_origin(scheme, group):
    """Every valid base of every s3 color at point 0, as {s: bases}, with
    the base of sigma_0 first."""
    pp = sf.phi_psi(scheme)
    sigma = sf.sigma_alpha(scheme, 0, group=group)
    return pp, {s: [sf.sigma_base(scheme, sigma, s, 0)] + sf.valid_bases(scheme, pp, s, 0)
                for s in sorted(pp.s3)}


def _by_cells(scheme, pp, s, base, radius=planes.DEFAULT_RADIUS):
    """oracles.plane_by_cells' plane, or the plane error it raises."""
    try:
        return oracles.plane_by_cells(scheme, pp, s, *base, radius=radius)
    except (sf.InvalidBase, sf.NoExtension, sf.AmbiguousExtension) as err:
        return err


def _assert_same(built, expected):
    """The same plane, read-only, or an error of the same type and text."""
    if isinstance(expected, sf.SchemeForgeError):
        assert (type(built), str(built)) == (type(expected), str(expected))
    else:
        assert (built.s, built.base) == (expected.s, expected.base)
        assert np.array_equal(built.grid, expected.grid)
        assert not built.grid.flags.writeable


def test_lockstep_planes_match_build_plane(battery, auts, c53, c101):
    # the k-th base of every color in one lockstep call, k over the sigma
    # base and all valid bases, against the cell-by-cell oracle on each
    cases = [(scheme, auts[name]) for name, scheme in battery.items()]
    cases += [(c53, sf.automorphism_group(c53)), (c101, sf.automorphism_group(c101))]
    for scheme, group in cases:
        pp, bases = _bases_at_origin(scheme, group)
        for radius in (1, 2, 3):
            for k in range(max(map(len, bases.values()), default=0)):
                chosen = {s: b[k] for s, b in bases.items() if k < len(b)}
                built = sf.build_planes(scheme, pp, chosen, radius=radius)
                assert list(built) == list(chosen)
                for s, base in chosen.items():
                    _assert_same(built[s], oracles.plane_by_cells(scheme, pp, s, *base,
                                                                  radius=radius))


def test_lockstep_keeps_crosses_and_base_errors(v25, z13, pp13):
    # doubled-square colors get the oracle's cross; a bad base its error
    pp = sf.phi_psi(v25)
    bases = {s: sf.valid_bases(v25, pp, s, 0)[0] for s in (3, 1)}
    built = sf.build_planes(v25, pp, bases)
    assert list(built) == [3, 1]
    for s, base in bases.items():
        _assert_same(built[s], oracles.plane_by_cells(v25, pp, s, *base))
    bases = {2: (0, 2, 10, 11, 3), 1: (0, 1, 1, 12, 12)}
    built = sf.build_planes(z13, pp13, bases)
    assert isinstance(built[1], sf.InvalidBase)
    assert str(built[1]) == "base points (1, 1, 12, 12) are not distinct"
    for s, base in bases.items():
        _assert_same(built[s], _by_cells(z13, pp13, s, base))
    with pytest.raises(ValueError, match="^radius must be at least 1$"):
        sf.build_planes(z13, pp13, {2: (0, 2, 10, 11, 3)}, radius=0)
    with pytest.raises(ValueError, match="^no such non-diagonal color: 4$"):
        sf.build_planes(z13, pp13, {4: (0, 2, 10, 11, 3)})


# A tampered color matrix (not revalidated) on which color 1's plane at
# radius 3 fails and the other planes do not change: (scheme, the entries
# given a new color, that color, the error the cell-by-cell oracle raises).
# On z13 only a diagonal entry gives color 1 a second cell candidate and
# leaves colors 2 and 3 intact.  On c53 the axis through beta fails at step
# 3 and the one through gamma at step 2: beta's axis is built first.
TAMPERED = [
    pytest.param("c53", [(1, 46)], 1, sf.AmbiguousExtension,
                 "line step 2 from 0,1: candidates [2, 46]", id="c53-axis-ambiguous"),
    pytest.param("c53", [(1, 3)], 1, sf.NoExtension, "line step 3 from 1,2", id="c53-axis-none"),
    pytest.param("c53", [(23, 31)], 1, sf.AmbiguousExtension,
                 "cell (1,1): candidates [24, 31]", id="c53-cell-ambiguous"),
    pytest.param("c53", [(23, 24)], 2, sf.NoExtension, "cell (1,1)", id="c53-cell-none"),
    pytest.param("c53", [(1, 3), (23, 7)], 1, sf.NoExtension, "line step 3 from 1,2",
                 id="c53-beta-axis-first"),
    pytest.param("z13", [(5, 5)], 3, sf.AmbiguousExtension,
                 "cell (1,2): candidates [5, 11]", id="z13-cell-ambiguous"),
    pytest.param("z13", [(10, 11)], 2, sf.NoExtension, "cell (1,2)", id="z13-cell-none"),
]


@pytest.mark.parametrize("name, entries, color, error, text", TAMPERED)
def test_lockstep_failure_matches_build_plane(name, entries, color, error, text, request):
    scheme = request.getfixturevalue(name)
    pp, bases = _bases_at_origin(scheme, sf.automorphism_group(scheme))
    chosen = {s: bases[s][0] for s in sorted(pp.s3)}
    intact = sf.build_planes(scheme, pp, chosen)
    tampered = scheme.color.copy()
    tampered[tuple(np.transpose(entries))] = color
    broken = dataclasses.replace(scheme, color=tampered)

    built = sf.build_planes(broken, pp, chosen)
    with pytest.raises(error) as expected:
        oracles.plane_by_cells(broken, pp, 1, *chosen[1])
    assert (type(built[1]), str(built[1])) == (error, text) == (error, str(expected.value))
    with pytest.raises(error, match="^%s$" % re.escape(text)):
        sf.build_plane(broken, pp, 1, *chosen[1])
    for s in chosen:
        if s != 1:
            assert np.array_equal(built[s].grid, intact[s].grid)


def test_lockstep_matches_plane_by_cells_on_tampered_schemes(request):
    # seeded: each trial overwrites 1-3 entries in rows the intact planes
    # read, then builds every color's plane at radius 1-3 on a random base
    # at point 0 in one call, against the cell-by-cell oracle on each
    rng = np.random.default_rng(22)
    seen = collections.Counter()
    for name in ("z13", "z17", "z29", "v25", "c53", "c101"):
        scheme = request.getfixturevalue(name)
        pp = sf.phi_psi(scheme)
        bases = {s: sf.valid_bases(scheme, pp, s, 0) for s in sorted(pp.s2 | pp.s3)}
        rows = np.unique([sf.build_plane(scheme, pp, s, *b[0]).grid for s, b in bases.items()])
        rows = rows[rows >= 0]
        for _ in range(60):
            radius = int(rng.integers(1, 4))
            tampered = scheme.color.copy()
            for _ in range(rng.integers(1, 4)):
                tampered[rng.choice(rows), rng.integers(scheme.n)] = rng.integers(scheme.r)
            broken = dataclasses.replace(scheme, color=tampered)
            chosen = {s: b[rng.integers(len(b))] for s, b in bases.items()}
            built = sf.build_planes(broken, pp, chosen, radius=radius)
            for s, base in chosen.items():
                expected = _by_cells(broken, pp, s, base, radius)
                _assert_same(built[s], expected)
                step = str(expected).split(" ")[0] if isinstance(expected, Exception) else ""
                seen[type(expected).__name__, step] += 1
    # every outcome occurs: a plane, a bad base, and no or several points at
    # a line step and at a cell
    assert set(seen) >= {("Plane", ""), ("NoExtension", "line"), ("NoExtension", "cell"),
                         ("AmbiguousExtension", "line"), ("AmbiguousExtension", "cell")}, seen
    assert any(kind == "InvalidBase" for kind, _ in seen), seen
