"""One check per automorphism orbit, against the all-points sweeps it replaces."""

import itertools
import json

import numpy as np
import pytest

import scheme_forge as sf
from scheme_forge import fission, groups
from scheme_forge.cli import build_report, run

ORBIT_BATTERY = ("z13", "z17", "z29", "v25")
PER_POINT_CHECKS = ("sigma-alpha", "fission-semiregularity", "fission-fiber-rows")


def _statuses(report):
    return {c.name: c.status for c in report.checks}


@pytest.fixture
def built(monkeypatch):
    """Point sets of the fissions built while the test runs, in order."""
    calls = []
    original = fission.point_fission

    def counting(scheme, points, *args, **kwargs):
        calls.append(tuple(points))
        return original(scheme, points, *args, **kwargs)

    monkeypatch.setattr(fission, "point_fission", counting)
    return calls


def test_orbits_of_an_intransitive_group():
    group = sf.PermGroup(6, ((1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 2, 5)))
    assert groups.orbits(group) == ((0, 1), (2, 3, 4), (5,))
    assert not groups.is_transitive(group)


def test_battery_automorphisms_have_one_orbit(battery, auts):
    for name, aut in auts.items():
        assert groups.orbits(aut) == (tuple(range(battery[name].n)),), name


@pytest.mark.parametrize("name", ORBIT_BATTERY + ("c53",))
def test_orbit_report_matches_every_point(battery, c53, name):
    scheme = c53 if name == "c53" else battery[name]
    aut = sf.automorphism_group(scheme)
    has_rotation = bool(sf.phi_psi(scheme).s3)
    for alpha in range(scheme.n):
        if has_rotation:
            assert sf.sigma_alpha(scheme, alpha, group=aut) is not None, (name, alpha)
        cc = sf.point_fission(scheme, (alpha,))
        assert sf.is_semiregular_off(cc, alpha), (name, alpha)
        assert sf.fibers_refine_rows(scheme, cc, alpha), (name, alpha)
    checks = {c.name: c for c in build_report(scheme, name).checks}
    expected = ["pass", "pass", "pass"] if has_rotation else [sf.cli.NA, "pass", "pass"]
    assert [checks[c].status for c in PER_POINT_CHECKS] == expected
    for check in PER_POINT_CHECKS[1:]:
        assert " %d " % scheme.n in checks[check].detail


def test_report_builds_one_fission_per_orbit(z13, built):
    report = build_report(z13, "z13")
    assert set(_statuses(report).values()) <= {"pass", sf.cli.NA}
    # point 0 for the sweeps and for size 1 of the base search, then one pair
    assert built == [(0,), (0, 1)]


@pytest.mark.parametrize("name", ("z5",) + ORBIT_BATTERY)
def test_find_base_over_orbits_matches_plain_search(battery, auts, name):
    scheme = battery[name]
    if name == "z5":
        for group in (None, auts[name]):
            with pytest.raises(sf.CutoffExceeded):
                sf.find_base(scheme, cutoff=3, group=group)
        return
    plain = sf.find_base(scheme, cutoff=3)
    assert sf.find_base(scheme, cutoff=3, group=auts[name]) == plain
    fissions = {0: sf.point_fission(scheme, (0,))}
    assert sf.find_base(scheme, cutoff=3, group=auts[name], fissions=fissions) == plain


def test_find_base_under_a_point_stabilizer(z13):
    # <5x> fixes 0 and has three orbits of size 4 off it
    scaling = sf.PermGroup(13, (tuple(5 * x % 13 for x in range(13)),))
    assert sf.find_base(z13, cutoff=3, group=scaling) == sf.find_base(z13, cutoff=3)


@pytest.mark.parametrize("size", (1, 2, 3))
def test_orbit_least_sets_hold_every_orbit_minimum(z13, auts, size):
    elements = groups.enumerate_elements(auts["z13"])
    kept = list(fission._orbit_least_sets(13, size, elements))
    assert kept == sorted(kept)
    minima = {
        min(tuple(sorted(g[x] for x in subset)) for g in elements)
        for subset in itertools.combinations(range(13), size)
    }
    assert minima <= set(kept)


def test_report_past_the_bound_sweeps_every_point(z13, tmp_path, capsys, monkeypatch):
    checked = []
    original = fission.is_semiregular_off

    def recording(cc, alpha):
        checked.append(alpha)
        return original(cc, alpha)

    monkeypatch.setattr(fission, "is_semiregular_off", recording)
    path = tmp_path / "z13.asc"
    sf.save_asc(z13, str(path))
    assert run(["report", str(path), "--bound", "10", "--json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["sigma-alpha"]["detail"].startswith("skipped: ")
    assert checks["fission-semiregularity"]["detail"] == "semiregular off each of 13 split points"
    assert checks["fission-fiber-rows"]["status"] == "pass"
    assert checked == list(range(13))


def _invariants(scheme, name):
    """|Aut|, |s2|, |s3|, the base number and every report status."""
    pp = sf.phi_psi(scheme)
    try:
        base = sf.base_number(scheme)
    except sf.CutoffExceeded:
        base = None
    order = groups.group_order(sf.automorphism_group(scheme))
    return order, len(pp.s2), len(pp.s3), base, _statuses(build_report(scheme, name))


@pytest.mark.parametrize("name", ("z5",) + ORBIT_BATTERY)
def test_relabelled_battery_keeps_every_invariant(battery, name):
    scheme = battery[name]
    rng = np.random.default_rng(scheme.n)
    points = rng.permutation(scheme.n)
    colors = np.concatenate(([0], 1 + rng.permutation(scheme.r - 1)))
    color = np.empty_like(scheme.color)
    color[np.ix_(points, points)] = colors[scheme.color]
    relabelled = sf.from_matrix(color)
    # z5 is the complete graph K5, which every relabelling fixes
    assert name == "z5" or not np.array_equal(relabelled.color, scheme.color)
    assert _invariants(relabelled, name) == _invariants(scheme, name)
