import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scheme_forge as sf
from scheme_forge import products
from scheme_forge.cli import build_report, run
from scheme_forge.products import ProductClass

import oracles


def test_phi_psi_z13(z13):
    pp = sf.phi_psi(z13)
    assert sorted(pp.s3) == [1, 2, 3]
    assert not pp.s2
    assert pp.phi == (0, 3, 1, 2)
    assert pp.psi == (0, 2, 3, 1)
    # psi = phi applied twice
    for s in pp.s3:
        assert pp.psi[s] == pp.phi[pp.phi[s]]


def test_phi_psi_z17(z17):
    pp = sf.phi_psi(z17)
    assert sorted(pp.s3) == [1, 2, 3, 4]
    assert pp.phi == (0, 3, 4, 2, 1)


def test_phi_psi_all_doubled(v25):
    pp = sf.phi_psi(v25)
    assert sorted(pp.s2) == [1, 2, 3, 4, 5, 6]
    assert not pp.s3
    for s in pp.s2:
        row = v25.tensor.c[s, s]
        assert np.flatnonzero(row).tolist() == [0, s]
        assert (row[0], row[s]) == (4, 3)


def test_phi_extends_as_identity_off_split_colors(v25, z5):
    for scheme in (v25, z5):
        pp = sf.phi_psi(scheme)
        assert pp.phi == tuple(range(scheme.r))
        assert pp.psi == tuple(range(scheme.r))


def test_closure_idempotent_and_monotone(v25):
    small = sf.closure(v25, {1})
    assert sf.closure(v25, small) == small
    bigger = sf.closure(v25, {1, 2})
    assert small <= bigger


def test_wr_symmetric(v25, z17):
    for scheme in (v25, z17):
        for s in scheme.nondiagonal():
            for t in scheme.nondiagonal():
                assert sf.wr(scheme, s, t) == sf.wr(scheme, t, s)


def test_phi_psi_rejects_other_valency():
    triangle = sf.from_matrix(np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))
    with pytest.raises(sf.NotFourEquivalenced):
        sf.phi_psi(triangle)


def test_complex_product_singletons(z13):
    # s * s covers phi(s), psi(s) and the diagonal
    assert sf.complex_product(z13, {1}, {1}) == frozenset({0, 2, 3})
    assert sf.complex_product(z13, {1}, {2}) <= frozenset(range(4))


def test_complex_product_unions(z13):
    left = sf.complex_product(z13, {1, 2}, {3})
    assert left == sf.complex_product(z13, {1}, {3}) | sf.complex_product(z13, {2}, {3})


def test_closure_full_on_primes(z13, z17, z29):
    for scheme in (z13, z17, z29):
        for s in scheme.nondiagonal():
            assert sf.closure(scheme, {s}) == frozenset(range(scheme.r))


def test_closure_lines_v25(v25):
    # each color generates only itself: its points lie on a line through 0
    for s in v25.nondiagonal():
        assert sf.closure(v25, {s}) == frozenset({0, s})


def test_wr(v25, z13):
    assert sf.wr(v25, 1, 2)
    assert not sf.wr(v25, 1, 1)
    # one color of z13 generates everything, so no independent pairs
    assert not sf.wr(z13, 1, 2)


def test_product_class_z17(z17):
    pp = sf.phi_psi(z17)
    seen = set()
    for s in z17.nondiagonal():
        for t in z17.nondiagonal():
            if s == t:
                continue
            cls = sf.product_class(z17, pp, s, t)
            seen.add(cls)
            row = z17.tensor.c[s, t]
            values = sorted(row[row > 0].tolist())
            if cls is ProductClass.FOUR_DISTINCT:
                assert values == [1, 1, 1, 1]
            elif cls is ProductClass.TWO_PLUS_DOUBLE:
                assert values == [1, 1, 2]
            else:
                assert values == [2, 2]
                assert np.flatnonzero(row).tolist() == sorted((s, t))
    assert ProductClass.FOUR_DISTINCT in seen
    assert ProductClass.TWO_PLUS_DOUBLE in seen


def test_product_class_heavy_side(z17):
    pp = sf.phi_psi(z17)
    for s in z17.nondiagonal():
        t = pp.phi[s]
        cls = sf.product_class(z17, pp, s, t)
        if pp.phi[t] == s:
            assert cls is ProductClass.TWO_TWO
        else:
            # t = phi(s) doubles the s side of the product
            assert cls is ProductClass.TWO_PLUS_DOUBLE
            assert z17.tensor.c[s, t, s] == 2


def test_verify_structure_battery(battery):
    for name, scheme in battery.items():
        report = sf.verify_structure_lemmas(scheme)
        assert report.passed, (name, report.violations)


def test_verify_structure_counts(z29):
    report = sf.verify_structure_lemmas(z29)
    assert report.checked["square-dichotomy"] == 7
    assert report.checked["product-trichotomy"] == 42
    assert report.checked["phi-psi-bijections"] == 7
    assert report.checked["four-product-partner"] == 7


def test_verify_structure_counts_v25(v25):
    report = sf.verify_structure_lemmas(v25)
    assert report.checked["independent-product-split"] == 15
    assert report.checked["four-product-partner"] == 6


def test_verify_structure_rejects_other_valency(v25):
    triangle = sf.from_matrix(np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))
    with pytest.raises(sf.NotFourEquivalenced):
        sf.verify_structure_lemmas(triangle)


def test_corrupted_tensor_flags_violations(z13):
    bumped = z13.tensor.c.copy()
    bumped[1, 1, 2] += 1
    broken = _with_tensor(z13, bumped)
    report = sf.verify_structure_lemmas(broken)
    assert not report.passed
    assert any("square-dichotomy" in v for v in report.violations)


def test_report_builds_phi_psi_once(z13, monkeypatch):
    # the report reads phi/psi off the structure sweep
    calls = []
    build = products.phi_psi

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(products, "phi_psi", counting)
    build_report(z13, "z13")
    assert len(calls) == 1


def test_report_names_the_failed_square(z13):
    bumped = z13.tensor.c.copy()
    bumped[1, 1, 2] += 1
    broken = _with_tensor(z13, bumped)
    with pytest.raises(sf.DichotomyViolation) as err:
        sf.phi_psi(broken)
    checks = {c.name: c for c in build_report(broken, "broken").checks}
    assert (checks["square-dichotomy"].status, checks["square-dichotomy"].detail) == (
        "fail", str(err.value))


def test_four_product_partner_z17(z17):
    # rank 5: every non-diagonal color has a partner with a 4-color product
    for u in z17.nondiagonal():
        partners = [
            v
            for v in z17.nondiagonal()
            if len(sf.complex_product(z17, {u}, {v}) - {0}) == 4
            or len(sf.complex_product(z17, {u}, {v})) == 4
        ]
        assert partners


def test_split_products_v25(v25):
    pp = sf.phi_psi(v25)
    for s in v25.nondiagonal():
        for t in v25.nondiagonal():
            if t <= s or not sf.wr(v25, s, t):
                continue
            prod = sf.complex_product(v25, {s}, {t})
            assert len(prod) == 4
            assert prod.isdisjoint(sf.closure(v25, {s}) | sf.closure(v25, {t}))
            # norm of an independent product: 4 colors, coefficient 1 each
            assert oracles.product_inner(v25, s, t, s, t) == 16


def _same_report(scheme):
    report = sf.verify_structure_lemmas(scheme)
    expected = oracles.structure_lemmas_by_pairs(scheme)
    assert report.violations == expected.violations
    assert list(report.checked.items()) == list(expected.checked.items())
    assert report.pp == expected.pp
    return report


def test_sweep_matches_pair_oracle(battery, c53, c101, v125, c197, f9, f9_squared):
    schemes = dict(battery, c53=c53, c101=c101, v125=v125, c197=c197, f9=f9,
                   f9_squared=f9_squared)
    for name, scheme in schemes.items():
        assert _same_report(scheme).passed, name


def _with_tensor(scheme, c):
    """The scheme's matrix and dual with c in place of the tensor they count."""
    broken = sf.Scheme(scheme.color, scheme.dual)
    broken.__dict__["tensor"] = sf.IntersectionTensor(c)
    return broken


def _support_kept_corruption(scheme, seed):
    """Move one unit between two non-zero entries of some c[s, t, .] with s, t
    non-diagonal, bump one such entry, or negate it; every support stays."""
    rng = np.random.default_rng(seed)
    c = scheme.tensor.c.copy()
    s, t = (int(x) for x in rng.integers(1, scheme.r, size=2))
    support = np.flatnonzero(c[s, t])
    donors = support[c[s, t, support] > 1]
    kind = rng.integers(3)
    if kind == 0 and len(support) > 1 and len(donors):
        u = int(rng.choice(donors))
        v = int(rng.choice(support[support != u]))
        c[s, t, u] -= 1
        c[s, t, v] += 1
    elif kind == 1:
        c[s, t, int(rng.choice(support))] *= -1
    else:
        c[s, t, int(rng.choice(support))] += 1
    assert ((c != 0) == (scheme.tensor.c != 0)).all()
    return _with_tensor(scheme, c)


@pytest.mark.parametrize("seed", range(18))
def test_sweep_matches_pair_oracle_on_corruptions(z17, z29, v25, c53, f9, f9_squared, seed):
    scheme = (z17, z29, v25, c53, f9, f9_squared)[seed % 6]
    assert not _same_report(_support_kept_corruption(scheme, seed)).passed


def test_phi_related_pair_with_four_distinct_factors(z17, c53):
    # s and t = phi(s) multiply as 1+1+2; spread the double over a new
    # color, so the product has four distinct factors of total 4 while the
    # phi relation still holds
    for scheme in (z17, c53):
        pp = sf.phi_psi(scheme)
        s = min(pp.s3)
        t = pp.phi[s]
        c = scheme.tensor.c.copy()
        assert sorted(c[s, t][c[s, t] > 0].tolist()) == [1, 1, 2]
        c[s, t, c[s, t] == 2] = 1
        c[s, t, np.flatnonzero(c[s, t, 1:] == 0)[0] + 1] = 1
        report = _same_report(_with_tensor(scheme, c))
        assert report.violations == [
            "product-trichotomy: product of colors %d,%d: four distinct factors but a phi "
            "relation holds" % (s, t)]


def test_verify_structure_counts_f9_squared(f9_squared):
    report = sf.verify_structure_lemmas(f9_squared)
    assert report.checked["independent-product-split"] == 180
    assert report.checked["split-intersection-bound"] == 180


def test_independent_product_moved_into_a_closure(f9_squared):
    scheme = f9_squared
    s, t = 1, 3
    assert sf.wr(scheme, s, t)
    for target in (s, t):
        c = scheme.tensor.c.copy()
        w = int(np.flatnonzero(c[s, t])[0])
        c[s, t, target], c[s, t, w] = c[s, t, w], 0
        report = _same_report(_with_tensor(scheme, c))
        assert ("independent-product-split: product of %d,%d meets a closure" % (s, t)
                in report.violations)


def test_split_products_sharing_two_colors(f9_squared):
    scheme = f9_squared
    pp = sf.phi_psi(scheme)
    s, t = 1, 3
    assert sf.wr(scheme, s, t) and {s, t} <= pp.s3
    c = scheme.tensor.c.copy()
    shared = np.flatnonzero(c[pp.phi[t], pp.phi[s]])[:2]
    c[pp.psi[t], pp.psi[s], shared] = 1
    report = _same_report(_with_tensor(scheme, c))
    assert ("split-intersection-bound: colors %d,%d share %s" % (s, t, shared.tolist())
            in report.violations)


def test_closure_matches_products_oracle(battery, c53, v125, f9):
    for scheme in (*battery.values(), c53, v125, f9):
        for s in range(scheme.r):
            assert sf.closure(scheme, {s}) == oracles.closure_by_products(scheme, {s})


@given(st.data())
def test_closure_of_color_sets_matches_products_oracle(battery, c53, v125, data):
    scheme = data.draw(st.sampled_from([*battery.values(), c53, v125]))
    colors = data.draw(st.sets(st.integers(0, scheme.r - 1), max_size=4))
    assert sf.closure(scheme, colors) == oracles.closure_by_products(scheme, colors)


def test_closure_rejects_unknown_color(z13):
    for bad in (-1, z13.r):
        with pytest.raises(ValueError, match="no such color"):
            sf.closure(z13, {1, bad})


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def test_sweep_makes_no_per_pair_calls(tmp_path, c101, v125, c197, capsys, monkeypatch):
    paths = {}
    for name, scheme in (("c101", c101), ("v125", v125), ("c197", c197)):
        paths[name] = str(tmp_path / ("%s.asc" % name))
        sf.save_asc(scheme, paths[name])
    for name in ("complex_product", "closure", "product_class"):
        monkeypatch.setattr(products, name, _refuse)
    assert run(["lemmas", "--json", paths["c197"]]) == 0
    assert run(["report", "--json", paths["c101"]]) == 0
    assert run(["report", "--json", paths["v125"]]) == 0
    capsys.readouterr()


def test_flagged_pairs_reach_product_class(z29, monkeypatch):
    broken = _support_kept_corruption(z29, 4)
    calls = []

    def recording(scheme, pp, s, t):
        calls.append((s, t))
        return sf.product_class(scheme, pp, s, t)

    monkeypatch.setattr(products, "product_class", recording)
    report = sf.verify_structure_lemmas(broken)
    named = [v for v in report.violations if v.startswith("product-trichotomy")]
    assert named
    assert named == [v for v in oracles.structure_lemmas_by_pairs(broken).violations
                     if v.startswith("product-trichotomy")]
    for message in named:
        s, t = message.split("colors ")[1].split(":")[0].split(",")
        assert (int(s), int(t)) in calls
    assert len(calls) < (z29.r - 1) * (z29.r - 2)


def test_sweep_allocates_no_int64_cube(c197):
    sf.verify_structure_lemmas(c197)
    tracemalloc.start()
    try:
        sf.verify_structure_lemmas(c197)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < c197.tensor.c.nbytes


def test_support_changes_flagged(z17, f9, f9_squared):
    # each case grows supports without changing any closure, so both
    # sweeps agree and must name the change
    c = f9.tensor.c.copy()
    assert sf.product_class(f9, sf.phi_psi(f9), 1, 2) is ProductClass.TWO_TWO
    c[1, 2, 0] = 1
    report = _same_report(_with_tensor(f9, c))
    assert any(v.startswith("product-trichotomy: product of colors 1,2")
               for v in report.violations)

    c = z17.tensor.c.copy()
    for v in z17.nondiagonal():
        if np.count_nonzero(c[1, v]) == 4:
            c[1, v, np.flatnonzero(c[1, v] == 0)[0]] = 1
    report = _same_report(_with_tensor(z17, c))
    assert "four-product-partner: color 1 has no partner with |uv| = 4" in report.violations

    c = f9_squared.tensor.c.copy()
    seen = sf.closure(f9_squared, {1}) | sf.closure(f9_squared, {3})
    c[1, 3, min(set(np.flatnonzero(c[1, 3] == 0).tolist()) - seen)] = 1
    report = _same_report(_with_tensor(f9_squared, c))
    assert "independent-product-split: |1.3| = 5" in report.violations
