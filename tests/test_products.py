import dataclasses

import numpy as np
import pytest

import scheme_forge as sf
from scheme_forge.products import ProductClass


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
    broken = dataclasses.replace(z13, tensor=sf.IntersectionTensor(bumped))
    report = sf.verify_structure_lemmas(broken)
    assert not report.passed
    assert any("square-dichotomy" in v for v in report.violations)


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
            assert sf.product_inner(v25, s, t, s, t) == 16
