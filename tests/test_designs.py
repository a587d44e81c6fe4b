from collections import Counter

import numpy as np
import pytest

import scheme_forge as sf

import oracles


def test_battery_designs(battery):
    blocks = {"z5": 5, "z13": 39, "z17": 68, "z29": 203, "v25": 150}
    for name, scheme in battery.items():
        design = sf.scheme_to_design(scheme)
        assert design.n == scheme.n
        assert len(design.blocks) == blocks[name]
        assert all(len(frozenset(b)) == 4 for b in design.blocks.tolist())
        assert sf.verify_design(design, k=4, lam=3)
        assert oracles.blocks_by_pair_count(design, t=2, lam=3)


def test_block_count_formula(battery):
    # n points, one block per (point, color) pair
    for scheme in battery.values():
        design = sf.scheme_to_design(scheme)
        assert len(design.blocks) == scheme.n * (scheme.r - 1)


def test_rank_two_blocks_are_point_complements(z5):
    design = sf.scheme_to_design(z5)
    expected = {frozenset(set(range(5)) - {alpha}) for alpha in range(5)}
    assert {frozenset(b) for b in design.blocks.tolist()} == expected


def test_pair_count_equals_indistinguishing(z13):
    # the 3 blocks through a pair match its indistinguishing number
    design = sf.scheme_to_design(z13)
    for x in range(z13.n):
        for y in range(x + 1, z13.n):
            hits = sum(1 for b in design.blocks if x in b and y in b)
            assert hits == sf.indistinguishing_number(z13, int(z13.color[x, y]))


def test_rejects_other_valency():
    triangle = sf.from_matrix(np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))
    with pytest.raises(sf.NotFourEquivalenced):
        sf.scheme_to_design(triangle)


def test_verify_design_rejects_wrong_lambda(z13):
    design = sf.scheme_to_design(z13)
    assert not sf.verify_design(design, k=4, lam=2)


def test_verify_design_rejects_uneven_pair_counts():
    # 6 blocks of 2 meet the counting identity 6 * 1 == 2 * 3 and cover all
    # three pairs, but {0,1} lies in 3 blocks, {0,2} in 1 and {1,2} in 2
    design = sf.BlockDesign(3, np.array([[0, 1], [0, 1], [0, 1], [0, 2], [1, 2], [1, 2]]))
    assert not sf.verify_design(design, k=2, lam=2)
    assert not oracles.blocks_by_pair_count(design, t=2, lam=2)


def test_verify_design_rejects_missing_block(z13):
    design = sf.scheme_to_design(z13)
    clipped = sf.BlockDesign(design.n, design.blocks[:-1])
    assert not sf.verify_design(clipped, k=4, lam=3)


def test_verify_design_rejects_wrong_block_size(z13):
    # the old tamper {0, 1, 2} as a row of four: point 2 repeats
    design = sf.scheme_to_design(z13)
    blocks = design.blocks.copy()
    blocks[-1] = [0, 1, 2, 2]
    assert not sf.verify_design(sf.BlockDesign(design.n, blocks), k=4, lam=3)


def _frozenset_design(scheme):
    """The design as the old frozenset blocks, read row by row off the scheme."""
    blocks = tuple(frozenset(scheme.row(x, s).tolist())
                   for x in range(scheme.n) for s in scheme.nondiagonal())
    return sf.BlockDesign(scheme.n, blocks)


@pytest.mark.parametrize("name", ["z5", "z13", "z17", "z29", "v25", "c53", "f9", "z29-relabelled"])
def test_array_design_matches_frozenset_blocks(name, request):
    if name == "z29-relabelled":
        z29 = request.getfixturevalue("z29")
        perm = np.random.default_rng(29).permutation(z29.n)
        scheme = sf.from_matrix(z29.color[np.ix_(perm, perm)])
    else:
        scheme = request.getfixturevalue(name)
    design = sf.scheme_to_design(scheme)
    old = _frozenset_design(scheme)
    assert design.blocks.shape == (scheme.n * (scheme.r - 1), 4)
    assert not design.blocks.flags.writeable
    assert Counter(map(frozenset, design.blocks.tolist())) == Counter(old.blocks)
    # block for block in (point, color) order, each sorted
    assert design.blocks.tolist() == [sorted(b) for b in old.blocks]
    verdict = all(len(b) == 4 for b in old.blocks) and oracles.blocks_by_pair_count(old, t=2, lam=3)
    assert verdict
    assert sf.verify_design(design) == verdict == oracles.blocks_by_pair_count(design, t=2, lam=3)


def _with_entry(design, value):
    blocks = design.blocks.copy()
    blocks[0, 0] = value
    return sf.BlockDesign(design.n, blocks)


def test_verify_design_rejects_bad_arrays(z13):
    design = sf.scheme_to_design(z13)
    assert sf.verify_design(design)
    assert not sf.verify_design(sf.BlockDesign(design.n, design.blocks[:, :3]))
    assert not sf.verify_design(sf.BlockDesign(design.n, design.blocks.ravel()))
    assert not sf.verify_design(sf.BlockDesign(design.n, design.blocks.astype(float)))
    assert not sf.verify_design(_with_entry(design, design.n))
    assert not sf.verify_design(_with_entry(design, -1))
    assert not sf.verify_design(design, lam=2)


@pytest.mark.parametrize("row", [[2, 2], [0, 5], [-1, 8]])
def test_no_bad_row_stands_in_for_a_missing_pair(row):
    # code x * 3 + y of (2, 2) is 8, of (0, 5) and (-1, 8) it is 5 = code of {1, 2}:
    # each fills the place of the missing {1, 2} unless its points are refused
    good = sf.BlockDesign(3, np.array([[0, 1], [0, 2], [1, 2]]))
    bad = sf.BlockDesign(3, np.array([[0, 1], [0, 2], row]))
    assert sf.verify_design(good, k=2, lam=1)
    assert not sf.verify_design(bad, k=2, lam=1)


def test_counting_identity_rejects_huge_n_before_coding(z13, monkeypatch):
    # 2**40 points would need 3 * C(2**40, 2) blocks; z13 has 39, and no
    # pair code (which would need an object array past 2**63) is built
    def no_codes(*args, **kwargs):
        raise AssertionError("pair codes were counted")

    monkeypatch.setattr(np, "unique", no_codes)
    blocks = sf.scheme_to_design(z13).blocks
    assert not sf.verify_design(sf.BlockDesign(2**40, blocks))
    # lam = 0 meets the identity with no blocks at any n, where x * n would not fit
    assert not sf.verify_design(sf.BlockDesign(2**70, blocks[:0]), lam=0)
