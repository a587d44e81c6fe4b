"""The sort-based constancy check against the r^2-matmul oracle.

Equal tensors on valid schemes; on corrupted ones the same
NonConstantIntersection fields and message, including a corruption that
only the last row block can see and one that only a reference pair in
another block can show.  oracles.validate_configuration runs the same
check without building a tensor.  validate checks one row per orbit of
the automorphisms that a search of at most n stack pops finds: one row
on the ladder, the oracle's outcome everywhere.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import scheme_forge as sf
from scheme_forge import autsearch, fission, groups, scheme_core

import oracles


@pytest.fixture(scope="session")
def corruptible(battery, c53):
    return {name: battery[name] for name in ("z13", "z17", "z29", "v25")} | {"c53": c53}


def _outcome(call):
    try:
        return call()
    except (ValueError, sf.DualViolation, sf.NonConstantIntersection) as exc:
        return exc


def _assert_same_outcome(color, r):
    expected = _outcome(lambda: oracles.constancy_by_matmul(color, r))
    dual = np.array([int(color.T[color == s][0]) for s in range(r)])
    got = _outcome(lambda: sf.validate(len(color), r, color, dual).tensor.c)
    if isinstance(expected, sf.NonConstantIntersection):
        assert isinstance(got, sf.NonConstantIntersection)
        fields = ("s", "t", "u", "pair", "expected", "got")
        assert [getattr(got, f) for f in fields] == [getattr(expected, f) for f in fields]
        assert str(got) == str(expected)
    else:
        assert np.array_equal(got, expected)
    return got


def _swap(color, first, second):
    """Exchange the colors of two pairs and of their transposes."""
    (x, y), (a, b) = first, second
    fwd, back = color[x, y], color[y, x]
    color[x, y], color[y, x] = color[a, b], color[b, a]
    color[a, b], color[b, a] = fwd, back


def test_tensor_matches_matmul_oracles(battery, c53, c101, v125):
    # test_scheme_core compares the battery with tensor_by_matmul
    for scheme in (c53, c101, v125):
        assert np.array_equal(scheme.tensor.c, oracles.tensor_by_matmul(scheme))
    for scheme in (*battery.values(), c53):
        assert np.array_equal(scheme.tensor.c, oracles.constancy_by_matmul(scheme.color, scheme.r))


@given(data=st.data())
def test_corruption_matches_oracle(corruptible, data):
    name = data.draw(st.sampled_from(sorted(corruptible)))
    scheme = corruptible[name]
    off_diagonal = st.tuples(st.integers(0, scheme.n - 1), st.integers(1, scheme.n - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % scheme.n))
    bad = scheme.color.copy()
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            _swap(bad, data.draw(off_diagonal), data.draw(off_diagonal))
        else:
            x, y = data.draw(off_diagonal)
            s = data.draw(st.integers(1, scheme.r - 1))
            bad[x, y], bad[y, x] = s, scheme.dual[s]
    assume(len(np.unique(bad)) == scheme.r)
    _assert_same_outcome(bad, scheme.r)


def test_corruption_seen_only_by_last_block(c197):
    # the last point swaps the colors of two points of the last block
    n = c197.n
    assert np.min_scalar_type(c197.r**2 - 1).itemsize == 2
    rows = scheme_core._BLOCK_BYTES // (n * n * 2)
    assert rows < n
    bad = c197.color.copy()
    _swap(bad, (n - 1, rows), (n - 1, rows + 1))
    assert bad[n - 1, rows] != c197.color[n - 1, rows]
    exc = _assert_same_outcome(bad, c197.r)
    assert isinstance(exc, sf.NonConstantIntersection)
    assert exc.pair[0] >= rows


def test_corruption_seen_only_across_blocks(z13, monkeypatch):
    # Merge two colors of a fission whose pairs start in disjoint rows and
    # end in disjoint columns, and merge their transposes.  With one row per
    # block, each block is consistent on its own: only the reference codes
    # of a first pair in another block show the fault.
    monkeypatch.setattr(scheme_core, "_BLOCK_BYTES", 1)
    cc = sf.point_fission(z13, (0,))
    color, dual = cc.color, scheme_core._scan_dual(cc.color, cc.num_colors)
    ends = [(set(xs), set(ys)) for xs, ys in (np.nonzero(color == s) for s in range(cc.num_colors))]
    u = 1
    v = next(v for v in range(u + 1, cc.num_colors)
             if v not in (dual[u], *color.diagonal()) and (dual[v] == v) == (dual[u] == u)
             and not ends[u][0] & ends[v][0] and not ends[u][1] & ends[v][1])
    bad = color.copy()
    bad[bad == v] = u
    bad[bad == dual[v]] = dual[u]
    bad = sf.canonical_relabel(bad)
    r = int(bad.max()) + 1
    codes = np.sort(bad[:, None, :] * r + bad.T[None, :, :], axis=2)
    for x in range(cc.n):
        for s in np.unique(bad[x]):
            assert (codes[x, bad[x] == s] == codes[x, np.argmax(bad[x] == s)]).all()
    with pytest.raises(sf.NonConstantIntersection) as expected:
        oracles.constancy_by_matmul(bad, r)
    with pytest.raises(sf.NonConstantIntersection) as caught:
        oracles.validate_configuration(fission.CoherentConfiguration(bad, r))
    fields = ("s", "t", "u", "pair", "expected", "got")
    assert [getattr(caught.value, f) for f in fields] == [getattr(expected.value, f) for f in fields]
    assert str(caught.value) == str(expected.value)
    assert caught.value.pair[0] != np.argwhere(bad == caught.value.u)[0][0]


def _assert_dual_scan_matches_sort(color, r):
    expected = _outcome(lambda: scheme_core._dual_by_sort(color, r))
    got = _outcome(lambda: scheme_core._scan_dual(color, r))
    if isinstance(expected, np.ndarray):
        assert np.array_equal(got, expected)
    else:
        assert type(got) is type(expected) and str(got) == str(expected)


@given(data=st.data())
def test_dual_scan_matches_oracle(corruptible, data):
    scheme = corruptible[data.draw(st.sampled_from(sorted(corruptible)))]
    bad = scheme.color.copy()
    for _ in range(data.draw(st.integers(0, 3))):
        x, y = data.draw(st.integers(0, scheme.n - 1)), data.draw(st.integers(0, scheme.n - 1))
        bad[x, y] = data.draw(st.integers(0, scheme.r - 1))
    expected = _outcome(lambda: oracles.dual_by_colors(bad, scheme.r))
    got = _outcome(lambda: scheme_core._scan_dual(bad, scheme.r))
    if isinstance(expected, np.ndarray):
        assert np.array_equal(got, expected)
    else:
        assert type(got) is type(expected) and str(got) == str(expected)
    _assert_dual_scan_matches_sort(bad, scheme.r)


def test_dual_scan_reads_valid_schemes_off_first_pairs(battery, c53, monkeypatch):
    # the candidate from the first pairs passes on every scheme, so the sort
    # of all pairs is not needed
    sort = scheme_core._dual_by_sort
    monkeypatch.setattr(scheme_core, "_dual_by_sort", None)
    for scheme in (*battery.values(), c53):
        assert np.array_equal(scheme_core._scan_dual(scheme.color, scheme.r),
                              sort(scheme.color, scheme.r))


def test_dual_scan_matches_sort_on_seeded_corruptions(v125, c197, random_graph):
    # the corruptions of the seeded, rotation and random-graph tests above,
    # and one-sided changes that break the transpose pairing
    cases = [(random_graph(n, n), 3) for n in (40, 60, 200)]
    for scheme in (v125, c197):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            bad = scheme.color.copy()
            first, second = (tuple(rng.choice(scheme.n, 2, replace=False)) for _ in range(2))
            _swap(bad, first, second)
            cases.append((bad.copy(), scheme.r))
            bad[first] = (bad[first] % (scheme.r - 1)) + 1
            cases.append((bad, scheme.r))
    n, g = c197.n, groups._least_order_four_unit(c197.n)
    bad = c197.color.copy()
    for k in range(4):
        m = pow(g, k, n)
        _swap(bad, (3 * m % n, 10 * m % n), (5 * m % n, 7 * m % n))
    cases.append((bad, c197.r))
    unused = c197.color.copy()
    unused[unused == 1] = 2
    cases.append((unused, c197.r))
    for color, r in cases:
        _assert_dual_scan_matches_sort(color, r)


def test_fiber_check_matches_oracle(z13, monkeypatch):
    # merging two colors of a fission breaks constancy first, so the
    # earlier checks are skipped to reach the fiber checks
    monkeypatch.setattr(oracles, "_scan_dual", lambda color, num: None)
    monkeypatch.setattr(oracles, "_check_constancy", lambda color, num: None)
    cc = sf.point_fission(z13, (0,))
    messages = set()
    for u, v in itertools.combinations(range(cc.num_colors), 2):
        bad = cc.color.copy()
        bad[bad == v] = u
        bad = sf.canonical_relabel(bad)
        num = cc.num_colors - 1
        expected = oracles.fiber_error_by_colors(bad, num)
        try:
            oracles.validate_configuration(fission.CoherentConfiguration(bad, num))
            got = None
        except sf.SchemeForgeError as exc:
            got = str(exc)
        assert got == expected, (u, v)
        messages.add(got.split()[-1] if got else None)
    assert messages == {None, "fibers", "diagonal"}


def test_validate_c53_one_point_fission(c53):
    cc = sf.point_fission(c53, (0,))
    assert cc.num_colors == 703
    tracemalloc.start()
    try:
        oracles.validate_configuration(cc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an (r, r, r) tensor of 703 colors would take 2.8 GB
    assert peak < 64 * 2**20


@pytest.mark.parametrize("name", ["z13", "c53"])
def test_corrupted_configuration_raises(battery, c53, name):
    scheme = c53 if name == "c53" else battery[name]
    cc = sf.point_fission(scheme, (0,))
    bad = cc.color.copy()
    _swap(bad, (1, 2), (1, 3))
    assert bad[1, 2] != cc.color[1, 2]
    broken = fission.CoherentConfiguration(bad, cc.num_colors)
    with pytest.raises(sf.NonConstantIntersection) as caught:
        oracles.validate_configuration(broken)
    if name == "z13":
        with pytest.raises(sf.NonConstantIntersection) as expected:
            oracles.constancy_by_matmul(bad, cc.num_colors)
        assert str(caught.value) == str(expected.value)


def _rows_checked(monkeypatch):
    """The rows whose path codes validation sorts, in order."""
    rows = []
    original = scheme_core._path_code_blocks

    def recording(*args):
        for block in original(*args):
            rows.extend(block[0].tolist())
            yield block

    monkeypatch.setattr(scheme_core, "_path_code_blocks", recording)
    return rows


def _search_nodes(monkeypatch):
    """The stack pops of the capped search, failing past n of them: each
    pop, inner node or leaf, finds its cells one level down from its
    parent's (the level loop reads the base's own cells)."""
    pops = []
    descend = autsearch._descend

    def counting(step, parent, row):
        pops.append(row)
        assert len(pops) <= len(row), "more than n search nodes"
        return descend(step, parent, row)

    monkeypatch.setattr(autsearch, "_descend", counting)
    return pops


@pytest.mark.parametrize("name", ["c53", "c101", "v125", "c197"])
def test_valid_read_checks_one_row(request, name, monkeypatch):
    scheme = request.getfixturevalue(name)
    points = np.random.default_rng(scheme.n).permutation(scheme.n)
    color = np.empty_like(scheme.color)
    color[np.ix_(points, points)] = scheme.color
    text = "%d %d\n" % (scheme.n, scheme.r) + "".join(
        " ".join(map(str, row)) + "\n" for row in color.tolist())
    rows = _rows_checked(monkeypatch)
    read = sf.read_asc(text)
    assert rows == [0]
    assert np.array_equal(read.tensor.c, scheme.tensor.c)


@pytest.mark.parametrize("name,seed", [(name, seed) for name in ("v125", "c197")
                                       for seed in range(4)])
def test_seeded_corruption_matches_oracle(request, name, seed):
    scheme = request.getfixturevalue(name)
    rng = np.random.default_rng(seed)
    bad = scheme.color.copy()
    for _ in range(1 + seed % 2):
        first, second = (tuple(rng.choice(scheme.n, 2, replace=False)) for _ in range(2))
        if seed < 2:
            _swap(bad, first, second)
        else:
            s = int(rng.integers(1, scheme.r))
            bad[first], bad[first[::-1]] = s, scheme.dual[s]
    assert not np.array_equal(bad, scheme.color)
    assert isinstance(_assert_same_outcome(bad, scheme.r), sf.NonConstantIntersection)


def test_corruption_kept_by_a_rotation_matches_oracle(c197, monkeypatch):
    # swap the colors of two pairs and of their images under the rotation
    # x -> g x at 0, which stays an automorphism, so its orbits are checked
    # one row each
    n, g = c197.n, groups._least_order_four_unit(c197.n)
    bad = c197.color.copy()
    for k in range(4):
        m = pow(g, k, n)
        _swap(bad, (3 * m % n, 10 * m % n), (5 * m % n, 7 * m % n))
    assert bad[3, 10] != c197.color[3, 10]
    rows = _rows_checked(monkeypatch)
    assert isinstance(_assert_same_outcome(bad, c197.r), sf.NonConstantIntersection)
    assert len(rows) <= 1 + (n - 1) // 4


@pytest.mark.parametrize("name", ["f9", "shrikhande", "rook", "paley13"])
def test_small_transitive_schemes_match_oracle(request, name, monkeypatch):
    # the capped search finds part of Aut, so some rows but not all are checked
    scheme = request.getfixturevalue(name)
    rows = _rows_checked(monkeypatch)
    tensor = _assert_same_outcome(scheme.color, scheme.r)
    assert np.array_equal(tensor, oracles.tensor_by_matmul(scheme))
    assert rows[0] == 0 and len(rows) < scheme.n


@pytest.mark.parametrize("n", [40, 60, 200])
def test_search_stops_at_n_nodes(random_graph, n, monkeypatch):
    # a random graph has no automorphism but the identity, and the search
    # for one can take exponential time; it stops after n pops
    pops = _search_nodes(monkeypatch)
    exc = _assert_same_outcome(random_graph(n, n), 3)
    assert isinstance(exc, sf.NonConstantIntersection)
    assert len(pops) == n


@pytest.mark.parametrize("name,capped", [("k400", True), ("k12", True), ("k12", False),
                                         ("random40", True), ("random200", True),
                                         ("c53", True), ("v25", False), ("v125", False)])
def test_search_finds_the_generators_of_the_image_search(request, random_graph, name,
                                                         capped):
    # each node's cells come from its parent's in one lookup, where the
    # replaced search compared all its base images; the nodes, their order
    # and so the generators are the same, with or without the cap of n pops
    if name.startswith("k"):
        n, r = int(name[1:]), 2
        color = 1 - np.eye(n, dtype=np.int64)
    elif name.startswith("random"):
        n, r = int(name[6:]), 3
        color = random_graph(n, n)
    else:
        scheme = request.getfixturevalue(name)
        n, r, color = scheme.n, scheme.r, scheme.color
    gens = []
    try:
        for _ in autsearch._levels(color, autsearch._resolving_base(color, r), gens,
                                   iter(range(n)) if capped else None):
            pass
    except autsearch.OutOfNodes:
        assert capped
    assert gens == oracles.generators_by_base_images(color, r, capped)
    if name == "k400":
        assert len(gens) == 27


def test_complete_graph_validates_past_the_group_bound():
    # Aut(K_12) = Sym(12) has more than DEFAULT_BOUND elements; validation
    # searches without a bound
    color = 1 - np.eye(12, dtype=np.int64)
    scheme = sf.validate(12, 2, color, [0, 1])
    assert np.array_equal(scheme.tensor.c, oracles.tensor_by_matmul(scheme))
    with pytest.raises(sf.BoundExceeded):
        sf.automorphism_group(scheme)
