import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import scheme_forge as sf
from scheme_forge import scheme_core

import oracles


# --- validation ---


def test_validate_battery(battery):
    for scheme in battery.values():
        again = sf.validate(scheme.n, scheme.r, scheme.color, scheme.dual)
        assert np.array_equal(again.color, scheme.color)
        assert np.array_equal(again.valencies, scheme.valencies)


def test_rank_two_triangle():
    color = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)
    scheme = sf.from_matrix(color)
    assert scheme.r == 2
    assert sf.is_k_equivalenced(scheme) == 2
    assert sf.is_pseudocyclic(scheme)


def test_single_point():
    scheme = sf.from_matrix(np.zeros((1, 1), dtype=np.int64))
    assert scheme.n == 1 and scheme.r == 1
    assert sf.is_symmetric(scheme)


def test_diagonal_violation():
    color = np.zeros((3, 3), dtype=np.int64)
    color[0, 1] = color[1, 0] = color[0, 2] = color[2, 0] = color[1, 2] = color[2, 1] = 1
    color[1, 1] = 1  # diagonal must be color 0 everywhere
    with pytest.raises(sf.DiagonalViolation):
        sf.from_matrix(color)


def test_offdiagonal_zero_rejected():
    color = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)
    color[0, 1] = color[1, 0] = 0
    with pytest.raises(sf.DiagonalViolation):
        sf.from_matrix(color)


def test_dual_violation():
    # the transpose of color 1 hits both colors 1 and 2 -> no pairing
    color = np.array(
        [
            [0, 1, 1, 2],
            [1, 0, 2, 1],
            [2, 1, 0, 1],
            [1, 2, 1, 0],
        ],
        dtype=np.int64,
    )
    assert color[0, 2] == 1 and color[2, 0] == 2 and color[0, 1] == color[1, 0] == 1
    with pytest.raises(sf.DualViolation):
        sf.from_matrix(color)


def test_validate_scans_the_dual_before_the_diagonal():
    # a transpose fault and a diagonal fault: DualViolation, as from_matrix raises
    color = np.array([[0, 1, 1, 2], [1, 2, 2, 1], [2, 1, 0, 1], [1, 2, 1, 0]])
    for check in (sf.from_matrix, lambda m: sf.validate(4, 3, m, [0, 1, 2])):
        with pytest.raises(sf.DualViolation):
            check(color)


# the thin scheme of Z_3: color(x, y) = y - x, so color 1 is dual to 2
THIN3 = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]


@pytest.mark.parametrize("dual, least", [
    ([1, 0, 2], 0),  # the diagonal color is not its own dual
    ([0, 2, 2], 2),  # not an involution
    ([0, 1, 2], 1),  # an involution, but not the transpose pairing
], ids=("diagonal", "involution", "pairing"))
def test_validate_rejects_a_wrong_given_dual(dual, least):
    assert sf.validate(3, 3, THIN3, [0, 2, 1]).dual.tolist() == [0, 2, 1]
    with pytest.raises(sf.DualViolation, match="^given dual of color %d is " % least):
        sf.validate(3, 3, THIN3, dual)


def test_scheme_is_its_matrix_dual_and_tensor(battery, c53, f9):
    assert [f.name for f in dataclasses.fields(sf.Scheme)] == ["color", "dual"]
    for scheme in (*battery.values(), c53, f9):
        r = len(scheme.dual)
        assert (scheme.n, scheme.r) == (scheme.color.shape[0], r)
        assert np.array_equal(scheme.valencies, scheme.tensor.c[np.arange(r), scheme.dual, 0])


@pytest.mark.parametrize("args, message", [
    ((0, 3, THIN3, [0, 2, 1]), "need at least one point and one color"),
    ((3, 0, THIN3, [0, 2, 1]), "need at least one point and one color"),
    ((3, 3, [[0, 1], [1, 0]], [0, 2, 1]), "color matrix is not 3 x 3"),
    ((3, 3, [[0, 1, 3], [2, 0, 1], [1, 2, 0]], [0, 2, 1]), "color entries must lie in 0..2"),
    ((3, 3, [[0, 1, -1], [2, 0, 1], [1, 2, 0]], [0, 2, 1]), "color entries must lie in 0..2"),
    ((3, 3, THIN3, [0, 2]), "dual must assign one color to each of 3 colors"),
    ((3, 3, THIN3, [0, 2, 3]), "dual entries must lie in 0..2"),
    ((3, 3, THIN3, [0, -1, 1]), "dual entries must lie in 0..2"),
])
def test_validate_rejects_out_of_range_arguments(args, message):
    with pytest.raises(ValueError) as err:
        sf.validate(*args)
    assert type(err.value) is ValueError and str(err.value) == message


@pytest.mark.parametrize("matrix, message", [
    (np.zeros((2, 3), dtype=np.int64), "color matrix must be square"),
    (np.zeros((0, 0), dtype=np.int64), "need at least one point and one color"),
])
def test_from_matrix_rejects_a_matrix_that_is_not_square_or_empty(matrix, message):
    with pytest.raises(ValueError) as err:
        sf.from_matrix(matrix)
    assert type(err.value) is ValueError and str(err.value) == message


def test_nonconstant_intersection():
    # path-like coloring: adjacency of C4 plus its complement is fine, but
    # gluing an edge wrong breaks c(1,1,2)
    color = np.array(
        [
            [0, 1, 2, 1],
            [1, 0, 1, 2],
            [2, 1, 0, 1],
            [1, 2, 1, 0],
        ],
        dtype=np.int64,
    )
    good = sf.from_matrix(color)  # C4 + diagonals is a scheme
    assert good.r == 3
    bad = color.copy()
    bad[0, 2] = bad[2, 0] = 1
    bad[0, 1] = bad[1, 0] = 2
    with pytest.raises(sf.NonConstantIntersection):
        sf.from_matrix(bad)


def test_missing_color_index():
    color = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)
    color *= 2  # colors {0, 2}: index 1 never occurs
    with pytest.raises(ValueError):
        sf.validate(3, 3, color, np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="^color 1 never occurs$"):
        sf.from_matrix(color)


def test_negative_color_rejected():
    with pytest.raises(ValueError, match=r"^color entries must lie in 0\.\.1$"):
        sf.from_matrix(np.array([[0, 1], [-1, 0]]))


def test_canonical_relabel_first_occurrence():
    mat = np.array([[5, 7], [7, 5]])
    out = sf.canonical_relabel(mat)
    assert out.tolist() == [[0, 1], [1, 0]]


_LOW, _HIGH = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
# few distinct small values repeat often; the int64 extremes test the sort
_CODES = st.one_of(st.integers(-3, 3), st.integers(_LOW, _HIGH), st.sampled_from([_LOW, _HIGH]))


def _first_seen(values):
    """Each value numbered by its first occurrence, by a dict."""
    seen = {}
    return [seen.setdefault(v, len(seen)) for v in values], len(seen)


@given(st.lists(_CODES, max_size=60))
@example([])
@example([4] * 7)
@example(list(range(12)))
@example(list(range(12, 0, -1)))
@example([5, 7, 5, -1, 7, -1])
@example([_HIGH, _LOW, -1, _HIGH, 0, _LOW, -1])
def test_first_occurrence_rank_matches_a_dict_oracle(values):
    labels, count = scheme_core._first_occurrence_rank(np.array(values, dtype=np.int64))
    assert labels.dtype == np.int64
    assert (labels.tolist(), count) == _first_seen(values)


@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_canonical_relabel_matches_a_dict_oracle(rows, cols, data):
    values = data.draw(st.lists(_CODES, min_size=rows * cols, max_size=rows * cols))
    out = sf.canonical_relabel(np.array(values, dtype=np.int64).reshape(rows, cols))
    assert out.shape == (rows, cols)
    assert out.ravel().tolist() == _first_seen(values)[0]


# --- intersection numbers and derived quantities ---


def test_tensor_matches_matmul_oracle(battery):
    for scheme in battery.values():
        expected = oracles.tensor_by_matmul(scheme)
        assert np.array_equal(scheme.tensor.c, expected)


def test_tensor_call(z13):
    t = z13.tensor
    assert t(1, 1, 0) == 4


def test_valencies(battery):
    for scheme in battery.values():
        for s in range(scheme.r):
            assert sf.valency(scheme, s) == oracles.valency_by_rows(scheme, s)
        assert scheme.valencies[0] == 1


def test_k_equivalenced(battery):
    for scheme in battery.values():
        assert sf.is_k_equivalenced(scheme) == 4


def test_mixed_valency_not_equivalenced():
    # orbitals of the dihedral group on a 4-cycle: valencies 1, 2
    group = sf.PermGroup(4, ((1, 2, 3, 0), (0, 3, 2, 1)))
    scheme = sf.orbital_scheme(group)
    assert sorted(set(int(v) for v in scheme.valencies)) == [1, 2]
    assert sf.is_k_equivalenced(scheme) is None


def test_symmetry_and_commutativity(battery):
    for scheme in battery.values():
        assert sf.is_symmetric(scheme)
        assert sf.is_commutative(scheme)
        assert list(scheme.dual) == list(range(scheme.r))


def test_indistinguishing_numbers(battery):
    for scheme in battery.values():
        for s in scheme.nondiagonal():
            value = sf.indistinguishing_number(scheme, s)
            assert value == 3
            assert value == oracles.indistinguishing_by_count(scheme, s)
        assert oracles.scheme_indistinguishing(scheme) == 3
        assert sf.is_pseudocyclic(scheme)


def _thin_s3():
    """The thin scheme of Sym(3): color(x, y) is the index of x^-1 y among the
    sorted permutations, the identity first."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    inverse = [tuple(sorted(range(3), key=p.__getitem__)) for p in perms]
    return sf.from_matrix(np.array(
        [[index[tuple(inverse[x][y[i]] for i in range(3))] for y in perms] for x in range(6)]))


def test_matrix_readers_match_the_tensor_formulas(request):
    # is_commutative and indistinguishing_number read the color matrix; the
    # tensor gives c == c.transpose(1, 0, 2) and the sum of c(u, u*, s)
    names = ("z5", "z13", "z17", "z29", "v25", "c53", "f9", "f9_squared", "thin120",
             "paley13", "rook", "shrikhande")
    schemes = {name: request.getfixturevalue(name) for name in names}
    schemes["thin_s3"] = _thin_s3()
    schemes["k222"] = sf.from_matrix(np.array(
        [[0 if x == y else 1 if (x - y) % 3 == 0 else 2 for y in range(6)] for x in range(6)]))
    for name, scheme in schemes.items():
        c = oracles.tensor_by_matmul(scheme)
        assert sf.is_commutative(scheme) == np.array_equal(c, c.transpose(1, 0, 2)), name
        us = np.arange(1, scheme.r)
        for s in scheme.nondiagonal():
            expected = int(c[us, scheme.dual[us], s].sum())
            assert sf.indistinguishing_number(scheme, s) == expected, (name, s)
    assert not sf.is_commutative(schemes["thin_s3"])


def test_doubled_squares_match_phi_psi(request, battery, thin120, paley13):
    # the colors with s * s = 4*1 + 3s, read off the matrix, are phi/psi's s2
    names = ("c53", "c101", "v125", "f9", "f9_squared")
    schemes = {**battery, **{name: request.getfixturevalue(name) for name in names}}
    for name, scheme in schemes.items():
        assert scheme_core.doubled_squares(scheme) == sf.phi_psi(scheme).s2, name
    assert scheme_core.doubled_squares(schemes["v25"])
    # none without common valency 4: two disjoint K5 have valencies 4 and 5,
    # though color 1 has c(1,1,1) = 3
    part = np.arange(10) // 5
    two_k5 = np.where(part[:, None] == part[None, :], 1, 2)
    np.fill_diagonal(two_k5, 0)
    two_k5 = sf.from_matrix(two_k5)
    assert oracles.tensor_by_matmul(two_k5)[1, 1, 1] == 3
    k4 = sf.from_matrix(1 - np.eye(4, dtype=int))
    for scheme in (thin120, paley13, k4, two_k5):
        assert scheme_core.doubled_squares(scheme) == frozenset()


def test_indistinguishing_rejects_diagonal(z13):
    with pytest.raises(sf.DiagonalColor):
        sf.indistinguishing_number(z13, 0)


def test_product_inner_matches_trace(z5, z13):
    for scheme in (z5, z13):
        for s in range(scheme.r):
            for t in range(scheme.r):
                for u in range(scheme.r):
                    for v in range(scheme.r):
                        assert oracles.product_inner(scheme, s, t, u, v) == oracles.inner_by_trace(
                            scheme, s, t, u, v
                        )


def test_tensor_row_sum_identity(battery):
    # sum_u c(s,t,u) * n_u = n_s * n_t
    for scheme in battery.values():
        nv = scheme.valencies
        for s in range(scheme.r):
            for t in range(scheme.r):
                total = int((scheme.tensor.c[s, t] * nv).sum())
                assert total == int(nv[s]) * int(nv[t])


def test_tensor_transpose_identity(battery):
    # c(s*, t*, u*) = c(t, s, u)
    for scheme in battery.values():
        c = scheme.tensor.c
        d = scheme.dual
        for s in range(scheme.r):
            for t in range(scheme.r):
                for u in range(scheme.r):
                    assert c[d[s], d[t], d[u]] == c[t, s, u]


def test_product_inner_squared_norm(z13):
    # 4^2 * 1 + 2^2 * 4 + 1^2 * 4 for a 4*1 + 2u + v square
    assert oracles.product_inner(z13, 1, 1, 1, 1) == 36


def test_row(z13):
    row = z13.row(0, 1)
    assert sorted(int(x) for x in row) == [1, 5, 8, 12]


# --- text format ---


def test_write_read_roundtrip(battery, tmp_path):
    for name, scheme in battery.items():
        path = tmp_path / (name + ".asc")
        sf.save_asc(scheme, str(path))
        loaded = sf.load_asc(str(path))
        assert np.array_equal(loaded.color, scheme.color)
        # second write is byte-identical
        text = path.read_text()
        assert text == sf.write_asc(loaded)
        assert text.endswith("\n")


def test_read_asc_rejects_garbage():
    for text in ("", "nonsense\n", "2\n0 1\n1 0\n", "2 2\n0 1\n", "2 2\n0 1\n1\n",
                 "2 2\n0 x\n1 0\n", "1 1\n0 extra\n"):
        with pytest.raises(sf.FormatError):
            sf.read_asc(text)


def test_read_asc_rejects_unused_color():
    for text in ("2 3\n0 1\n1 0\n", "3 4\n0 1 3\n1 0 1\n3 1 0\n"):
        with pytest.raises(sf.FormatError, match="^header declares %s colors but some never "
                                                 "occur$" % text[2]):
            sf.read_asc(text)


def test_write_asc_matches_per_element_formatting(battery, c53, v125, c401, thin120):
    # c401 (r = 101) and thin120 (r = 120) have three-digit colors
    for scheme in (*battery.values(), c53, v125, c401, thin120):
        lines = ["%d %d" % (scheme.n, scheme.r)]
        lines += [" ".join(str(int(v)) for v in row) for row in scheme.color]
        assert sf.write_asc(scheme) == "\n".join(lines) + "\n"


def test_written_files_take_the_array_parse(battery, c401, thin120, monkeypatch):
    # the row parser is only the fallback: a file the writer made never needs it
    monkeypatch.setattr(scheme_core, "_parse_rows", None)
    for scheme in (*battery.values(), c401, thin120):
        assert np.array_equal(sf.read_asc(sf.write_asc(scheme)).color, scheme.color)


def test_array_parse_peaks_below_four_matrices(c401):
    # the body's bytes, the gate's masks, its run starts (one int64 per
    # entry) and the matrix: about 2.9 matrices
    text = sf.write_asc(c401)
    body = text[text.index("\n") + 1:]
    tracemalloc.start()
    try:
        mat = scheme_core._parse_matrix(body, c401.n, c401.r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(mat, c401.color)
    assert peak < 4 * mat.nbytes, peak / mat.nbytes


def _first_pairs_by_sort(color):
    _, first = np.unique(color, return_index=True)
    return np.divmod(first, len(color))


def test_first_pairs_match_a_sort_of_all_pairs(battery, z29):
    relabelled = {}
    rng = np.random.default_rng(29)
    points, colors = rng.permutation(z29.n), np.r_[0, 1 + rng.permutation(z29.r - 1)]
    relabelled["z29"] = colors[z29.color][np.ix_(points, points)]
    for name, scheme in battery.items():
        for delta in ((0,), (0, 1)):
            relabelled["%s%s" % (name, delta)] = sf.point_fission(scheme, delta).color
    cases = {name: scheme.color for name, scheme in battery.items()} | relabelled
    for name, color in cases.items():
        # row 0 holds every color of a scheme but not of its fissions, so
        # both the row-0 path and the sort of all pairs are taken
        assert (len(np.unique(color[0])) == len(np.unique(color))) == ("(" not in name)
        got, expected = scheme_core._first_pairs(color), _first_pairs_by_sort(color)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected)), name


def test_read_asc_rejects_out_of_range():
    with pytest.raises(sf.FormatError):
        sf.read_asc("2 2\n0 5\n5 0\n")


def test_read_asc_transpose_mismatch():
    text = "3 3\n0 1 2\n2 0 1\n1 2 0\n"
    scheme = sf.read_asc(text)  # cyclic pairing: dual swaps 1 and 2
    assert list(scheme.dual) == [0, 2, 1]
    assert not sf.is_symmetric(scheme)
    assert sf.is_commutative(scheme)


def test_load_asc_accepts_int_tokens_and_line_ends(tmp_path):
    # int() spellings, tabs, CRLF and a lone CR all parse as before
    path = tmp_path / "tokens.asc"
    for data in (b"2 2\r\n+0\t0_1\r\n1 -0\r\n", b"2 2\r0 1\r1 0\r"):
        path.write_bytes(data)
        assert sf.load_asc(str(path)).color.tolist() == [[0, 1], [1, 0]]


def test_read_asc_names_the_first_malformed_row():
    cases = {
        "3 2\n0 1 x\n1 0\n1 1 0\n": "row 0 has a non-integer entry",
        "3 2\n0 1\n1 x 0\n1 1 0\n": "row 0 has 2 entries, expected 3",
        "2 2\n0 1.0\n1 0\n": "row 0 has a non-integer entry",
        "2 2\n0 1\n1 0 0\n": "row 1 has 3 entries, expected 2",
        "2 2\n0 1 0\n1 0 0\n": "row 0 has 3 entries, expected 2",
        "2 2\n0 99999999999999999999\nx 0\n": "color entries must lie in 0..1",
        "2 2\n0 -1\n1 0\n": "color entries must lie in 0..1",
    }
    for text, message in cases.items():
        with pytest.raises(sf.FormatError, match="^%s$" % message.replace(".", r"\.")):
            sf.read_asc(text)


def test_read_asc_row_parser_names_first_bad_row(c101):
    # a file without its final LF, or with a bad token or a long row early
    # or late in the file, goes to the row parser, which reports the first
    # malformed row of the file
    lines = sf.write_asc(c101).split("\n")
    assert np.array_equal(sf.read_asc("\n".join(lines)).color, c101.color)
    late = lines[:91] + ["x" + lines[91][1:]] + lines[92:]
    with pytest.raises(sf.FormatError, match="^row 90 has a non-integer entry$"):
        sf.read_asc("\n".join(late))
    early = late[:6] + [lines[6] + " 0"] + late[7:]
    with pytest.raises(sf.FormatError, match="^row 5 has 102 entries, expected 101$"):
        sf.read_asc("\n".join(early))


def test_load_rejects_non_ascii_bytes(tmp_path):
    path = tmp_path / "bad"
    for data, byte, offset in ((b"2 2\n0 1\n1 0\xc3\xa9\n", 0xC3, 11), (b"\xff", 0xFF, 0)):
        path.write_bytes(data)
        for load in (sf.load_asc, sf.load_perm):
            with pytest.raises(sf.FormatError, match="^non-ASCII byte 0x%02x at offset %d$"
                                                     % (byte, offset)):
                load(str(path))
