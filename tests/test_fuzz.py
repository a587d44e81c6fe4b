"""Readers on arbitrary text raise only the package's own errors, and the
array parse of a scheme body agrees with the row parser on every text."""

from unittest import mock

from hypothesis import example, given
from hypothesis import strategies as st

import scheme_forge as sf
from scheme_forge import scheme_core

# "n r" or "n g" headers over small tables of small (sometimes bad) integers,
# so that parsing succeeds often enough to reach validation.
_cell = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["", "x", "1.5", "9" * 30]))


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 5))
    head = "%d %d" % (n, draw(st.integers(0, 6)))
    rows = draw(st.lists(st.lists(_cell, min_size=n - 1, max_size=n + 1), max_size=6))
    return "\n".join([head] + [" ".join(row) for row in rows]) + draw(st.sampled_from(["", "\n"]))


@st.composite
def _square_schemes(draw):
    # well-formed text with a zero diagonal and symmetric colors
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, 4))
    color = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            color[x][y] = color[y][x] = draw(st.integers(1, max(1, r - 1)))
    rows = [" ".join(map(str, row)) for row in color]
    return "\n".join(["%d %d" % (n, r)] + rows) + "\n"


_texts = st.one_of(st.text(), _tables(), _square_schemes())


@given(_texts)
def test_read_asc_raises_only_package_errors(text):
    try:
        scheme = sf.read_asc(text)
    except sf.SchemeForgeError:
        return
    assert sf.read_asc(sf.write_asc(scheme)).n == scheme.n


@given(_texts)
def test_read_perm_raises_only_format_errors(text):
    try:
        group = sf.read_perm(text)
    except sf.FormatError:
        return
    again = sf.read_perm(sf.write_perm(group))
    assert (again.degree, again.generators) == (group.degree, group.generators)


# Bodies for the parse-parity property: the color matrices of z5, of the
# 3-point cyclic scheme and of the thin scheme of Z_12 (two-digit colors),
# with a few tokens of each row spelled in a way int() reads as its value,
# or not.  "clean" texts use only ASCII digits and whitespace, which the
# array path takes; the others add signs, underscores, non-ASCII digits and
# spaces, and bad tokens, which go to the row parser.
_BODIES = [sf.orbital_scheme(sf.cyclotomic_frobenius(5)).color.tolist(),
           [[0, 1, 2], [2, 0, 1], [1, 2, 0]],
           [[(y - x) % 12 for y in range(12)] for x in range(12)]]
_ASCII_GAPS = " \t\v\f\r\x1c\x1d\x1e\x1f"
_rarely = st.sampled_from([False] * 9 + [True])


def _spellings(value, clean):
    digits = str(value)
    ascii_digits = [digits, "00" + digits, digits.zfill(18), digits.zfill(19), "9" * 18, "9" * 19]
    if clean:
        return st.sampled_from(ascii_digits)
    return st.sampled_from(ascii_digits + [
        "+" + digits, "-" + digits, "_".join(digits), "0_" + digits, "x", "1.5",
        "\xe9", "".join(chr(0x660 + int(d)) for d in digits)])


@st.composite
def _spelled_texts(draw):
    body = draw(st.sampled_from(_BODIES))
    n, clean = len(body), draw(st.booleans())
    rows = [list(map(str, row)) for row in body]
    for row, values in zip(rows, body):
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            row[i] = draw(_spellings(values[i], clean))
        if draw(_rarely):
            del row[-1]
        elif draw(_rarely):
            row.append("0")
    if draw(_rarely):  # n * n tokens in all, but one row short and the next long
        i = draw(st.integers(0, n - 2))
        rows[i + 1].insert(0, rows[i].pop())
    gap = st.text(_ASCII_GAPS if clean else _ASCII_GAPS + "\xa0\u2003", min_size=1, max_size=3)
    lines = []
    for tokens in rows:
        if not draw(st.booleans()):
            lines.append(" ".join(tokens))
            continue
        line = "".join(t + draw(gap) for t in tokens[:-1]) + "".join(tokens[-1:])
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line
                     + draw(st.sampled_from(["", " ", "\r"])))
    if draw(_rarely):
        lines.insert(draw(st.integers(0, n)), "")
    top = max(map(max, body))
    head = "%d %d" % (n, draw(st.sampled_from([top + 1] * 4 + [top + 2, top])))
    return "\n".join([head] + lines) + draw(st.sampled_from(["\n"] * 4 + [""]))


def _read_with(text, parse):
    """read_asc's outcome, a color list or (error type, text), when the body
    is parsed by parse(body, n, r), and the matrices parse returned."""
    parsed = []

    def recording(body, n, r):
        mat = parse(body, n, r)
        parsed.append(mat.tolist())
        return mat

    with mock.patch.object(scheme_core, "_parse_matrix", recording):
        try:
            outcome = sf.read_asc(text).color.tolist()
        except sf.SchemeForgeError as exc:
            outcome = (type(exc), str(exc))
    return outcome, parsed


@given(st.one_of(_spelled_texts(), _tables(), _square_schemes(), st.text()))
@example("2 2\n0 9999999999999999999\n1 0\n")  # 19 digits: past int64
@example("2 2\n0 1 1\n0\n")  # four tokens in all, but three on row 0
def test_array_parse_matches_row_parser(text):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    rows = lambda body, n, r: scheme_core._parse_rows(lines[1:], n, r)
    assert _read_with(text, scheme_core._parse_matrix) == _read_with(text, rows)
