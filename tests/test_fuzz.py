"""Readers on arbitrary text raise only the package's own errors."""

from hypothesis import given
from hypothesis import strategies as st

import scheme_forge as sf

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
