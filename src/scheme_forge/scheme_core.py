"""Association schemes as dense color matrices with exact intersection data.

A scheme on n points is stored as an n x n matrix of color indices
0..r-1.  Color 0 is reserved for the diagonal.  Validation refuses any
matrix where a structure constant c(s,t,u) fails to be constant over its
color class, and builds no table of them (see Scheme.tensor).

Constancy is checked on one row per orbit of the automorphisms that a
search on the bare color matrix finds (see autsearch), and the check is
exact.  An automorphism g keeps colors, so the pairs (x, y) and (gx, gy)
have the same color, hence the same first pair, and the same multiset of
path codes: the least code whose count differs from the first pair's is
the same along an orbit of pairs.  The error names the least such code,
then the least pair in row-major order; were its row x not the least
point of its orbit, some g would map x below it, and (gx, gy) would come
first.  So only the least point of each orbit needs its row checked.
The search is capped at n stack pops in all, since it can take
exponential time on a matrix that is not a scheme; what it found by then
still counts.  Finding nothing means checking every row, O(n**3 log n).
In a 4-equivalenced scheme Aut is transitive, and on every ladder
instance the search finds it within the cap, so one row is checked.

The first pair of each color and the dual map come from row 0 when it
holds every color, as in every transitive scheme; the dual read off the
first pairs is accepted only after it is checked on all n**2 pairs, and a
dual given to validate must equal it.  Scheme files are read and
written as byte arrays.  A body of ASCII digits, spaces and LFs is parsed
in one pass; any other body parses row by row with int(), which gives the
same matrix or the same error.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autsearch import OutOfNodes, _levels, _orbits, _resolving_base


class SchemeForgeError(Exception):
    """Base class for structured errors raised by this package."""


class DiagonalViolation(SchemeForgeError):
    """Color 0 and the diagonal do not coincide."""


class DualViolation(SchemeForgeError):
    """Transposing the matrix does not act as an involution on colors."""


class NonConstantIntersection(SchemeForgeError):
    """Some c(s,t,u) differs between two pairs of the same color."""

    def __init__(self, s, t, u, pair, expected, got):
        super().__init__(
            "c(%d,%d;%d) is not constant: pair %s gives %d, first witness gave %d"
            % (s, t, u, pair, got, expected)
        )
        self.s = s
        self.t = t
        self.u = u
        self.pair = pair
        self.expected = expected
        self.got = got


class DiagonalColor(SchemeForgeError):
    """The diagonal color was passed where a non-diagonal one is required."""


class FormatError(SchemeForgeError):
    """A scheme or permutation text file is malformed."""


@dataclass(frozen=True, eq=False)
class IntersectionTensor:
    """All structure constants of a scheme, c[s, t, u] as an (r,r,r) array."""

    c: np.ndarray

    def __call__(self, s: int, t: int, u: int) -> int:
        return int(self.c[s, t, u])


@dataclass(frozen=True, eq=False)
class Scheme:
    """A validated association scheme: its color matrix and dual.

    Fields are never mutated after validate() returns; the arrays are
    marked read-only so accidental writes fail loudly.  n, r and the
    valencies are read off the matrix and the dual.
    """

    color: np.ndarray
    dual: np.ndarray

    @functools.cached_property
    def tensor(self) -> IntersectionTensor:
        """c(s,t,u), r**3 words, read by products only: (color(x,z) * r +
        color(z,y)) * r + u occurs c(s,t,u) times over z at the first pair
        (x, y) of color u, and validation showed every u-pair counts alike."""
        r = self.r
        out, back = _first_pair_paths(self.color)
        codes = (out * r + back) * r + np.arange(r)[:, None]
        c = np.bincount(codes.ravel(), minlength=r**3).reshape(r, r, r)
        c.setflags(write=False)
        return IntersectionTensor(c)

    @property
    def n(self) -> int:
        return self.color.shape[0]

    @property
    def r(self) -> int:
        return len(self.dual)

    @property
    def valencies(self) -> np.ndarray:
        """The out-degree of each color: row 0 holds color s c(s, s*, 0) times,
        as every row does."""
        return np.bincount(self.color[0], minlength=self.r)

    def row(self, alpha: int, s: int) -> np.ndarray:
        """Points y with color(alpha, y) = s."""
        return np.nonzero(self.color[alpha] == s)[0]

    def nondiagonal(self) -> range:
        return range(1, self.r)


def _first_occurrence_rank(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel a flat integer array by first occurrence; returns (labels, count).

    One unstable sort groups equal codes; the least index of each group is
    its first occurrence, and those indices are distinct, so ranking them
    needs no stable sort either.
    """
    order = np.argsort(codes)
    ordered = codes[order]
    new = np.empty(len(codes), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    rank = np.empty(len(starts), dtype=np.int64)
    rank[np.argsort(np.minimum.reduceat(order, starts))] = np.arange(len(starts))
    labels = np.empty(len(codes), dtype=np.int64)
    labels[order] = rank[np.cumsum(new) - 1]
    return labels, len(starts)


def canonical_relabel(matrix: np.ndarray) -> np.ndarray:
    """Renumber colors by first occurrence in row-major order.

    Two matrices induce the same pair partition iff their canonical
    relabelings are equal, which is how generated schemes and orbital
    partitions are compared.
    """
    m = np.asarray(matrix, dtype=np.int64)
    labels, _ = _first_occurrence_rank(m.ravel())
    return labels.reshape(m.shape)


# Byte cap on the (rows, n, n) path-code block that _path_code_blocks sorts
# at a time; the reference codes and the comparison hold about three more
# arrays of that size.
_BLOCK_BYTES = 1 << 23


def _first_pairs(color: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the first pair of each color in row-major order.

    Every color 0..r-1 must occur.  When row 0 holds colors 0..k-1 and the
    matrix holds no other, every first pair lies in row 0, so only that row
    is sorted; otherwise, as in a fission, all n**2 colors are.
    """
    colors, first = np.unique(color[:1], return_index=True)
    k = len(colors)
    if not (k and colors[0] == 0 and colors[-1] == k - 1
            and color.max() == k - 1 and color.min() == 0):
        _, first = np.unique(color, return_index=True)
    return np.divmod(first, color.shape[0])


def _first_pair_paths(color: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """out[u, z] = color(x,z), back[u, z] = color(z,y) at color u's first pair (x, y)."""
    xs, ys = _first_pairs(color)
    return color[xs], color[:, ys].T


def _path_code_blocks(color: np.ndarray, r: int, firsts, rows=None):
    """Yield (xs, codes, expected) for blocks of the given rows x (all rows
    when None), in their order.

    The path codes of a pair (x,y) are color(x,z) * r + color(z,y) over
    all z, so code s*r + t occurs c(s,t;color(x,y)) times among them.
    codes[i, y] holds the sorted codes of the pair (xs[i], y), and
    expected[i, y] those of the first pair of color(xs[i], y) in
    row-major order, built for the block's colors only, so that no table
    over all r colors is held.  firsts holds those first pairs (see
    _first_pairs).  A block holds at most _BLOCK_BYTES of codes.
    """
    n = color.shape[0]
    rows = np.arange(n) if rows is None else np.asarray(rows)
    # at least 16 bits: numpy sorts 8-bit keys without its vectorised sort
    dtype = np.promote_types(np.min_scalar_type(r * r - 1), np.uint16)
    scaled = (color * r).astype(dtype)
    transposed = color.T.astype(dtype, order="C")
    xs, ys = firsts
    step = max(1, _BLOCK_BYTES // (n * n * dtype.itemsize))
    for lo in range(0, len(rows), step):
        block_rows = rows[lo:lo + step]
        block = color[block_rows]
        codes = scaled[block_rows, None, :] + transposed[None, :, :]
        codes.sort(axis=2)
        colors, inverse = np.unique(block, return_inverse=True)
        reference = scaled[xs[colors]] + transposed[ys[colors]]
        reference.sort(axis=1)
        yield block_rows, codes, reference[inverse.reshape(block.shape)]


def _check_constancy(color: np.ndarray, r: int, rows=None) -> None:
    """Check that every c(s,t,u) is constant over the pairs of color u.

    The sorted path codes of every pair in the given rows, ascending (all
    rows when None), must equal those of its color's first pair (see
    _path_code_blocks).  On failure the error names the least code
    s*r + t, then the least pair in row-major order, whose count differs
    from that of its color's first pair.
    """
    firsts = _first_pairs(color)
    witness = None
    for xs, codes, expected in _path_code_blocks(color, r, firsts, rows):
        differ = codes != expected
        bx, by = np.nonzero(differ.any(axis=2))
        if len(bx) == 0:
            continue
        # the first differing place of two sorted columns holds the least
        # code whose counts differ
        at = differ[bx, by].argmax(axis=1)
        least = np.minimum(codes[bx, by, at], expected[bx, by, at])
        j = int(least.argmin())
        found = (int(least[j]), int(xs[bx[j]]), int(by[j]))
        witness = found if witness is None else min(witness, found)
    if witness is not None:
        code, x, y = witness
        u = int(color[x, y])
        s, t = divmod(code, r)
        xu, yu = firsts[0][u], firsts[1][u]
        raise NonConstantIntersection(
            s, t, u, (x, y),
            int(np.count_nonzero(color[xu] * r + color[:, yu] == code)),
            int(np.count_nonzero(color[x] * r + color[:, y] == code)),
        )


def _orbit_minima(color: np.ndarray, r: int) -> list[int]:
    """The least point of each orbit of the automorphisms that a search of at
    most n stack pops finds: every point when it finds none (see the module
    docstring).  Color 0 must be exactly the diagonal.
    """
    n = len(color)
    gens: list[list[int]] = []
    try:
        for _ in _levels(color, _resolving_base(color, r), gens, iter(range(n))):
            pass
    except OutOfNodes:
        pass
    return [orbit[0] for orbit in _orbits(gens, n)]


def validate(n: int, r: int, color, dual) -> Scheme:
    """Check all scheme axioms and return the Scheme, without its tensor.

    Raises DiagonalViolation / DualViolation / NonConstantIntersection for
    axiom failures, ValueError for out-of-range or missing colors.  A
    given dual that differs from the scanned one is a DualViolation.
    """
    if n < 1 or r < 1:
        raise ValueError("need at least one point and one color")
    mat = np.array(color, dtype=np.int64)
    if mat.shape != (n, n):
        raise ValueError("color matrix is not %d x %d" % (n, n))
    if mat.min() < 0 or mat.max() >= r:
        raise ValueError("color entries must lie in 0..%d" % (r - 1))
    dual_arr = np.array(dual, dtype=np.int64)
    if dual_arr.shape != (r,):
        raise ValueError("dual must assign one color to each of %d colors" % r)
    if dual_arr.min() < 0 or dual_arr.max() >= r:
        raise ValueError("dual entries must lie in 0..%d" % (r - 1))
    scheme = _checked(n, r, mat)
    if not np.array_equal(dual_arr, scheme.dual):
        s = int(np.argmax(dual_arr != scheme.dual))
        raise DualViolation("given dual of color %d is %d, but transposing gives %d"
                            % (s, dual_arr[s], scheme.dual[s]))
    return scheme


def _checked(n: int, r: int, mat: np.ndarray) -> Scheme:
    """The Scheme of an n x n int64 matrix of colors 0..r-1, frozen.

    The dual is scanned first (see _scan_dual), whose check of
    dual[mat] == mat.T on all pairs also shows that every color occurs, that
    the dual is an involution and, once color 0 is the diagonal, that it
    fixes 0.
    """
    dual = _scan_dual(mat, r)
    diag = mat.diagonal()
    if (diag != 0).any():
        x = int(np.nonzero(diag != 0)[0][0])
        raise DiagonalViolation("color(%d,%d) = %d, expected 0" % (x, x, diag[x]))
    off = (mat == 0) & ~np.eye(n, dtype=bool)
    if off.any():
        x, y = map(int, np.argwhere(off)[0])
        raise DiagonalViolation("color(%d,%d) = 0 off the diagonal" % (x, y))

    _check_constancy(mat, r, _orbit_minima(mat, r))
    for arr in (mat, dual):
        arr.setflags(write=False)
    return Scheme(mat, dual)


def from_matrix(color) -> Scheme:
    """Validate a bare color matrix, deriving r and the dual map by scanning."""
    mat = np.array(color, dtype=np.int64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("color matrix must be square")
    if not mat.size:
        raise ValueError("need at least one point and one color")
    r = int(mat.max()) + 1
    if mat.min() < 0:
        raise ValueError("color entries must lie in 0..%d" % (r - 1))
    return _checked(len(mat), r, mat)


def _scan_dual(mat: np.ndarray, r: int) -> np.ndarray:
    """Derive s -> s* from the matrix; DualViolation if transpose mixes colors.

    The candidate dual of each color is the color of its first pair
    transposed, accepted when every color 0..r-1 occurs and the candidate
    maps every color to that of its transposed pair.  Otherwise
    _dual_by_sort finds and words the fault.
    """
    xs, ys = _first_pairs(mat)
    if len(xs) == r and np.array_equal(mat[xs, ys], np.arange(r)):
        dual = mat[ys, xs]
        if np.array_equal(dual[mat], mat.T):
            return dual
    return _dual_by_sort(mat, r)


def _dual_by_sort(mat: np.ndarray, r: int) -> np.ndarray:
    """s -> s* from the sorted codes of all pairs with their transposes;
    ValueError for the least color that never occurs, DualViolation for
    the least whose transposed pairs carry more than one color."""
    pairs = np.unique(mat * r + mat.T)
    firsts, seconds = np.divmod(pairs, r)
    met = np.bincount(firsts, minlength=r)
    if (met != 1).any():
        s = int(np.argmax(met != 1))
        if met[s] == 0:
            raise ValueError("color %d never occurs" % s)
        raise DualViolation(
            "transpose of color %d meets colors %s" % (s, list(map(int, seconds[firsts == s])))
        )
    return seconds


def valency(scheme: Scheme, s: int) -> int:
    """Out-degree of color s: c(s, s*, 0)."""
    return int(scheme.valencies[s])


def is_k_equivalenced(scheme: Scheme):
    """The common non-diagonal valency, or None if valencies are mixed."""
    if scheme.r < 2:
        return None
    vals = set(int(v) for v in scheme.valencies[1:])
    if len(vals) == 1:
        return vals.pop()
    return None


def is_symmetric(scheme: Scheme) -> bool:
    """Every color is its own dual."""
    return bool(np.array_equal(scheme.dual, np.arange(scheme.r)))


def is_commutative(scheme: Scheme) -> bool:
    """c(s,t,u) = c(t,s,u) for all triples: at each color's first pair (x, y),
    the codes color(x,z) * r + color(z,y) over z, sorted, equal color(z,y) * r + color(x,z)."""
    r = scheme.r
    out, back = _first_pair_paths(scheme.color)
    return bool(np.array_equal(np.sort(out * r + back, axis=1), np.sort(back * r + out, axis=1)))


def doubled_squares(scheme: Scheme) -> frozenset:
    """The colors s with s·s = 4·1 + 3s: k = 4, s self-dual (so c(s,s,0) = 4)
    and c(s,s,s) = 3, the z with color(x,z) = color(z,y) = s at s's first pair
    (x, y).  Then 4·1 + 3·4 already makes up k² = 16, so s·s holds nothing else."""
    if is_k_equivalenced(scheme) != 4:
        return frozenset()
    out, back = _first_pair_paths(scheme.color)
    colors = np.arange(scheme.r)
    triangles = np.count_nonzero((out == colors[:, None]) & (back == colors[:, None]), axis=1)
    return frozenset(map(int, np.flatnonzero((scheme.dual == colors) & (triangles == 3))))


def indistinguishing_number(scheme: Scheme, s: int) -> int:
    """Number of points related equally to both ends of an s-pair.

    For (x,y) of color s this counts z with color(x,z) = color(y,z)
    non-diagonal, i.e. the sum of c(u, u*, s) over non-diagonal u.  At (0, y),
    y the first point of color s in row 0, z = 0 and z = y never count.
    """
    if s == 0:
        raise DiagonalColor("indistinguishing number is defined off the diagonal")
    if not 0 < s < scheme.r:
        raise ValueError("no such color: %d" % s)
    row = scheme.color[0]
    y = int(np.argmax(row == s))
    return int(np.count_nonzero(row == scheme.color[y]))


def is_pseudocyclic(scheme: Scheme) -> bool:
    """k-equivalenced with every indistinguishing number equal to k - 1."""
    k = is_k_equivalenced(scheme)
    if k is None:
        return False
    return all(
        indistinguishing_number(scheme, s) == k - 1 for s in scheme.nondiagonal()
    )


# --- scheme text format (.asc) ---
#
# line 1: "n r"; then n lines of n space-separated colors.  LF endings,
# no trailing whitespace.  The dual map is derived by scanning.


def write_asc(scheme: Scheme) -> str:
    """The .asc text, built as one byte array: each color's digits come from
    a table of right-aligned decimal cells whose unused leading places are
    masked out, each followed by a space, or an LF at the end of a row."""
    width = len(str(scheme.r - 1))
    cells = "".join("%*d " % (width, c) for c in range(scheme.r))
    table = np.frombuffer(cells.encode("ascii"), np.uint8).reshape(scheme.r, width + 1)
    keep = table != ord(" ")
    keep[:, width] = True
    out = table[scheme.color]
    out[:, -1, width] = ord("\n")
    body = out[keep[scheme.color]].tobytes().decode()
    return "%d %d\n" % (scheme.n, scheme.r) + body


def read_asc(text: str) -> Scheme:
    """Parse and fully validate a scheme file; FormatError on malformed text."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty scheme file")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("header must be 'n r'")
    try:
        n, r = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError("header must be two integers") from None
    if n < 1 or r < 1:
        raise FormatError("header values must be positive")
    if len(lines) != n + 1:
        raise FormatError("expected %d matrix rows, found %d" % (n, len(lines) - 1))
    mat = _parse_matrix(text[len(lines[0]) + 1:], n, r)
    if mat.min() < 0 or mat.max() >= r:
        raise FormatError("color entries must lie in 0..%d" % (r - 1))
    if not np.bincount(mat.ravel(), minlength=r).all():
        raise FormatError("header declares %d colors but some never occur" % r)
    return _checked(n, r, mat)


# decimal digits of the longest token the array path reads; 10**18 < 2**63
_MAX_DIGITS = 18


def _parse_matrix(body: str, n: int, r: int) -> np.ndarray:
    """The n x n matrix from the text after the header line.

    The body is read as one byte array when it is ASCII, made only of
    digits, spaces and LFs, as write_asc writes it, and holds n
    LF-terminated lines of n tokens of at most _MAX_DIGITS digits each.
    int() reads such a token as its decimal value, so the array path
    agrees with _parse_rows there.  Any other body, with other whitespace,
    every other int() spelling and every error, goes to _parse_rows, which
    names the first malformed row.
    """
    try:
        buf = np.frombuffer(body.encode("ascii"), np.uint8)
    except UnicodeEncodeError:
        buf = np.zeros(0, np.uint8)
    digits = buf - ord("0")
    digit = digits < 10
    written = digit | (buf == ord(" ")) | (buf == ord("\n"))
    if len(buf) and buf[-1] == ord("\n") and written.all():
        # a digit run starts and ends where the digit mask flips
        bounds = np.flatnonzero(np.diff(digit, prepend=False, append=False))
        starts, stops = bounds[::2], bounds[1::2]
        ends = np.flatnonzero(buf == ord("\n"))
        width = int((stops - starts).max(initial=0))
        if (len(starts) == n * n and len(ends) == n and width <= _MAX_DIGITS
                and np.array_equal(np.searchsorted(starts, ends), np.arange(n, n * n + 1, n))):
            mat = np.zeros(n * n, dtype=np.int64)
            # Horner over the last `width` places of each run; places before
            # its start read as 0, which leaves a shorter run's value as is
            for place in range(width, 0, -1):
                at = stops - place
                mat *= 10
                mat += np.where(at >= starts, digits.take(at, mode="clip"), 0)
            return mat.reshape(n, n)
    return _parse_rows(body.split("\n")[:n], n, r)


def _parse_rows(lines: list[str], n: int, r: int) -> np.ndarray:
    """Parse row by row, so the error names the first malformed row.  Token
    counts are checked first, and only the rows before the first wrong
    count are allocated, so a header that no rows back costs no n x n array."""
    sizes = [len(line.split()) for line in lines]
    full = next((i for i, size in enumerate(sizes) if size != n), len(lines))
    mat = np.empty((full, n), dtype=np.int64)
    for i, line in enumerate(lines[:full]):
        parts = line.split()
        try:
            mat[i] = [int(p) for p in parts]
        except ValueError:
            raise FormatError("row %d has a non-integer entry" % i) from None
        except OverflowError:
            raise FormatError("color entries must lie in 0..%d" % (r - 1)) from None
    if full < len(lines):
        raise FormatError("row %d has %d entries, expected %d" % (full, sizes[full], n))
    return mat


def read_ascii(path) -> str:
    """A text file's contents with universal newlines; FormatError on a non-ASCII byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as err:
        raise FormatError(
            "non-ASCII byte 0x%02x at offset %d" % (data[err.start], err.start)
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_asc(path) -> Scheme:
    return read_asc(read_ascii(path))


def save_asc(scheme: Scheme, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(write_asc(scheme))
