"""Independent slow-path implementations used to cross-check the library.

Everything here recomputes results from first principles (adjacency
matrices, exhaustive permutation search, naive dict-based refinement) so
the fast numpy paths in scheme_forge are never checked against themselves.
"""

import itertools
import math

import numpy as np

import scheme_forge as sf
from scheme_forge import DualViolation, NonConstantIntersection, groups, planes
from scheme_forge.scheme_core import SchemeForgeError, _check_constancy, _scan_dual


def adjacency_matrices(scheme):
    return [(scheme.color == s).astype(np.int64) for s in range(scheme.r)]


def tensor_by_matmul(scheme):
    """c(s,t,u) read off A_s @ A_t at one representative pair (x, y) per
    color u, as row x of A_s times column y of A_t."""
    # float64 products of 0/1 matrices go through BLAS and are exact:
    # every entry is a count below n << 2**53
    mats = np.array(adjacency_matrices(scheme), dtype=np.float64)
    c = np.zeros((scheme.r, scheme.r, scheme.r), dtype=np.int64)
    for u in range(scheme.r):
        xs, ys = np.nonzero(scheme.color == u)
        x, y = int(xs[0]), int(ys[0])
        # entry [s, t] is mats[s][x] @ mats[t][:, y]
        c[:, :, u] = mats[:, x, :] @ mats[:, :, y].T
    return c


def constancy_by_matmul(color, r):
    """c(s,t,u) from r^2 products of 0/1 color matrices, raising on any
    non-constant count.

    The count of paths x -> z -> y through colors s then t at the first
    pair of each color u is the candidate c(s,t,u); the first (s,t) in
    lexicographic order, then the first pair in row-major order, where
    another pair of color u disagrees is the witness.
    """
    n = color.shape[0]
    flat = color.ravel()
    uniq, first = np.unique(flat, return_index=True)
    first_flat = np.empty(r, dtype=np.int64)
    first_flat[uniq] = first
    # float64 matmul is exact here: entries are bounded by n << 2**53
    indicators = np.stack([(color == s).astype(np.float64) for s in range(r)])
    c = np.zeros((r, r, r), dtype=np.int64)
    for s in range(r):
        for t in range(r):
            paths = indicators[s] @ indicators[t]
            witness = paths.ravel()[first_flat]
            expected = witness[color]
            if not np.array_equal(paths, expected):
                x, y = map(int, np.argwhere(paths != expected)[0])
                u = int(color[x, y])
                raise NonConstantIntersection(
                    s, t, u, (x, y), int(witness[u]), int(paths[x, y])
                )
            c[s, t] = np.rint(witness).astype(np.int64)
    return c


def dual_by_colors(mat, r):
    """s -> s* by one scan of the matrix per color.

    ValueError for the first color that never occurs, DualViolation for
    the first whose transposed pairs carry more than one color.
    """
    dual = np.empty(r, dtype=np.int64)
    for s in range(r):
        vals = np.unique(mat.T[mat == s])
        if len(vals) == 0:
            raise ValueError("color %d never occurs" % s)
        if len(vals) != 1:
            raise DualViolation("transpose of color %d meets colors %s" % (s, list(map(int, vals))))
        dual[s] = vals[0]
    return dual


def fiber_error_by_colors(color, num):
    """Message for the first color that straddles fibers or, being a
    diagonal color, leaves the diagonal; None when there is none."""
    diagonal = color.diagonal()
    for s in range(num):
        xs, ys = np.nonzero(color == s)
        if len(set(diagonal[xs].tolist())) != 1 or len(set(diagonal[ys].tolist())) != 1:
            return "color %d straddles fibers" % s
        if s in diagonal and (xs != ys).any():
            return "diagonal color %d leaves the diagonal" % s
    return None


def fibers_by_dict(color):
    """The points of each diagonal color, the fibers in order of least point."""
    fibers = {}
    for x, d in enumerate(color.diagonal().tolist()):
        fibers.setdefault(d, []).append(x)
    return tuple(tuple(points) for points in fibers.values())


def fibers_refine_rows_by_fibers(scheme, color, alpha):
    """Each fiber other than {alpha} meets one color of alpha's row, fiber by fiber."""
    for fiber in fibers_by_dict(color):
        if fiber != (alpha,) and len({int(scheme.color[alpha, x]) for x in fiber}) != 1:
            return False
    return True


def inner_by_trace(scheme, s, t, u, v):
    """<st, uv> = (1/n) tr((A_s A_t)(A_u A_v)^T)."""
    mats = adjacency_matrices(scheme)
    left = mats[s] @ mats[t]
    right = mats[u] @ mats[v]
    return int(np.trace(left @ right.T)) // scheme.n


def product_inner(scheme, s, t, u, v):
    """Hermitian product of the matrix products A_s A_t and A_u A_v.

    Equals sum over w of c(s,t,w) * c(u,v,w) * n_w, since distinct color
    matrices are orthogonal with <A_w, A_w> = n_w.
    """
    c = scheme.tensor.c
    return int((c[s, t] * c[u, v] * scheme.valencies).sum())


def valency_by_rows(scheme, s):
    counts = {int((scheme.color[x] == s).sum()) for x in range(scheme.n)}
    assert len(counts) == 1
    return counts.pop()


def indistinguishing_by_count(scheme, s):
    """Count points equidistant from both ends of an s-colored pair."""
    xs, ys = np.nonzero(scheme.color == s)
    x, y = int(xs[0]), int(ys[0])
    return sum(
        1
        for z in range(scheme.n)
        if scheme.color[x, z] == scheme.color[y, z] and scheme.color[x, z] != 0
    )


def scheme_indistinguishing(scheme):
    """Maximum indistinguishing number over non-diagonal colors (0 if none)."""
    if scheme.r < 2:
        return 0
    return max(sf.indistinguishing_number(scheme, s) for s in scheme.nondiagonal())


def perm_order(p):
    """The least k >= 1 with p^k the identity, by repeated composition."""
    identity = tuple(range(len(p)))
    power, k = tuple(p), 1
    while power != identity:
        power, k = tuple(p[x] for x in power), k + 1
    return k


def is_automorphism(color, img):
    idx = np.asarray(img)
    return bool((color[np.ix_(idx, idx)] == color).all())


def aut_by_factorial(scheme):
    """Filter all n! permutations; only sane for n <= 7."""
    assert scheme.n <= 7
    found = []
    for img in itertools.permutations(range(scheme.n)):
        if is_automorphism(scheme.color, img):
            found.append(img)
    return sorted(found)


def aut_by_anchors(scheme):
    """Enumerate automorphisms from candidate images of the points 0, 1.

    For every consistent image pair (a, b) of (0, 1), each point x must map
    into {y : C[a,y] = C[0,x] and C[b,y] = C[1,x]}; the map is completed by
    depth-first search over those candidate sets and verified in full.
    """
    color = scheme.color
    n = scheme.n
    if n == 1:
        return [(0,)]
    found = []
    for a in range(n):
        for b in range(n):
            if a == b or color[a, b] != color[0, 1] or color[b, a] != color[1, 0]:
                continue
            cands = []
            feasible = True
            for x in range(n):
                mask = (
                    (color[a] == color[0, x])
                    & (color[b] == color[1, x])
                    & (color[:, a] == color[x, 0])
                    & (color[:, b] == color[x, 1])
                )
                opts = np.nonzero(mask)[0].tolist()
                if not opts:
                    feasible = False
                    break
                cands.append(opts)
            if not feasible:
                continue
            order = sorted(range(n), key=lambda x: len(cands[x]))
            img = [-1] * n
            used = [False] * n

            def place(k):
                if k == n:
                    if is_automorphism(color, img):
                        found.append(tuple(img))
                    return
                x = order[k]
                for y in cands[x]:
                    if used[y]:
                        continue
                    img[x] = y
                    used[y] = True
                    place(k + 1)
                    used[y] = False
                img[x] = -1

            place(0)
    return sorted(set(found))


def aut_by_base_images(scheme, bound=None):
    """Every automorphism, sorted, by forcing each consistent image of a
    resolving base and checking the forced map on all n x n pairs.

    BoundExceeded with the library's message once more than bound are found.
    """
    color = scheme.color
    base = groups._resolving_base(color, scheme.r)
    key_order = np.lexsort(color[base, :][::-1])
    sorted_keys = color[base, :][:, key_order]
    elements = []
    stack = [[]]  # partial base images, depth first
    while stack:
        images = stack.pop()
        i = len(images)
        if i == len(base):
            found = color[images, :]
            order = np.lexsort(found[::-1])
            if not np.array_equal(found[:, order], sorted_keys):
                continue
            img = np.empty(scheme.n, dtype=np.int64)
            img[key_order] = order
            if not is_automorphism(color, img):
                continue
            if bound is not None and len(elements) >= bound:
                raise sf.BoundExceeded("more than %d automorphisms" % bound)
            elements.append(tuple(img.tolist()))
            continue
        mask = np.ones(scheme.n, dtype=bool)
        for b, c in zip(base, images):
            mask &= color[c, :] == color[b, base[i]]
        stack.extend(images + [int(y)] for y in np.nonzero(mask)[0])
    return sorted(elements)


class _OutOfPops(Exception):
    pass


def generators_by_base_images(color, r, capped):
    """The automorphisms that the level search appends to its generators
    (see autsearch), with each node's candidates recomputed from all of its
    base images and each leaf's map forced by sorting codes.  capped stops
    the search after n stack pops in all, as scheme validation does.
    """
    n = len(color)
    base = groups._resolving_base(color, r)
    key_order = np.lexsort(color[base, :][::-1])
    sorted_keys = color[base, :][:, key_order]
    pops = 0

    def candidates(images):
        mask = np.ones(n, dtype=bool)
        for b, c in zip(base, images):
            mask &= color[c, :] == color[b, base[len(images)]]
        return np.nonzero(mask)[0].tolist()

    def first_automorphism(images):
        nonlocal pops
        stack = [images]
        while stack:
            if capped and pops == n:
                raise _OutOfPops
            pops += 1
            partial = stack.pop()
            if len(partial) < len(base):
                stack.extend(partial + [y] for y in reversed(candidates(partial)))
                continue
            found = color[partial, :]
            order = np.lexsort(found[::-1])
            if np.array_equal(found[:, order], sorted_keys):
                img = np.empty(n, dtype=np.int64)
                img[key_order] = order
                if is_automorphism(color, img):
                    return img.tolist()
        return None

    def orbit(point, gens):
        reached = [point]
        for x in reached:
            reached.extend(g[x] for g in gens if g[x] not in reached)
        return set(reached)

    gens = []
    try:
        for i in reversed(range(len(base))):
            for y in candidates(base[:i]):
                if y not in orbit(base[i], gens):
                    g = first_automorphism(base[:i] + [y])
                    if g is not None:
                        gens.append(g)
    except _OutOfPops:
        pass
    return gens


def wl_by_sorted_paths(matrix):
    """Pair refinement with exact signatures; returns the stable color matrix.

    Each round recolors (x,y) by its old color and the sorted codes
    c(x,z) * num + c(z,y) over all z, numbering colors by first
    occurrence in row-major order, until the color count stops growing.
    Builds n x n x n arrays, so only for small n.
    """
    color = sf.canonical_relabel(np.asarray(matrix, dtype=np.int64))
    n = color.shape[0]
    num = int(color.max()) + 1
    while True:
        paths = color[:, None, :] * np.int64(num) + color.T[None, :, :]
        paths.sort(axis=2)
        sig = np.concatenate((color[:, :, None], paths), axis=2).reshape(n * n, n + 1)
        # one opaque item per row: equal rows have equal bytes, and a 1-d
        # unique sorts far faster than one along axis 0
        rows = sig.view(np.dtype((np.void, sig.itemsize * (n + 1)))).ravel()
        uniq, first, inv = np.unique(rows, return_index=True, return_inverse=True)
        if len(uniq) == num:
            return color
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[np.argsort(first, kind="stable")] = np.arange(len(uniq))
        color = rank[inv.reshape(-1)].reshape(n, n)
        num = len(uniq)


def individualized(scheme, points):
    """The scheme's colors with each given point individualized."""
    marker = np.zeros(scheme.n, dtype=np.int64)
    marker[list(points)] = np.arange(1, len(points) + 1)
    m = len(points) + 1
    return (scheme.color * m + marker[:, None]) * m + marker[None, :]


def point_fission_by_sorted_paths(scheme, points):
    """wl_by_sorted_paths on the scheme's colors, each given point individualized."""
    return wl_by_sorted_paths(individualized(scheme, points))


def wl_partition_by_dicts(color):
    """Naive dict-based 2-dim refinement; returns the stable pair partition."""
    n = len(color)
    current = {(x, y): int(color[x][y]) for x in range(n) for y in range(n)}
    while True:
        sigs = {}
        for x in range(n):
            for y in range(n):
                around = sorted((current[(x, z)], current[(z, y)]) for z in range(n))
                sigs[(x, y)] = (current[(x, y)], tuple(around))
        relabel = {}
        fresh = {}
        for pair in sorted(sigs):
            sig = sigs[pair]
            if sig not in relabel:
                relabel[sig] = len(relabel)
            fresh[pair] = relabel[sig]
        if len(relabel) == len(set(current.values())):
            classes = {}
            for pair, c in fresh.items():
                classes.setdefault(c, set()).add(pair)
            return {frozenset(v) for v in classes.values()}
        current = fresh


def partition_of(matrix):
    classes = {}
    n = len(matrix)
    for x in range(n):
        for y in range(n):
            classes.setdefault(int(matrix[x][y]), set()).add((x, y))
    return {frozenset(v) for v in classes.values()}


def frobenius_by_definition(elements, n):
    """Transitive, and non-identity elements fix at most one point with at
    least one fixing exactly one."""
    identity = tuple(range(n))
    if identity not in elements:
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in elements:
            y = g[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    if len(seen) != n:
        return False
    some_one_fixer = False
    for g in elements:
        if g == identity:
            continue
        fixed = sum(1 for i in range(n) if g[i] == i)
        if fixed > 1:
            return False
        if fixed == 1:
            some_one_fixer = True
    return some_one_fixer


def closure_by_bfs(gens, n, limit):
    """Breadth-first closure of the generator set; None when limit is passed."""
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    gen_list = [g for g in dict.fromkeys(gens) if g != ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gen_list:
                b = groups.compose(a, g)
                if b not in elems:
                    elems.add(b)
                    if limit is not None and len(elems) > limit:
                        return None
                    fresh.append(b)
        frontier = fresh
    return elems


def orbital_partition(elements, n):
    """Pair partition into orbits of the diagonal action."""
    seen = {}
    label = 0
    out = [[-1] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if out[x][y] != -1:
                continue
            for g in elements:
                out[g[x]][g[y]] = label
            label += 1
    return out


def pair_orbit_count_by_burnside(elements, n):
    """Orbits of a group on pairs, by Burnside: the mean over its listed
    elements of fix(g)**2, as g fixes (x, y) iff it fixes x and y."""
    fixed = [sum(g[x] == x for x in range(n)) for g in elements]
    total = sum(f * f for f in fixed)
    assert total % len(elements) == 0
    return total // len(elements)


def blocks_by_pair_count(design, t, lam):
    """Check every t-subset lies in exactly lam blocks by direct counting."""
    hits = {}
    for block in design.blocks:
        for sub in itertools.combinations(sorted(block), t):
            hits[sub] = hits.get(sub, 0) + 1
    expected = math.comb(design.n, t)
    return len(hits) == expected and set(hits.values()) == {lam}


def closure_by_products(scheme, rset):
    """Add duals and the complex square of the set until it stops growing."""
    current = set(int(x) for x in rset)
    current.add(0)
    while True:
        grown = set(current)
        grown.update(int(scheme.dual[s]) for s in current)
        grown.update(sf.complex_product(scheme, current, current))
        if grown == current:
            return frozenset(current)
        current = grown


def structure_lemmas_by_pairs(scheme):
    """verify_structure_lemmas one color pair at a time: product_class on
    every ordered pair, complex_product per partner and independent pair,
    and closures by closure_by_products."""
    violations = []
    checked = {}
    if sf.is_k_equivalenced(scheme) != 4:
        raise sf.NotFourEquivalenced("structure sweep needs common valency 4")

    pp = None
    try:
        pp = sf.phi_psi(scheme)
    except sf.DichotomyViolation as err:
        violations.append("square-dichotomy: %s" % err)
    checked["square-dichotomy"] = scheme.r - 1

    if pp is not None:
        pairs = 0
        for s in scheme.nondiagonal():
            for t in scheme.nondiagonal():
                if s == t:
                    continue
                pairs += 1
                try:
                    sf.product_class(scheme, pp, s, t)
                except sf.TrichotomyViolation as err:
                    violations.append("product-trichotomy: %s" % err)
        checked["product-trichotomy"] = pairs

        image_phi = sorted(pp.phi[s] for s in pp.s3)
        image_psi = sorted(pp.psi[s] for s in pp.s3)
        ok = image_phi == sorted(pp.s3) and image_psi == sorted(pp.s3)
        for s in pp.s3:
            if pp.psi[s] != pp.phi[pp.phi[s]]:
                ok = False
        if not ok:
            violations.append(
                "phi-psi-bijections: phi=%s psi=%s on s3=%s" % (pp.phi, pp.psi, sorted(pp.s3))
            )
        checked["phi-psi-bijections"] = len(pp.s3)

    if scheme.r >= 5:
        for u in scheme.nondiagonal():
            if not any(
                len(sf.complex_product(scheme, {u}, {v})) == 4 for v in scheme.nondiagonal()
            ):
                violations.append("four-product-partner: color %d has no partner with |uv| = 4" % u)
        checked["four-product-partner"] = scheme.r - 1
    else:
        checked["four-product-partner"] = 0

    closures = {s: closure_by_products(scheme, {s}) for s in scheme.nondiagonal()}
    independent = [
        (s, t)
        for s in scheme.nondiagonal()
        for t in scheme.nondiagonal()
        if s < t and s not in closures[t] and t not in closures[s]
    ]
    for s, t in independent:
        prod = sf.complex_product(scheme, {s}, {t})
        if len(prod) != 4:
            violations.append("independent-product-split: |%d.%d| = %d" % (s, t, len(prod)))
        elif prod & (closures[s] | closures[t]):
            violations.append("independent-product-split: product of %d,%d meets a closure" % (s, t))
    checked["independent-product-split"] = len(independent)

    bound_pairs = 0
    if pp is not None:
        for s, t in independent:
            if s in pp.s3 and t in pp.s3:
                bound_pairs += 1
                left = sf.complex_product(scheme, {pp.phi[t]}, {pp.phi[s]})
                right = sf.complex_product(scheme, {pp.psi[t]}, {pp.psi[s]})
                if len(left & right) > 1:
                    violations.append(
                        "split-intersection-bound: colors %d,%d share %s"
                        % (s, t, sorted(left & right))
                    )
    checked["split-intersection-bound"] = bound_pairs
    return sf.StructureReport(violations, checked, pp)


def plane_cells(plane):
    """(i, j) -> point over the window of a plane, read off its array."""
    radius = len(plane.grid) // 2
    return {
        (int(i) - radius, int(j) - radius): int(plane.grid[i, j])
        for i, j in np.argwhere(plane.grid >= 0)
    }


def rotate(cell):
    """Quarter turn of the coordinate lattice: (i, j) -> (-j, i)."""
    i, j = cell
    return (-j, i)


def rotation_orbit(cell):
    orbit = [cell]
    current = rotate(cell)
    while current != cell:
        orbit.append(current)
        current = rotate(current)
    return tuple(orbit)


def rotation_invariant_by_cells(scheme, plane):
    """color(alpha, P(cell)) is constant on each quarter-turn orbit, one cell
    at a time."""
    grid = plane_cells(plane)
    ref = lambda cell: scheme.color[plane.alpha, grid[cell]]
    return all(
        ref(other) == ref(cell)
        for cell in grid for other in rotation_orbit(cell) if other in grid
    )


def misaligned_by_cells(plane, sigma):
    """The least cell c whose point sigma does not carry to the point of
    rotate(c), or None."""
    grid = plane_cells(plane)
    return min(
        (cell for cell, point in grid.items()
         if rotate(cell) in grid and grid[rotate(cell)] != sigma[point]),
        default=None,
    )


def sim_by_cells(scheme, plane_s, plane_t):
    """color(P_s(c1), P_t(c2)) = color(P_s(rot c1), P_t(rot c2)) for all
    cells whose turns stay in the windows."""
    gs, gt = plane_cells(plane_s), plane_cells(plane_t)
    return all(
        scheme.color[gs[c1], gt[c2]] == scheme.color[gs[rotate(c1)], gt[rotate(c2)]]
        for c1 in gs if rotate(c1) in gs
        for c2 in gt if rotate(c2) in gt
    )


def validate_configuration(cc):
    """Re-check coherence from scratch: constancy, transpose pairing, fibers.

    Raises the same error types as scheme validation.
    """
    color, num = cc.color, cc.num_colors
    counts = np.bincount(color.ravel(), minlength=num)
    if (counts == 0).any():
        raise ValueError("a color index never occurs")
    _scan_dual(color, num)
    _check_constancy(color, num)
    # the fiber of a point is its diagonal color; each color must meet
    # one fiber at its start points and one at its end points
    fiber = color.diagonal()
    straddles = np.zeros(num, dtype=bool)
    for ends in (fiber[:, None], fiber[None, :]):
        straddles |= np.bincount(np.unique(color * num + ends) // num, minlength=num) > 1
    leaves = np.zeros(num, dtype=bool)
    leaves[fiber] = True
    leaves &= np.bincount(color[~np.eye(cc.n, dtype=bool)], minlength=num) > 0
    bad = straddles | leaves
    if bad.any():
        s = int(np.argmax(bad))
        if straddles[s]:
            raise SchemeForgeError("color %d straddles fibers" % s)
        raise SchemeForgeError("diagonal color %d leaves the diagonal" % s)


def _unique_point(scheme, constraints, context):
    """The single point satisfying all (point, color) constraints."""
    mask = np.ones(scheme.n, dtype=bool)
    for point, col in constraints:
        mask &= scheme.color[point] == col
    hits = np.nonzero(mask)[0]
    if len(hits) == 0:
        raise sf.NoExtension(context)
    if len(hits) > 1:
        raise sf.AmbiguousExtension("%s: candidates %s" % (context, [int(h) for h in hits]))
    return int(hits[0])


def s_line(scheme, pp, s, x0, x1, length):
    """Extend x0, x1 to a line: each new point sees s from the last point
    and psi(s) from the one before; uniqueness holds because c(s,s,psi(s)) = 1."""
    if s not in pp.s3:
        raise ValueError("color %d has a doubled square; lines need the 2u+v case" % s)
    if scheme.color[x0, x1] != s:
        raise ValueError("color(x0, x1) is %d, not %d" % (int(scheme.color[x0, x1]), s))
    if length < 2:
        return (x0, x1)[:length]
    pts = [x0, x1]
    psi_s = pp.psi[s]
    while len(pts) < length:
        nxt = _unique_point(
            scheme,
            ((pts[-1], s), (pts[-2], psi_s)),
            "line step %d from %d,%d" % (len(pts), pts[-2], pts[-1]),
        )
        pts.append(nxt)
    return tuple(pts)


def plane_by_cells(scheme, pp, s, alpha, beta, gamma, delta, epsilon,
                   radius=planes.DEFAULT_RADIUS):
    """One plane, axis by axis and cell by cell, each point by its own scan
    of the n points; the first step with no or several points raises."""
    base = (alpha, beta, gamma, delta, epsilon)
    planes._check_base(scheme, pp, s, base)
    if s in pp.s2:
        grid = np.array([[-1, delta, -1], [epsilon, alpha, gamma], [-1, beta, -1]], dtype=np.int64)
        grid.setflags(write=False)
        return sf.Plane(s, base, grid)

    if radius < 1:
        raise ValueError("radius must be at least 1")
    grid = np.empty((2 * radius + 1, 2 * radius + 1), dtype=np.int64)
    o = radius  # the row and column of the origin
    # the axes from the origin through beta (+i), gamma (+j), delta (-i), epsilon (-j)
    axes = (grid[o:, o], grid[o, o:], grid[o::-1, o], grid[o, o::-1])
    for axis, second in zip(axes, (beta, gamma, delta, epsilon)):
        axis[:] = s_line(scheme, pp, s, alpha, second, radius + 1)

    phi_s = pp.phi[s]
    for i in range(1, radius + 1):
        for j in range(1, radius + 1):
            for sx in (1, -1):
                for sy in (1, -1):
                    x, y = o + sx * i, o + sy * j
                    grid[x, y] = _unique_point(
                        scheme,
                        (
                            (grid[x - sx, y], s),
                            (grid[x, y - sy], s),
                            (grid[x - sx, y - sy], phi_s),
                        ),
                        "cell (%d,%d)" % (sx * i, sy * j),
                    )
    grid.setflags(write=False)
    return sf.Plane(s, base, grid)
