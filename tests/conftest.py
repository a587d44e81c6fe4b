import itertools

import numpy as np
import pytest
from hypothesis import settings

import scheme_forge as sf

# Property tests replay the same examples on every run and stay quick.
# The "ci" profile (pytest --hypothesis-profile=ci) runs more of them.
settings.register_profile("scheme-forge", derandomize=True, deadline=None, max_examples=30)
settings.register_profile("ci", settings.get_profile("scheme-forge"), max_examples=500)
settings.load_profile("scheme-forge")

# criterion label -> "PASS"/"FAIL", filled in by test_acceptance.py
ACCEPTANCE_RESULTS: dict[str, str] = {}


@pytest.fixture(scope="session")
def z5():
    return sf.orbital_scheme(sf.cyclotomic_frobenius(5))


@pytest.fixture(scope="session")
def z13():
    return sf.orbital_scheme(sf.cyclotomic_frobenius(13))


@pytest.fixture(scope="session")
def z17():
    return sf.orbital_scheme(sf.cyclotomic_frobenius(17))


@pytest.fixture(scope="session")
def z29():
    return sf.orbital_scheme(sf.cyclotomic_frobenius(29))


@pytest.fixture(scope="session")
def v25():
    return sf.orbital_scheme(sf.vector_frobenius(5, 2))


@pytest.fixture(scope="session")
def c53():
    return sf.orbital_scheme(sf.cyclotomic_frobenius(53))


@pytest.fixture(scope="session")
def c101():
    return sf.orbital_scheme(sf.cyclotomic_frobenius(101))


@pytest.fixture(scope="session")
def v125():
    return sf.orbital_scheme(sf.vector_frobenius(5, 3))


@pytest.fixture(scope="session")
def c197():
    return sf.orbital_scheme(sf.cyclotomic_frobenius(197))


@pytest.fixture(scope="session")
def c401():
    return sf.orbital_scheme(sf.cyclotomic_frobenius(401))


@pytest.fixture(scope="session")
def thin120():
    # the thin scheme of Z_120: color(x, y) = y - x, 120 colors of valency 1
    points = np.arange(120)
    return sf.from_matrix((points[None, :] - points[:, None]) % 120)


@pytest.fixture(scope="session")
def f9_group():
    # F_9 = Z_3[i] with point a + 3b for a + bi: translations by 1 and by i,
    # then multiplication by i, (a, b) -> (-b, a)
    pts = [(a, b) for b in range(3) for a in range(3)]
    index = lambda a, b: a % 3 + 3 * (b % 3)
    gens = [tuple(index(a + 1, b) for a, b in pts), tuple(index(a, b + 1) for a, b in pts),
            tuple(index(-b, a) for a, b in pts)]
    return sf.PermGroup(9, tuple(gens))


@pytest.fixture(scope="session")
def f9(f9_group):
    return sf.orbital_scheme(f9_group)


@pytest.fixture(scope="session")
def f9_squared_group():
    # F_9^2 as Z_3^4, multiplication by i on both F_9 coordinates: 81 points,
    # 21 colors, with independent pairs among the 2u+v colors
    pts = list(itertools.product(range(3), repeat=4))
    index = {p: i for i, p in enumerate(pts)}
    perm = lambda f: tuple(index[f(p)] for p in pts)
    gens = [perm(lambda p, k=k: tuple((x + (j == k)) % 3 for j, x in enumerate(p)))
            for k in range(4)]
    gens.append(perm(lambda p: (-p[1] % 3, p[0], -p[3] % 3, p[2])))
    return sf.PermGroup(81, tuple(gens))


@pytest.fixture(scope="session")
def f9_squared(f9_squared_group):
    return sf.orbital_scheme(f9_squared_group)


def _cayley_scheme_z4z4(connection):
    pts = [(i, j) for i in range(4) for j in range(4)]
    adjacent = np.array(
        [[((a[0] - b[0]) % 4, (a[1] - b[1]) % 4) in connection for b in pts] for a in pts]
    )
    color = np.where(adjacent, 1, 2)
    np.fill_diagonal(color, 0)
    return sf.from_matrix(color)


@pytest.fixture(scope="session")
def shrikhande():
    # SRG(16,6,2,2) with |Aut| = 192
    return _cayley_scheme_z4z4({(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)})


@pytest.fixture(scope="session")
def rook():
    # the 4x4 rook's graph, SRG(16,6,2,2) with |Aut| = 2 * 24**2 = 1152
    return _cayley_scheme_z4z4({(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)})


@pytest.fixture(scope="session")
def paley13():
    squares = {x * x % 13 for x in range(1, 13)}
    return sf.from_matrix(np.array([[0 if x == y else 1 if (x - y) % 13 in squares else 2
                                     for y in range(13)] for x in range(13)]))


@pytest.fixture(scope="session")
def random_graph():
    def build(n, seed):
        """A seeded random symmetric matrix: 0 on the diagonal, 1 or 2 off it."""
        upper = np.triu(np.random.default_rng(seed).integers(1, 3, size=(n, n)), 1)
        return upper + upper.T
    return build


@pytest.fixture(scope="session")
def battery(z5, z13, z17, z29, v25):
    return {"z5": z5, "z13": z13, "z17": z17, "z29": z29, "v25": v25}


@pytest.fixture(scope="session")
def auts(battery):
    return {name: sf.automorphism_group(s) for name, s in battery.items()}


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line("%s: %s" % (label, ACCEPTANCE_RESULTS[label]))
