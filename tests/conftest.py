import pytest
from hypothesis import settings

import scheme_forge as sf

# Property tests replay the same examples on every run and stay quick.
settings.register_profile("scheme-forge", derandomize=True, deadline=None, max_examples=30)
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
def f9():
    # F_9 = Z_3[i] with point a + 3b for a + bi: translations by 1 and by i,
    # then multiplication by i, (a, b) -> (-b, a)
    pts = [(a, b) for b in range(3) for a in range(3)]
    index = lambda a, b: a % 3 + 3 * (b % 3)
    gens = [tuple(index(a + 1, b) for a, b in pts), tuple(index(a, b + 1) for a, b in pts),
            tuple(index(-b, a) for a, b in pts)]
    return sf.orbital_scheme(sf.PermGroup(9, tuple(gens)))


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
