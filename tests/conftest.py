import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ordlat import presets
from ordlat.ordinal import from_int, omega_power

from .oracles import ordinal_of

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    # a failing property prints a @reproduce_failure blob that replays it
    print_blob=True,
)
# one Hermite routine serves the builder, the checker and every Span, and
# the sympy comparisons in test_intlinalg.py are its only independent
# check: CI also runs that file with --hypothesis-profile=deep
settings.register_profile(
    "deep", parent=settings.get_profile("suite"), max_examples=1000
)
settings.load_profile("suite")


# --- presentations ----------------------------------------------------------


@pytest.fixture(scope="session")
def limitq():
    return presets.limitq()


@pytest.fixture(scope="session")
def twoblock():
    return presets.twoblock()


@pytest.fixture(scope="session")
def gridrows():
    return presets.gridrows()


@pytest.fixture(scope="session")
def two_prime():
    return presets.two_prime()


@pytest.fixture(scope="session", params=["limitq", "twoblock", "gridrows"])
def any_pres(request):
    """One single-block presentation at a time, for laws that hold in all."""
    return presets.load(request.param)


# --- strategies ---------------------------------------------------------------

# ordinals below w^3 as (c2, c1, c0) triples; mirrors the addition oracle
triples = st.tuples(
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)
)
small_ordinals = st.builds(ordinal_of, triples)


def deeper_ordinals(max_exp: int = 5, max_coeff: int = 4):
    """Ordinals with a few CNF terms and exponents up to w^max_exp."""

    def build(pairs):
        seen = {}
        for e, c in pairs:
            seen[e] = max(seen.get(e, 0), c)
        acc = from_int(0)
        for e in sorted(seen, reverse=True):
            acc = acc + omega_power(from_int(e), seen[e])
        return acc

    pair = st.tuples(st.integers(0, max_exp), st.integers(1, max_coeff))
    return st.lists(pair, min_size=0, max_size=3).map(build)


def combos(pres, bound: int = 4):
    """Small integer combinations of a presentation's generators."""
    gens = pres.elements

    def build(cs):
        acc = pres.domain.zero()
        for c, g in zip(cs, gens):
            if c:
                acc = acc + c * g
        return acc

    return st.lists(
        st.integers(-bound, bound), min_size=len(gens), max_size=len(gens)
    ).map(build)
