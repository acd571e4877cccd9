import random

import pytest

from brieskorn import seifert_data, validate_params
from brieskorn.errors import NotHyperbolic


def random_valid_tuples(seed, count, max_n=5, max_exponent=9):
    """Seeded corpus of hyperbolic-type exponent tuples.

    Every hyperbolic draw is kept, whatever its minima count (up to 576
    orbifold points in the default corpus).
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, max_n)
        exponents = [rng.randint(2, max_exponent) for _ in range(n)]
        try:
            params = validate_params(exponents)
        except NotHyperbolic:
            continue
        out.append(seifert_data(params))
    return out


@pytest.fixture(scope="session")
def fuzz_corpus():
    return random_valid_tuples(seed=20250808, count=1000)
