import random

import numpy as np
import pytest

from brieskorn import seifert_data, validate_params
from brieskorn.errors import NotHyperbolic


def pytest_report_header(config):
    """The numpy build under the lab's byte-identical reports.

    The residuals are rounding noise. The lab calls no BLAS or LAPACK
    routine, so the BLAS line names only the library that the
    kernel-independence test of ``test_lab_reports`` forces a kernel of
    (it runs where that is OpenBLAS). numpy's elementwise loops, its
    complex division among them, still round every array operation, so a
    digest that fails on one machine and passes on another can be told
    apart from a change of the code by these lines.
    """
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return f"numpy {np.__version__}"
    blas = info.get("Build Dependencies", {}).get("blas", {})
    simd = info.get("SIMD Extensions", {})
    return [
        f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"
        f" ({blas.get('openblas configuration', 'no build string')})",
        f"numpy SIMD baseline: {' '.join(simd.get('baseline', []))};"
        f" dispatch targets found: {' '.join(simd.get('found', []))}",
    ]


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
