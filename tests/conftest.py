from __future__ import annotations

import pytest

from supermin import catalog, harmonic
from supermin.field import AlgScalar

# The five exponent pairs every geometric suite runs over.
FAMILY_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2))


@pytest.fixture(scope="session")
def curve11():
    return catalog.example_family(1, 1)


@pytest.fixture(scope="session")
def curve12():
    return catalog.example_family(1, 2)


@pytest.fixture(scope="session")
def family_curves():
    return {pair: catalog.example_family(*pair) for pair in FAMILY_PAIRS}


@pytest.fixture(scope="session")
def seq11(curve11):
    return harmonic.build_sequence(curve11)


@pytest.fixture(scope="session")
def seq12(curve12):
    return harmonic.build_sequence(curve12)


@pytest.fixture(scope="session")
def dense_curve():
    """The (1, 1) deformation with r2 = 1/2: D_p about three times as dense
    as the family member's."""
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    params = catalog.RFamilyParams(r1=AlgScalar.term(10, 3), r2=AlgScalar.rational(1, 2))
    return catalog.r_family(spec, params).to_curve()
