from __future__ import annotations

import pytest

from supermin import catalog, g2, harmonic
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


@pytest.fixture(scope="session")
def g2c_matrix():
    """M = U*exp(N)*U^H in e-coordinates, U the matrix whose columns are
    the isotropic frame and N = ``g2.derivation`` with d45 = d56 = 1, the
    rest 0: an exact element of G2^C that is not diagonal in the frame."""
    n, basis = g2.derivation(0, 0, 0, 1, 0, 1), g2.u_basis()
    cols = []
    for b in range(7):
        y = g2.exp_apply(n, {a: u[b].conj() for a, u in enumerate(basis) if u[b]})
        cols.append([sum((c * basis[a][i] for a, c in y.items()), AlgScalar.zero())
                     for i in range(7)])
    return tuple(tuple(col[i] for col in cols) for i in range(7))


@pytest.fixture(scope="session")
def g2c_moved12(g2c_matrix, curve12):
    """The (1, 2) member moved by ``g2c_matrix``: its D_p are about 17 times
    as dense as the member's, and ``verify`` on it takes tens of seconds, so
    the suite runs no chain check on it."""
    return catalog.transform_curve(g2c_matrix, curve12)
