from __future__ import annotations

from fractions import Fraction

import pytest

from supermin import catalog, harmonic, plucker
from supermin.field import AlgScalar
from supermin.poly import Poly

# Frozen invariants of the five family members: degrees, per-stage
# ramification totals, singularity type at both marked points, and area.
KNOWN = {
    (1, 1): ((6, 10, 12, 12, 10, 6), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 24),
    (1, 2): ((8, 14, 16, 16, 14, 8), (0, 2, 0, 0, 2, 0), (0, 1, 0, 0, 1, 0), 32),
    (2, 1): ((10, 16, 20, 20, 16, 10), (2, 0, 2, 2, 0, 2), (1, 0, 1, 1, 0, 1), 40),
    (2, 3): ((14, 24, 28, 28, 24, 14), (2, 4, 2, 2, 4, 2), (1, 2, 1, 1, 2, 1), 56),
    (3, 2): ((16, 26, 32, 32, 26, 16), (4, 2, 4, 4, 2, 4), (2, 1, 2, 2, 1, 2), 64),
}


def monomial_curve(exponents):
    return tuple(Poly.monomial(e) for e in exponents)


# ---------------------------------------------------------------------------
# oracle: monomial curves, where every stage is a Vandermonde wedge
# ---------------------------------------------------------------------------

def test_monomial_curve_degrees_oracle():
    """For f = (z^m0, ..., z^m6) stage p has order sum of the p+1 smallest
    exponents and degree sum of the p+1 largest, so the stage degree is the
    difference of the two sums -- checkable with integer arithmetic alone."""
    exps = (0, 1, 2, 4, 6, 9, 11)
    curve = monomial_curve(exps)
    degrees = plucker.degrees_exact(curve)
    for p in range(6):
        want = sum(exps[6 - p:]) - sum(exps[: p + 1])
        assert degrees[p] == want


def test_monomial_curve_types_oracle():
    exps = (0, 2, 3, 7, 8, 10, 15)
    curve = monomial_curve(exps)
    gaps = tuple(exps[i + 1] - exps[i] - 1 for i in range(6))
    assert plucker.singularity_type(curve, at=0) == gaps
    assert plucker.singularity_type(curve, at="inf") == tuple(reversed(gaps))


def test_family_degrees_match_ladder_sums(family_curves):
    # the normal-form ladder plays the role of the monomial exponents
    for (k1, k2), curve in family_curves.items():
        K = catalog.SingularityTypeSpec.from_pair(k1, k2).exponents()
        degrees = plucker.degrees_exact(curve)
        for p in range(6):
            assert degrees[p] == sum(K[6 - p:]) - sum(K[: p + 1])


# ---------------------------------------------------------------------------
# frozen invariants of the family
# ---------------------------------------------------------------------------

def test_family_singularity_types(family_curves):
    for pair, curve in family_curves.items():
        want = KNOWN[pair][2]
        assert plucker.singularity_type(curve, at=0) == want, pair
        assert plucker.singularity_type(curve, at="inf") == want, pair


def test_family_degrees_exact(family_curves):
    for pair, curve in family_curves.items():
        assert plucker.degrees_exact(curve) == KNOWN[pair][0], pair


def test_family_full_reports(family_curves):
    for pair, curve in family_curves.items():
        degrees, totals, type_both, area_pi = KNOWN[pair]
        rep = plucker.full_report(curve)
        assert rep.degrees == degrees, pair
        assert rep.totals == totals, pair
        assert rep.type_at_zero == type_both, pair
        assert rep.type_at_infinity == type_both, pair
        assert rep.area_pi_multiple == area_pi, pair


def test_family_plucker_identity(family_curves):
    for pair in family_curves:
        degrees, totals, _, _ = KNOWN[pair]
        assert plucker.plucker_identity(degrees, totals), pair


def test_family_degree_palindromy(family_curves):
    for pair, curve in family_curves.items():
        d = plucker.degrees_exact(curve)
        for p in range(6):
            assert d[p] == d[5 - p]


def test_family_symmetry_and_formula(family_curves):
    for pair in family_curves:
        degrees, totals, _, _ = KNOWN[pair]
        assert plucker.symmetry_check(totals), pair
        assert plucker.degrees_formula(totals) == degrees, pair


def test_plucker_identity_rejects_wrong_totals():
    degrees, totals, _, _ = KNOWN[(1, 2)]
    bad = (1,) + totals[1:]
    assert not plucker.plucker_identity(degrees, bad)


def test_degrees_formula_rejects_non_integer():
    with pytest.raises(ValueError):
        plucker.degrees_formula((1, 0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# areas
# ---------------------------------------------------------------------------

def test_family_areas(family_curves):
    for pair in family_curves:
        degrees, totals, _, area_pi = KNOWN[pair]
        assert plucker.area(degrees, totals) == Fraction(area_pi), pair


def test_area_audit_mismatch_raises():
    degrees, totals, _, _ = KNOWN[(1, 1)]
    with pytest.raises(ValueError, match="audit"):
        plucker.area(degrees, (1, 1, 1, 1, 1, 1))


def test_area_candidates_enumeration():
    assert plucker.area_type_candidates(24) == [(0, (0, 0))]
    # total 28 would force exactly one ramification point -- excluded
    assert plucker.area_type_candidates(28) == []
    assert plucker.area_type_candidates(28, allow_one_point=True) == [(1, (0, 1))]
    assert plucker.area_type_candidates(32) == [(2, (0, 1))]


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_interior_singularity_detected(curve11):
    pinched = tuple((Poly.monomial(1) - Poly.const(1)) * c for c in curve11)
    with pytest.raises(ValueError, match="interior"):
        plucker.degrees_exact(pinched)


def test_wedge_curves_requires_linear_fullness():
    flat = monomial_curve((0, 1, 2, 3, 4, 5, 5))
    with pytest.raises(ValueError):
        plucker.wedge_curves(flat)


def test_singularity_type_rejects_bad_point(curve11):
    with pytest.raises(ValueError):
        plucker.singularity_type(curve11, at=-1)


# ---------------------------------------------------------------------------
# numeric degrees
# ---------------------------------------------------------------------------

def test_degrees_numeric_within_tolerance(seq11, seq12):
    for seq, pair in ((seq11, (1, 1)), (seq12, (1, 2))):
        degrees = KNOWN[pair][0]
        for p in (0, 2, 3):
            est = plucker.degrees_numeric(seq, p)
            assert abs(est - degrees[p]) <= 0.01 * degrees[p], (pair, p)


def test_degrees_numeric_non_convergence(seq11):
    with pytest.raises(RuntimeError, match="converge"):
        plucker.degrees_numeric(
            seq11, 0, rel_tol=1e-13, start_nodes=8, max_nodes=16
        )


def test_report_json_shape(curve12):
    rep = plucker.full_report(curve12)
    body = rep.to_json_dict()
    assert body["area_pi"] == "32"
    assert body["delta"] == [8, 14, 16, 16, 14, 8]
    assert body["T"] == [0, 2, 0, 0, 2, 0]
    assert body["type0"] == [0, 1, 0, 0, 1, 0]
    assert body["typeInf"] == [0, 1, 0, 0, 1, 0]
