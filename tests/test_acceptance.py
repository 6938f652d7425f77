"""Acceptance gate: one test per top-level requirement.

Run with ``pytest -v tests/test_acceptance.py`` to get exactly one
pass/fail line per criterion.  Every tolerance and runtime bound is part
of the assertion, so a regression in precision or speed fails loudly.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from supermin import catalog, g2, harmonic, plucker, twistor
from supermin.field import AlgScalar
from supermin.poly import Poly

PAIRS = ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2))

EXPECTED_DEGREES = {
    (1, 1): (6, 10, 12, 12, 10, 6),
    (1, 2): (8, 14, 16, 16, 14, 8),
    (2, 1): (10, 16, 20, 20, 16, 10),
    (2, 3): (14, 24, 28, 28, 24, 14),
    (3, 2): (16, 26, 32, 32, 26, 16),
}


def test_criterion_01_cross_product_tables():
    """All 49 standard-basis products and all 49 isotropic-frame products."""
    t0 = time.perf_counter()
    for i in range(7):
        for j in range(7):
            got = g2.cross(g2.std_basis(i), g2.std_basis(j))
            entry = g2.CROSS_TABLE[i][j]
            expected = [AlgScalar.zero()] * 7
            if entry != 0:
                expected[abs(entry) - 1] = AlgScalar.rational(1 if entry > 0 else -1)
            assert list(got) == expected, ("e", i, j)
    basis = g2.u_basis()
    for i in range(7):
        for j in range(7):
            got = g2.cross(basis[i], basis[j])
            entry = g2.u_table_entry(i, j)
            if entry is None:
                assert all(c.is_zero() for c in got), ("u", i, j)
            else:
                coeff, k = entry
                assert tuple(got) == g2.scale_vec(coeff, basis[k]), ("u", i, j)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_printed_curve_matches_family():
    """The explicit degree-8 curve is 70*sqrt2 times the (1,2) member,
    component by component and coefficient by coefficient."""
    t0 = time.perf_counter()
    member = catalog.example_family(1, 2)
    scale = AlgScalar.term(2, 70)
    scaled = tuple(Poly.const(scale) * c for c in member)
    low = catalog.lowest_curve()
    assert all((a - b).is_zero() for a, b in zip(scaled, low))
    # spot value: the fourth component must be 210 sqrt10 z^4
    assert low[3] == Poly.monomial(4, AlgScalar.term(10, 210))
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_null_and_superhorizontal():
    """(f, f) = 0 and f x f' = 0 exactly for all five family members."""
    t0 = time.perf_counter()
    for pair in PAIRS:
        curve = catalog.example_family(*pair)
        assert twistor.is_quadric_curve(curve), pair
        assert twistor.is_superhorizontal(curve), pair
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_singularity_types():
    """Types at 0 and infinity equal (k1-1, k2-1, k1-1, k1-1, k2-1, k1-1)."""
    t0 = time.perf_counter()
    for k1, k2 in PAIRS:
        curve = catalog.example_family(k1, k2)
        want = (k1 - 1, k2 - 1, k1 - 1, k1 - 1, k2 - 1, k1 - 1)
        assert plucker.singularity_type(curve, at=0) == want, (k1, k2)
        assert plucker.singularity_type(curve, at="inf") == want, (k1, k2)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_degrees_three_ways(seq11, seq12):
    """Exact degrees agree with the ramification formula on all five
    curves, match the frozen values, and the quadrature reproduces them
    within 1% for stages 0, 2, 3 of the first two members."""
    t0 = time.perf_counter()
    reports = {}
    for pair in PAIRS:
        curve = catalog.example_family(*pair)
        degrees = plucker.degrees_exact(curve)
        totals = plucker.full_report(curve).totals
        assert degrees == plucker.degrees_formula(totals), pair
        assert degrees == EXPECTED_DEGREES[pair], pair
        reports[pair] = degrees
    assert time.perf_counter() - t0 < 30.0

    for seq, pair in ((seq11, (1, 1)), (seq12, (1, 2))):
        for p in (0, 2, 3):
            t1 = time.perf_counter()
            est = plucker.degrees_numeric(seq, p)
            assert time.perf_counter() - t1 < 60.0
            exact = reports[pair][p]
            assert abs(est - exact) <= 0.01 * exact, (pair, p)


def test_criterion_06_areas_and_empty_total():
    """Areas 24pi and 32pi from both routes at once, and no symmetric
    singularity data reaches a total of 28pi."""
    t0 = time.perf_counter()
    for pair, want in (((1, 1), 24), ((1, 2), 32)):
        rep = plucker.full_report(catalog.example_family(*pair))
        # area() audits delta_2 + delta_3 against 4(6 + 2 T_1 + T_2)
        assert plucker.area(rep.degrees, rep.totals) == Fraction(want), pair
        assert rep.area_pi_multiple == want
    assert plucker.area_type_candidates(28) == []
    assert plucker.area_type_candidates(24) == [(0, (0, 0))]
    assert time.perf_counter() - t0 < 5.0


def test_criterion_07_degree_ramification_recurrence():
    """T_p = -2 - delta_{p-2} + 2 delta_{p-1} - delta_p with zero boundary
    degrees, exactly, on every family member."""
    t0 = time.perf_counter()
    for pair in PAIRS:
        rep = plucker.full_report(catalog.example_family(*pair))
        assert plucker.plucker_identity(rep.degrees, rep.totals), pair
        d = (0,) + rep.degrees + (0,)
        for j in range(1, 7):
            want = -2 - d[j - 1] + 2 * d[j] - d[j + 1]
            assert rep.totals[j - 1] == want, (pair, j)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_08_harmonic_sequence_identities():
    """The full identity battery on the (1,1) and (1,2) chains.

    The unit-gauge float oracle at 10 sample points comes first and pins
    the constants to 1e-8; only then are the exact identities asserted.
    """
    t0 = time.perf_counter()
    for pair in ((1, 1), (1, 2)):
        seq = harmonic.build_sequence(catalog.example_family(*pair))

        # --- numeric oracle first -------------------------------------
        points = harmonic.regular_sample_points(seq)
        assert len(points) == 10
        for z in points:
            a = [seq.norm_value(p, z).real for p in range(7)]
            assert all(v > 0 for v in a)
            for k in (1, 2, 3):
                assert abs(a[3 + k] * a[3 - k] / a[3] ** 2 - 1.0) < 1e-8, pair
            assert abs(a[4] * a[5] / (a[3] * a[6]) - 2.0) < 1e-8, pair
            measured = harmonic.measured_cross_constants(seq, z)
            for (i, j), rec in measured.items():
                entry = harmonic.FRAME_CROSS_TABLE[i][j]
                if rec[0] == "zero":
                    assert entry == 0 and rec[1] < 1e-8, (pair, i, j)
                else:
                    assert abs(rec[1] - entry[0] * 1j) < 1e-8, (pair, i, j)

        # --- exact identities -----------------------------------------
        assert seq.terminates(), pair
        assert all(harmonic.orthogonality_residuals(seq).values()), pair
        assert harmonic.check_reality(seq)["detail"]["all_proportional"], pair
        products = harmonic.check_norm_products(seq)
        assert products["passed"], pair
        constants = products["detail"]["constants"]
        assert constants["product_4_5_over_3_6"] == AlgScalar.rational(2)
        table = harmonic.check_cross_table(seq, samples=points)["detail"]
        assert all(table["zero_entries_exact"].values()), pair
        assert all(table["proportional_entries_exact"].values()), pair
        assert table["max_scalar_error"] < 1e-8, pair
    assert time.perf_counter() - t0 < 300.0


def test_criterion_09_twistor_metric_lemmas():
    """Pushforward lengths and (anti)linearity at 50 random points to
    1e-8; equivariance under 20 random symmetries to 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    inv_sqrt2 = 1 / np.sqrt(2.0)
    for _ in range(50):
        pt = twistor.random_quadric_point(rng)
        rep = twistor.lemma_checks(pt)
        for r in rep["ratio_superhorizontal"]:
            assert abs(r - 1.0) < 1e-8
        assert abs(rep["ratio_horizontal_rest"] - inv_sqrt2) < 1e-8
        assert rep["linearity_residual"] < 1e-8
        assert rep["antilinearity_residual"] < 1e-8
    pt = twistor.random_quadric_point(rng)
    for _ in range(20):
        g = np.asarray(g2.random_g2(rng), dtype=complex)
        lhs = twistor.project(g @ pt.x)
        rhs = g.real @ twistor.project(pt.x)
        assert np.linalg.norm(lhs - rhs) < 1e-9
    assert time.perf_counter() - t0 < 10.0


def test_criterion_10_normalizer_pipeline():
    """The exact symmetry that conjugates the diagonal deformation onto
    the (1,1) member: group membership and the landing, both exact."""
    t0 = time.perf_counter()
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    r1, r8 = AlgScalar.term(10, 3), AlgScalar.one()
    assert catalog.chart_scale(spec, r1, r8) == AlgScalar.one()
    A = catalog.normalizer(spec, r1, r8)
    assert g2.g2c_membership(A)
    curve = catalog.r_family(spec, catalog.RFamilyParams(r1=r1, r8=r8)).to_curve()
    moved = catalog.transform_curve(A, curve)
    member = catalog.example_family(1, 1)
    assert all((a - b).is_zero() for a, b in zip(moved, member))
    assert time.perf_counter() - t0 < 30.0


def test_criterion_11_negative_controls(seq11):
    """The checks have power: a perturbed coefficient breaks
    superhorizontality, and a null non-superhorizontal curve breaks the
    a4 a5 = 2 a3 a6 identity."""
    # one perturbed coefficient
    curve = list(catalog.example_family(1, 1))
    terms = dict(curve[0].terms)
    exp = sorted(terms)[0]
    terms[exp] = terms[exp] * AlgScalar.rational(3, 2)
    curve[0] = Poly(terms)
    assert not twistor.is_superhorizontal(tuple(curve))

    # null and linearly full but off the horizontal distribution
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    basis = g2.u_basis()
    comps = [Poly() for _ in range(7)]
    coeffs = (
        AlgScalar.one(), AlgScalar.one(), AlgScalar.one(), AlgScalar.root(2),
        AlgScalar.one(), AlgScalar.one(), AlgScalar.one(),
    )
    for j, (c, e) in enumerate(zip(coeffs, spec.exponents())):
        vec = g2.scale_vec(c, basis[j])
        for a in range(7):
            if vec[a]:
                comps[a] = comps[a] + Poly.monomial(e, vec[a])
    control = tuple(comps)
    assert twistor.is_quadric_curve(control)
    assert not twistor.is_superhorizontal(control)
    seq = harmonic.build_sequence(control)
    constants = harmonic.check_norm_products(seq)["detail"]["constants"]
    assert constants["product_4_5_over_3_6"] != AlgScalar.rational(2)
    # while the honest member satisfies it
    honest = harmonic.check_norm_products(seq11)["detail"]["constants"]
    assert honest["product_4_5_over_3_6"] == AlgScalar.rational(2)
