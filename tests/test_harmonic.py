from __future__ import annotations

import copy
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supermin import catalog, g2, harmonic, plucker, twistor
from supermin.field import AlgScalar, product_sums
from supermin.poly import BiPoly, Poly, RationalFn


def pair_bipoly(u, v) -> BiPoly:
    """Hermitian pairing of two BiPoly 7-vectors."""
    acc = BiPoly()
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b.conj()
    return acc


def ladder_curve(spec, coeffs):
    """Curve sum_j c_j u_j z^(K_j) from isotropic-frame coefficients."""
    basis = g2.u_basis()
    comps = [Poly() for _ in range(7)]
    for j, (c, exp) in enumerate(zip(coeffs, spec.exponents())):
        vec = g2.scale_vec(c, basis[j])
        for a in range(7):
            if vec[a]:
                comps[a] = comps[a] + Poly.monomial(exp, vec[a])
    return tuple(comps)


# ---------------------------------------------------------------------------
# numeric oracle: the unit-gauge frame at sample points.  These float checks
# were run first and pinned the constants that the exact tests below freeze.
# ---------------------------------------------------------------------------

def test_oracle_norms_positive(seq11):
    for z in harmonic.regular_sample_points(seq11):
        for p in range(7):
            a = seq11.norm_value(p, z)
            assert abs(a.imag) < 1e-10 * abs(a)
            assert a.real > 0


def test_oracle_norm_products_at_10_points(seq11):
    """a_{3+k} a_{3-k} / a_3^2 -> 1 and a_4 a_5 / (a_3 a_6) -> 2, in float."""
    pts = harmonic.regular_sample_points(seq11)
    assert len(pts) == 10
    for z in pts:
        a = [seq11.norm_value(p, z).real for p in range(7)]
        for k in (1, 2, 3):
            assert abs(a[3 + k] * a[3 - k] / a[3] ** 2 - 1.0) < 1e-8
        assert abs(a[4] * a[5] / (a[3] * a[6]) - 2.0) < 1e-8


def test_oracle_cross_scalars_at_10_points(seq11):
    """Every frame cross product measured in the unit gauge matches the
    integer table to 1e-8: zero entries vanish, nonzero ones equal m*i."""
    for z in harmonic.regular_sample_points(seq11):
        measured = harmonic.measured_cross_constants(seq11, z)
        for (i, j), rec in measured.items():
            entry = harmonic.FRAME_CROSS_TABLE[i][j]
            if rec[0] == "zero":
                assert entry == 0, (i, j)
                assert rec[1] < 1e-8
            else:
                m, _k = entry
                assert abs(rec[1] - m * 1j) < 1e-8, (i, j)
                assert rec[2] < 1e-8


# sha256 of the float.hex of every measured_cross_constants record, at the
# curve's sample points and at 0, NaN and 30+4i; recorded from the audit on
# (re, im) float lists, so the complex-number audit must keep every bit
AUDIT_SHA256 = {
    "1_1": "6bbf16baa2f087075393aeefa0d8db013dbe82d14abed619a4e80675b771b14c",
    "1_2": "588cf351bc1982515ed5e431660872de61f94578881d57f04bf7b02789f99d8b",
    "2_1": "a4c21ee4bbe18253f763117e4214b8f4327c879664ad3b3a72feb264d2c3e3fc",
    "2_3": "29b1f2d0b6ae5968cab3a3b51124447bbea83bc080d69a48d6ea356189ee3d45",
    "3_2": "9519e9be969bf94dcc2dce7c976f8063e7b20a42b67579eb39bdc2c3aed73817",
    "50_50": "5dd2dfe0a3d9aa6ec92d885a9d5b65ec161587300cd8793f743ff1fe0fd08b7e",
    "dense": "f85963fd1a5c08db58ba204d5a2fb819155da52980bca2dc6e86a2d1cd3c8fb2",
    "lambda": "dd700d62605be7352e85efa93a2cf4dd09cf7d30144a37b0cf4ae8f2f3be13a8",
}


@pytest.mark.parametrize("name", list(AUDIT_SHA256))
def test_frame_audit_matches_its_pinned_hash(name, dense_curve):
    """Every bit of the float audit, not only the maximum error the goldens
    print: family members, the dense and lambda golden curves, and a member
    whose frame underflows to NaN at some sample points."""
    if name == "dense":
        curve = dense_curve
    elif name == "lambda":
        lam = AlgScalar.one() + AlgScalar.term(2, 1) + AlgScalar.term(3, 0, 1)
        curve = tuple(p * lam for p in catalog.example_family(1, 2))
    else:
        curve = catalog.example_family(*map(int, name.split("_")))
    seq = harmonic.build_sequence(curve)
    digest = hashlib.sha256()
    for z in harmonic.regular_sample_points(seq) + [0j, complex("nan"), 30 + 4j]:
        for key, rec in harmonic.measured_cross_constants(seq, z).items():
            parts = [f"{v.real.hex()},{v.imag.hex()}" if isinstance(v, complex) else v.hex()
                     for v in rec[1:]]
            digest.update(f"{key} {rec[0]} {' '.join(parts)}\n".encode())
    assert digest.hexdigest() == AUDIT_SHA256[name]


def test_oracle_frame_gauge_properties(seq11):
    z = 0.41 + 0.33j
    frame = np.array(harmonic._frame(seq11, z))
    # rows stay mutually orthogonal (one common scalar cannot break that)
    gram = frame @ frame.conj().T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-10
    # the middle section is normalized against the bilinear square
    mid = frame[3]
    assert abs((mid * mid).sum() - 1.0) < 1e-10
    # and the sign is pinned by the (3, 4) entry measuring +i
    w = np.array(g2.cross(frame[3], frame[4]), dtype=complex)
    c = np.vdot(frame[4], w) / np.vdot(frame[4], frame[4])
    assert abs(c - 1j) < 1e-8


# ---------------------------------------------------------------------------
# exact structure of the chain
# ---------------------------------------------------------------------------

def test_linearly_full_and_terminates(seq11, seq12):
    for seq in (seq11, seq12):
        for p in range(7):
            assert not seq.gram_det(p).is_zero()
        assert seq.gram_det(7).is_zero()
        assert seq.terminates()
        assert all(c.is_zero() for c in seq.raw_sections[7])


def test_first_section_is_the_curve(seq11):
    for c, e in zip(seq11.curve, seq11.raw_sections[0]):
        assert c.to_bipoly() == e


def test_recursion_identities(seq11):
    rec = harmonic.check_recursion(seq11)
    detail = rec["detail"]
    assert all(detail["derivative_rule"])
    assert all(detail["conjugate_derivative_rule"])
    assert detail["holomorphic_start"]
    assert detail["terminates"]
    assert rec["passed"]


def test_orthogonality_all_pairs(seq11):
    res = harmonic.orthogonality_residuals(seq11)
    assert res and all(res.values())


def test_orthogonality_direct_sections(seq11):
    # spot-check two sections directly against each other
    assert pair_bipoly(seq11.raw_sections[2], seq11.raw_sections[5]).is_zero()
    assert pair_bipoly(seq11.raw_sections[1], seq11.raw_sections[4]).is_zero()


def test_section_norm_is_det_product(seq11):
    # <E_p, E_p> = D_p * D_{p-1} ties the cofactor sections to the minors
    for p in range(7):
        lhs = pair_bipoly(seq11.raw_sections[p], seq11.raw_sections[p])
        rhs = seq11.gram_det(p) * seq11.gram_det(p - 1)
        assert lhs == rhs, p


def test_gram_det_is_wedge_norm(seq11):
    # Cauchy-Binet: D_p equals the squared norm of the p-th wedge stage,
    # summed here with plain BiPoly products rather than the outer-product
    # accumulator that builds gram_det
    for p in range(7):
        acc = BiPoly()
        for _cols, w in seq11.minors[p].items():
            wb = w.to_bipoly()
            acc = acc + wb * wb.conj()
        assert acc == seq11.gram_det(p), p


def float_gram_schmidt(curve, p, z):
    """Float Gram matrix of derivatives 0..p at z, and F_p minus its
    orthogonal projection onto F_0..F_{p-1} (coefficient 1 on F_p)."""
    tower = harmonic.derivative_tower(curve, p)
    rows = np.array([[c(z) for c in row] for row in tower])
    basis = []
    for row in rows[:p]:
        v = row - sum(np.vdot(q, row) * q for q in basis)
        basis.append(v / np.linalg.norm(v))
    section = rows[p] - sum(np.vdot(q, rows[p]) * q for q in basis)
    return rows @ rows.conj().T, section


def test_chain_matches_float_reference(curve11, dense_curve):
    """D_p and f_p from the minor table against numpy: the determinant of
    the float Gram matrix and float Gram-Schmidt of the derivatives."""
    for curve in (curve11, dense_curve):
        seq = harmonic.build_sequence(curve)
        for z in (0.52 - 0.31j, -0.7 + 0.45j, 1.1 + 0.2j):
            for p in range(7):
                gram, section = float_gram_schmidt(curve, p, z)
                want = np.linalg.det(gram)
                assert abs(seq.gram_det(p)(z) - want) <= 1e-9 * abs(want), (p, z)
                got = np.array([c(z) for c in seq.raw_sections[p]]) / seq.gram_det(p - 1)(z)
                assert np.linalg.norm(got - section) <= 1e-9 * np.linalg.norm(section), (p, z)


def test_reversed_sequence_is_the_rebuilt_chart(family_curves, dense_curve):
    """The Gram determinants at w = 1/z derived by reversal equal those of
    the chain built from scratch on w^N f(1/w), exactly; the singularity
    type at infinity, read off the source minors, equals the rebuilt
    chain's type at 0."""
    for curve in (*family_curves.values(), dense_curve):
        seq = harmonic.build_sequence(curve)
        top = max(c.degree() for c in curve)
        flipped = tuple(c.reverse(top) for c in curve)
        rebuilt = harmonic.build_sequence(flipped)
        rev = seq.reversed_sequence()
        assert not isinstance(rev, harmonic.HarmonicSequence)
        for p in range(8):
            assert rev.gram_det(p) == rebuilt.gram_det(p), p
        for w in (0.52 - 0.31j, -0.7 + 0.45j, 1.1 + 0.2j):
            for p in range(6):
                want = seq.density_value(p, 1 / w) / abs(w) ** 4
                assert abs(rev.density_value(p, w) - want) <= 1e-9 * abs(want), (p, w)
        assert plucker.singularity_type(curve, "inf") == plucker.singularity_type(flipped, 0)


def test_grid_densities_are_density_value_bit_for_bit(dense_curve):
    """The memoized densities of both charts equal the point-wise
    ``density_value`` bytes, on a first call, on a repeat from the memo and
    on a new grid key."""
    seq = harmonic.build_sequence(dense_curve)
    charts = (seq, seq.reversed_sequence())
    rng = np.random.default_rng(5)
    z = rng.uniform(-1, 1, (7, 9)) + 1j * rng.uniform(-1, 1, (7, 9))
    for p, n in ((0, 1), (2, 1), (3, 1), (3, 2), (0, 1)):
        got = harmonic.grid_densities(charts, p, n, z)
        for chart, values in zip(charts, got):
            assert values.tobytes() == chart.density_value(p, z).tobytes(), (p, n)
    assert {n for chart in charts for _, n in chart._grid_values} == {1, 2}
    # D_{-1} and |z|^0 are kept as floats: no entry is an array of a constant
    for chart in charts:
        for key, (values, _) in chart._grid_values.items():
            assert not (isinstance(values, np.ndarray) and (values == values.flat[0]).all()), key


def test_density_near_zero_matches_exact_quotient(family_curves):
    """On (3,2) the D_q vanish to order 2 c_q at 0 in both charts (c_6 = 35),
    so at |z| = 1e-6 the raw D_6 and D_5^2 underflow and p = 5 would divide
    0 by 0.  The density divides the contents out first and matches the
    exact quotient, reduced by its monomial content, to 1e-9."""
    seq = harmonic.build_sequence(family_curves[(3, 2)])
    for chart in (seq, seq.reversed_sequence()):
        d = chart.gram_det
        for p in (0, 2, 3, 5):
            exact = RationalFn(d(p + 1) * d(p - 1), d(p) * d(p))
            for z in (1e-6, -0.6e-6 + 0.8e-6j):
                got, want = chart.density_value(p, z), exact(z)
                assert np.isfinite(got), (p, z)
                assert abs(got - want) <= 1e-9 * abs(want), (p, z)


def test_reality_proportionality(seq11):
    rep = harmonic.check_reality(seq11)
    detail = rep["detail"]
    assert detail[1] and detail[2] and detail[3]
    assert detail["all_proportional"]
    assert rep["passed"]


def test_norm_products_exact(seq11):
    rep = harmonic.check_norm_products(seq11)
    assert rep["passed"]
    constants = rep["detail"]["constants"]
    assert constants["product_1_5_over_3sq"] == AlgScalar.one()
    assert constants["product_2_4_over_3sq"] == AlgScalar.one()
    assert constants["product_0_6_over_3sq"] == AlgScalar.one()
    assert constants["product_4_5_over_3_6"] == AlgScalar.rational(2)


def test_cross_table_exact_and_measured(seq11):
    rep = harmonic.check_cross_table(seq11)
    detail = rep["detail"]
    assert all(detail["zero_entries_exact"].values())
    assert all(detail["proportional_entries_exact"].values())
    assert detail["max_scalar_error"] <= harmonic._SCALAR_TOL
    assert detail["max_scalar_error"] < 1e-8
    assert rep["passed"]


# ---------------------------------------------------------------------------
# proportionality against a pivot
# ---------------------------------------------------------------------------

def wedge_vanishes(x, y) -> bool:
    return all(m.is_zero() for m in g2.wedge_pair(x, y).values())


@st.composite
def scalars(draw):
    c = AlgScalar.rational(draw(st.integers(-3, 3)))
    c = c + AlgScalar.i() * draw(st.integers(-3, 3))
    if draw(st.booleans()):
        c = c * AlgScalar.root(draw(st.sampled_from((2, 3, 5, 6))))
    return c


def entries(kind, nonzero=False):
    """Sparse BiPoly entries with at most three terms, holomorphic for
    ``kind`` "poly"."""
    keys = st.integers(0, 3) if kind == "poly" else st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = st.dictionaries(keys, scalars(), min_size=int(nonzero), max_size=3)
    built = terms.map(Poly).map(Poly.to_bipoly) if kind == "poly" else terms.map(BiPoly)
    return built.filter(bool) if nonzero else built


def zero_vec():
    return tuple(BiPoly() for _ in range(7))


@st.composite
def vector_pairs(draw):
    """(x, y) of one entry kind: independent, proportional (y = s x), with an
    all-zero side, with a single non-zero component of y, or proportional
    but for one component of x."""
    kind = draw(st.sampled_from(("poly", "bipoly")))
    vec = st.lists(entries(kind), min_size=7, max_size=7).map(tuple)
    x = draw(vec)
    shape = draw(st.sampled_from(("free", "scaled", "zero_x", "zero_y", "single", "broken")))
    if shape == "free":
        return x, draw(vec)
    if shape == "zero_x":
        return zero_vec(), draw(vec)
    if shape == "zero_y":
        return x, zero_vec()
    s = draw(entries(kind, nonzero=True))
    if shape == "single":
        c = draw(st.integers(0, 6))
        y = tuple(v if a == c else v * 0 for a, v in enumerate(x))
        return (g2.scale_vec(s, y) if draw(st.booleans()) else x), y
    y = g2.scale_vec(s, x)
    if shape == "broken":
        a = draw(st.integers(0, 6))
        bump = draw(entries(kind, nonzero=True))
        x = tuple(v + bump if b == a else v for b, v in enumerate(x))
    return x, y


@settings(max_examples=300, deadline=None)
@given(vector_pairs())
def test_proportional_matches_all_minors(pair):
    x, y = pair
    assert harmonic._proportional(x, y) == wedge_vanishes(x, y)


def test_proportional_catches_a_break_off_the_pivot():
    z = BiPoly({(1, 0): 1})
    one = BiPoly.one()
    # x[0] has one term and every other component two, so 0 is the cheapest
    # pivot; doubling a component keeps every term count, hence the pivot
    x = (one, z + one, z * z + z, z * z * z + one, z + z * z, one + z * z, z * z * z + z)
    y = g2.scale_vec(z * z + BiPoly.const(AlgScalar.root(2)), x)
    assert harmonic._proportional(x, y)
    for a in range(7):
        broken = tuple(v * 2 if b == a else v for b, v in enumerate(x))
        assert harmonic._pivot(broken, y) == 0
        assert not harmonic._proportional(broken, y), a
        assert not harmonic._proportional(y, broken), a


def with_section(seq, p, change):
    """A copy of seq whose section E_p is replaced by change(E_p), with
    none of the reality verdicts decided on seq's sections."""
    mutant = copy.copy(seq)
    sections = list(seq.raw_sections)
    sections[p] = tuple(change(list(sections[p])))
    mutant.raw_sections = tuple(sections)
    mutant._reality = {}
    return mutant


def doubled(a):
    def change(comps):
        comps[a] = comps[a] * AlgScalar.rational(2)
        return comps
    return change


def swapped(a, b):
    def change(comps):
        comps[a], comps[b] = comps[b], comps[a]
        return comps
    return change


def test_recursion_negative_controls(seq11):
    """Doubling one component of E_p breaks both structure equations at
    q = p-1 and q = p (those that pair E_p with a neighbour) and no other;
    the descending rule at 6 reads dz E_6 D_6 - E_6 dz D_6 = 0, homogeneous
    in E_6, so it stands."""
    for p in range(7):
        a = next(c for c in range(7) if seq11.raw_sections[p][c])
        rec = harmonic.check_recursion(with_section(seq11, p, doubled(a)))["detail"]
        broken = {q for q in (p - 1, p) if 0 <= q <= 5}
        assert rec["derivative_rule"] == [q not in broken for q in range(7)], p
        assert rec["conjugate_derivative_rule"] == [q not in broken for q in range(6)], p


def test_reality_negative_controls(seq11):
    """Doubling any one component of f_{3-k}, the pivot or not, or swapping
    two components of f_{3+k}, breaks exactly the k-th pairing."""
    for k in (1, 2, 3):
        upper = tuple(c.conj() for c in seq11.raw_sections[3 + k])
        pivot = harmonic._pivot(upper, seq11.raw_sections[3 - k])
        for a in range(7):
            assert seq11.raw_sections[3 - k][a], (k, a)
            rep = harmonic.check_reality(with_section(seq11, 3 - k, doubled(a)))
            detail = rep["detail"]
            assert not detail[k] and not detail["all_proportional"], (k, a, pivot)
            assert not rep["passed"], (k, a)
            assert all(detail[j] for j in (1, 2, 3) if j != k), (k, a)
        rep = harmonic.check_reality(with_section(seq11, 3 + k, swapped(pivot, (pivot + 1) % 7)))
        assert not rep["detail"][k], k


def test_cross_table_negative_control(seq11):
    """Doubling a component of f_4 other than the pivot breaks f_1 x f_6 ~ f_4
    and leaves every entry that does not involve f_4 standing."""
    sections = seq11.raw_sections
    w = g2.cross(sections[1], sections[6])
    a = 0
    assert harmonic._pivot(w, sections[4]) != a and sections[4][a]
    rep = harmonic.check_cross_table(with_section(seq11, 4, doubled(a)), samples=[])
    prop = rep["detail"]["proportional_entries_exact"]
    assert prop[(1, 6)] is False
    assert not rep["passed"]
    for (i, j), ok in prop.items():
        if 4 not in (i, j, harmonic.FRAME_CROSS_TABLE[i][j][1]):
            assert ok, (i, j)
    zero = rep["detail"]["zero_entries_exact"]
    assert all(ok for (i, j), ok in zero.items() if 4 not in (i, j))


def test_frame_cross_table_is_mirror_consistent():
    """conj(f_{6-p}) ~ f_p maps f_i x f_j to a multiple of the conjugate of
    f_{6-j} x f_{6-i}: entry (i, j) is 0 exactly when (6-j, 6-i) is, and a
    target k goes to 6-k."""
    table = harmonic.FRAME_CROSS_TABLE
    for i in range(7):
        for j in range(7):
            entry, mirror = table[i][j], table[6 - j][6 - i]
            assert (entry == 0) == (mirror == 0), (i, j)
            if entry:
                assert mirror[1] == 6 - entry[1], (i, j)


def direct_cross_table(seq):
    """The exact entries of ``check_cross_table`` from all 21 pairs, each
    component sum by its own ``product_sums`` call, with no mirror."""
    s = seq.raw_sections
    zero, prop = {}, {}
    for i in range(7):
        for j in range(i + 1, 7):
            w = [product_sums([[(sign, s[i][a], s[j][b]) for sign, a, b in comp]])[0]
                 for comp in g2.CROSS_TERMS]
            entry = harmonic.FRAME_CROSS_TABLE[i][j]
            if entry == 0:
                zero[(i, j)] = not any(w)
            else:
                prop[(i, j)] = harmonic._proportional(w, s[entry[1]])
    return zero, prop


def exact_entries(seq):
    detail = harmonic.check_cross_table(seq, samples=[])["detail"]
    return (list(detail["zero_entries_exact"].items()),
            list(detail["proportional_entries_exact"].items()))


def test_cross_table_mirror_matches_the_direct_table(seq11, seq12):
    """The exact entries, keys in order, are the 21 pairs' own: on the real
    chains, where half the table is copied from its mirror; on each chain
    with one component of one E_p doubled, where reality fails; and with
    E_0 added to E_3.  That keeps f_0 x f_3 ~ f_0 but breaks its mirror
    f_3 x f_6 ~ f_6, as f_0 x f_6 ~ f_3, so only the test of
    conj(E_3) ~ E_3 keeps the mirror off."""
    for seq in (seq11, seq12):
        sections = seq.raw_sections
        cases = [with_section(seq, p, doubled(next(a for a in range(7) if sections[p][a])))
                 for p in range(7)]
        moved = with_section(seq, 3, lambda comps: [c + e for c, e in zip(comps, sections[0])])
        for name, case in [("real", seq), *enumerate(cases), ("E_3 + E_0", moved)]:
            zero, prop = direct_cross_table(case)
            assert exact_entries(case) == (list(zero.items()), list(prop.items())), name
        moved_prop = direct_cross_table(moved)[1]
        assert moved_prop[(0, 3)] and not moved_prop[(3, 6)]


def zeroed(comps):
    return [BiPoly() for _ in comps]


def test_cross_table_mirror_needs_every_section_nonzero(seq11):
    """With E_2 = 0, conj(E_4) ~ E_2 holds vacuously, so reality alone would
    let a broken E_4 through to the mirror; the table must still be decided
    on all 21 pairs and fail where they fail."""
    mutant = with_section(with_section(seq11, 2, zeroed), 4, doubled(0))
    zero, prop = exact_entries(mutant)
    assert [ij for ij, ok in prop if not ok] == [(0, 4), (1, 6), (3, 4), (4, 5)]
    assert [ij for ij, ok in zero if not ok] == [(1, 4), (4, 6)]
    want_zero, want_prop = direct_cross_table(mutant)
    assert (zero, prop) == (list(want_zero.items()), list(want_prop.items()))


def test_nan_sample_points_fail_the_float_audit(seq11, seq12):
    """A frame that is not finite must fail part (c): the error is NaN, not
    the largest finite error of the other points.  The (1,2) member's D_2
    to D_6 vanish at 0, so there the frame divides by an exact 0.0, which
    the float audit turns into inf or NaN, as numpy does, instead of
    raising."""
    for seq, bad in ((seq11, complex("nan")), (seq12, 0j)):
        rep = harmonic.check_cross_table(seq, samples=[0.52 - 0.31j, bad])
        worst = rep["detail"]["max_scalar_error"]
        assert math.isnan(worst), bad
        assert not worst <= harmonic._SCALAR_TOL
        assert rep["passed"] is False


def test_second_curve_identities(seq12):
    # the degree-8 member satisfies the same exact identities
    reality = harmonic.check_reality(seq12)
    assert reality["detail"]["all_proportional"] and reality["passed"]
    assert harmonic.check_norm_products(seq12)["passed"]
    assert all(harmonic.orthogonality_residuals(seq12).values())


def test_two_part_chain_passes_the_exact_checks(curve12, seq12):
    """(1+i) times the (1, 2) member, the same curve projectively: every
    entry of its sections has both parts nonzero, so each zero test must
    cancel across real and imaginary rows of the product fold."""
    seq = harmonic.build_sequence(tuple(c * AlgScalar({0: (1, 1)}) for c in curve12))
    assert all(re and im for e in seq.raw_sections[:7] for c in e for re, im in c._num.values())
    assert harmonic.check_recursion(seq)["passed"]
    assert harmonic.check_reality(seq)["passed"]
    norms = harmonic.check_norm_products(seq)
    assert norms["passed"] and norms == harmonic.check_norm_products(seq12)
    detail = harmonic.check_cross_table(seq, samples=[])["detail"]
    assert all(detail["zero_entries_exact"].values())
    assert all(detail["proportional_entries_exact"].values())


def test_chain_drops_the_scalar_content(curve12, seq12):
    """The (1,2) member times 10^200 is built from its primitive parts: the
    chain's integer numerators share no factor, and the norm-product
    constants are the member's."""
    big = AlgScalar.rational(10**200)
    seq = harmonic.build_sequence(tuple(c * big for c in curve12))
    assert math.gcd(*(x for c in seq.curve for pair in c._num.values() for x in pair)) == 1
    assert harmonic.check_norm_products(seq) == harmonic.check_norm_products(seq12)


# ---------------------------------------------------------------------------
# gauge covariance
# ---------------------------------------------------------------------------

def test_gauge_covariance_under_polynomial_factor(curve11, seq11):
    """Multiplying the curve by (z + 1) rescales every norm by |z + 1|^2
    and leaves the curvature densities untouched, all exactly; the norm and
    density identities are cross-multiplied Gram determinants."""
    lam = Poly.monomial(1) + Poly.const(1)
    lam2 = lam.to_bipoly() * lam.conj_factor()
    seq2 = harmonic.build_sequence(tuple(lam * c for c in curve11))
    d, d2 = seq11.gram_det, seq2.gram_det

    power = BiPoly.one()
    for p in range(7):
        power = power * lam2  # (lam lambar)^(p+1)
        assert d2(p) == power * d(p), p

    for p in range(7):  # a2_p = |lam|^2 a_p
        assert d2(p) * d(p - 1) == lam2 * d(p) * d2(p - 1), p

    for p in range(6):  # a2_{p+1} / a2_p = a_{p+1} / a_p
        assert (d2(p + 1) * d2(p - 1)) * (d(p) * d(p)) == (d(p + 1) * d(p - 1)) * (
            d2(p) * d2(p)
        ), p


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

def test_not_linearly_full_names_failing_order():
    flat = (
        Poly.const(1),
        Poly.monomial(1),
        Poly.monomial(2),
        Poly.monomial(1) + Poly.const(1),
        Poly(),
        Poly(),
        Poly(),
    )
    with pytest.raises(ValueError, match="failing order 3"):
        harmonic.build_sequence(flat)


def test_counterexample_quadric_but_not_superhorizontal():
    """A null, linearly full curve off the horizontal distribution breaks
    the a_4 a_5 = 2 a_3 a_6 identity, so the ratio test has power."""
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    one = AlgScalar.one()
    coeffs = (one, one, one, AlgScalar.root(2), one, one, one)
    curve = ladder_curve(spec, coeffs)
    assert twistor.is_quadric_curve(curve)
    seq = harmonic.build_sequence(curve)  # raises unless linearly full
    assert not twistor.is_superhorizontal(curve)

    rep = harmonic.check_norm_products(seq)
    assert rep["detail"]["constants"]["product_4_5_over_3_6"] != AlgScalar.rational(2)
    assert not rep["passed"]


def with_gram_det(seq, p, factor):
    """A copy of seq whose D_p is multiplied by the scalar ``factor``."""
    mutant = copy.copy(seq)
    mutant._dets = tuple(d * factor if q == p else d for q, d in enumerate(seq._dets))
    return mutant


def test_norm_products_report_a_constant_but_wrong_ratio(seq12):
    """With D_6 doubled every ratio is still constant, as a_6 doubles:
    a_0 a_6 / a_3^2 reads 2, a_4 a_5 / (a_3 a_6) reads 1, and the check
    fails on those values."""
    rep = harmonic.check_norm_products(with_gram_det(seq12, 6, 2))
    constants = rep["detail"]["constants"]
    assert constants["product_0_6_over_3sq"] == AlgScalar.rational(2)
    assert constants["product_4_5_over_3_6"] == AlgScalar.one()
    assert constants["product_1_5_over_3sq"] == constants["product_2_4_over_3sq"] == 1
    assert not rep["passed"]


def cross_multiplied_constants(seq) -> dict:
    """Each norm-product ratio num / den formed in full; its constant is
    num[k] / den[k] at the first key k of den when num * den[k] == den * num[k]."""
    d = seq.gram_det
    ratios = {
        "product_1_5_over_3sq": (d(1) * d(5) * d(2) * d(2), d(0) * d(4) * d(3) * d(3)),
        "product_2_4_over_3sq": (d(2) * d(2) * d(2) * d(4), d(1) * d(3) * d(3) * d(3)),
        "product_0_6_over_3sq": (d(0) * d(6) * d(2) * d(2), d(5) * d(3) * d(3)),
        "product_4_5_over_3_6": (d(5) * d(5) * d(2), d(3) * d(3) * d(6)),
    }
    out = {}
    for name, (num, den) in ratios.items():
        k = next(iter(den.terms))
        n, m = num.terms.get(k, AlgScalar.zero()), den.terms.get(k, AlgScalar.zero())
        out[name] = n / m if num * m == den * n else None
    return out


def test_norm_constants_match_the_cross_multiplied_ratios(family_curves, dense_curve):
    """The leading-coefficient constants equal the full cross-multiplied
    ratios on the five pairs, the dense curve and the multi-radical curve,
    and on chains with D_6 scaled by 2 or by 1 + sqrt2 + i sqrt3."""
    lam = AlgScalar.one() + AlgScalar.term(2, 1) + AlgScalar.term(3, 0, 1)
    curves = [*family_curves.values(), dense_curve,
              tuple(c * lam for c in family_curves[(1, 2)])]
    seqs = [harmonic.build_sequence(c) for c in curves]
    seqs += [with_gram_det(seqs[1], 6, 2), with_gram_det(seqs[1], 6, lam)]
    for seq in seqs:
        constants = harmonic.check_norm_products(seq)["detail"]["constants"]
        assert constants == cross_multiplied_constants(seq)
        assert all(c is not None for c in constants.values())


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

def test_sample_draws_are_numpys_pcg64():
    """The seeded draws are those of np.random.default_rng(_SAMPLE_SEED):
    the same PCG64 constants and the same 10^4 uniform doubles."""
    rng = np.random.default_rng(harmonic._SAMPLE_SEED)
    state = rng.bit_generator.state
    assert state["bit_generator"] == "PCG64"
    assert state["state"] == {"state": harmonic._PCG_STATE, "inc": harmonic._PCG_INC}
    draws = harmonic._uniforms()
    assert [next(draws) for _ in range(10**4)] == [rng.uniform() for _ in range(10**4)]


def test_regular_sample_points_deterministic(seq11):
    a = harmonic.regular_sample_points(seq11)
    b = harmonic.regular_sample_points(seq11)
    assert a == b
    assert len(set(a)) == len(a)


def test_sample_points_reject_a_zero_of_the_chain(curve11, seq11):
    """A factor (z - z0) makes every D_p vanish at z0.  The draws are
    seeded, so z0, which the unfactored curve accepts first, is drawn again
    and now rejected; the other points stay."""
    want = harmonic.regular_sample_points(seq11)
    z0 = want[0]
    root = AlgScalar.term(
        1,
        Fraction(z0.real).limit_denominator(10**9),
        Fraction(z0.imag).limit_denominator(10**9),
    )
    factor = Poly.monomial(1) - Poly.const(root)
    seq = harmonic.build_sequence(tuple(factor * c for c in curve11))
    got = harmonic.regular_sample_points(seq)
    assert z0 not in got
    assert got[:9] == want[1:]
