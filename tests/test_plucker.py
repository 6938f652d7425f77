from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from supermin import catalog, cli, harmonic, plucker, twistor
from supermin.poly import Poly
from supermin.serialize import curve_to_obj, dumps_canonical

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
    assert plucker.area_type_candidates(32) == [(2, (0, 1))]


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def compose(p: Poly, g: Poly) -> Poly:
    """p(g(z)), by Horner's rule."""
    out = Poly()
    for e in range(p.degree(), -1, -1):
        out = out * g + Poly.const(p.terms.get(e, 0))
    return out


# Curves ramified away from 0 and infinity.
INTERIOR = {
    # every component vanishes at z = 1, so every stage does
    "pinched": lambda: tuple(Poly({0: -1, 1: 1}) * c for c in catalog.example_family(1, 1)),
    # the derivative vanishes at z = 1 (stage 1, see below)
    "composed": lambda: tuple(compose(c, Poly({0: 1, 1: -2, 2: 1}))
                              for c in catalog.example_family(1, 2)),
    # every stage vanishes at the 2000th roots of unity
    "times_z2000_minus_1": lambda: tuple(Poly({0: -1, 2000: 1}) * c
                                         for c in catalog.example_family(1, 2)),
    # a component of two terms 10^30 apart
    "far_apart": lambda: (Poly({3000: 1, 10**30: 1}),) + catalog.example_family(1, 2)[1:],
    # stages 0..5 have a constant minor; the Wronskian is 174182400 (z - 1)
    "last_stage": lambda: tuple(Poly.monomial(e) for e in range(6)) + (Poly({6: -7, 7: 1}),),
}


@pytest.mark.parametrize("name", sorted(INTERIOR))
def test_interior_singularity_detected(name, tmp_path, capsys):
    """A zero away from 0 shared by the minors of any stage is one of the
    Wronskian, which then has more than one term; report refuses the curve
    in one line."""
    curve = INTERIOR[name]()
    with pytest.raises(ValueError, match="interior singularity"):
        plucker.degrees_exact(curve)
    path = tmp_path / "curve.json"
    path.write_text(dumps_canonical(curve_to_obj(curve)))
    assert cli.main(["report", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("verification failed:"), err


def test_stage_one_interior_singularity_detected(curve12):
    """Negative control for stage 1: the (1,2) member composed with
    (z - 1)^2 is still null and superhorizontal, and its components share
    no zero, but its derivative vanishes at z = 1, so every stage-1 minor
    does."""
    g = Poly({0: 1, 1: -2, 2: 1})
    composed = tuple(compose(c, g) for c in curve12)
    assert twistor.is_quadric_curve(composed) and twistor.is_superhorizontal(composed)
    with pytest.raises(ValueError, match="interior singularity"):
        plucker.degrees_exact(composed)


@pytest.mark.parametrize("pair, degrees", [
    ((1, 50), (104, 206, 208, 208, 206, 104)),
    ((50, 1), (202, 304, 404, 404, 304, 202)),
])
def test_lopsided_member_degrees(pair, degrees):
    """Every minor of a stage of these members shares a power of z, and
    their Wronskian is a single term, so no zero lies away from 0."""
    assert plucker.degrees_exact(catalog.example_family(*pair)) == degrees


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


def test_degrees_numeric_is_blind_to_call_order(dense_curve):
    """The quadrature's memo changes no float: p = 0, 2, 3 on one chain, in
    reverse on another, and each on a fresh chain give the same bytes."""
    seq = harmonic.build_sequence(dense_curve)
    forward = [plucker.degrees_numeric(seq, p) for p in (0, 2, 3)]
    seq = harmonic.build_sequence(dense_curve)
    backward = [plucker.degrees_numeric(seq, p) for p in (3, 2, 0)][::-1]
    fresh = [plucker.degrees_numeric(harmonic.build_sequence(dense_curve), p) for p in (0, 2, 3)]
    assert [x.hex() for x in forward] == [x.hex() for x in backward] == [x.hex() for x in fresh]


def test_report_evaluates_each_gram_determinant_once_per_grid(dense_curve, monkeypatch, tmp_path):
    """One report of the dense curve evaluates each content-free D_q of each
    chart at most once per quadrature grid, real parts only; the densities
    of p = 0, 2, 3 share D_1, D_2 and D_3."""
    seqs, modes, counts = [], set(), {}
    build, evaluate = harmonic.build_sequence, harmonic.evaluate

    def counting_build(curve):
        seqs.append(build(curve))
        return seqs[-1]

    def counting_evaluate(polys, zr, zi, **kw):
        modes.add(kw.get("real_only", False))
        for d in polys:
            counts[id(d), np.size(zr)] = counts.get((id(d), np.size(zr)), 0) + 1
        return evaluate(polys, zr, zi, **kw)

    monkeypatch.setattr(harmonic, "build_sequence", counting_build)
    monkeypatch.setattr(harmonic, "evaluate", counting_evaluate)
    assert cli._report_body(str(tmp_path / "r.json"), dense_curve) == 0
    (seq,) = seqs
    dets = {id(d): (chart, q) for chart in (seq, seq.reversed_sequence())
            for q, (d, _) in enumerate(chart._content_free[:6], start=-1)}
    seen = {(dets[i], n): c for (i, n), c in counts.items() if i in dets}
    assert len(seen) == 2 * 6 * 2  # two charts, D_-1..D_4, grids n = 48 and 96
    assert set(seen.values()) == {1}
    assert modes == {True}


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
