"""Invariants of the osculating curves: ramification, degrees, areas.

For a linearly full polynomial curve in C^7 the minors of its
``HarmonicSequence`` are the homogeneous coordinates of its osculating
curves.  This module extracts their vanishing orders (singularity types),
computes the degrees three independent ways (exact support, the
ramification formula, numerical curvature integrals), checks the
degree/ramification recurrence, and turns degrees into areas.  The point
at infinity is read off the same minors.  Every function taking a
``curve`` also accepts a built sequence, so one table serves a report.

Index conventions used throughout: degrees delta_0..delta_5 are 0-based
(delta_p is the degree of the p-th osculating curve, with the boundary
values delta_{-1} = delta_6 = 0); ramification totals T_1..T_6 are 1-based
(T_j belongs to the (j-1)-st osculating curve), stored as 6-tuples indexed
T[j-1].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .harmonic import HarmonicSequence, build_sequence, grid_densities
# wedge_table is re-exported: perfbench/tracer.py wraps it under this name.
from .harmonic import wedge_table  # noqa: F401
from .poly import Poly, as_complex, poly_gcd, primitive_parts


def _sequence(curve) -> HarmonicSequence:
    """The chain of ``curve``, which may already be a built sequence."""
    return curve if isinstance(curve, HarmonicSequence) else build_sequence(curve)


# nothing in src/ calls it: perfbench/tracer.py wraps it by name.
def wedge_curves(curve) -> tuple:
    """Stages 0..6 of the osculating minors of the curve.

    Stage p maps each (p+1)-subset of component indices to a Poly.  A curve
    whose minors of some stage all vanish is not linearly full; that raises
    an error naming the failing order.
    """
    return tuple(_sequence(curve).minors)


def _stage_ord(stage) -> int:
    vals = [q.ord() for q in stage.values() if q]
    return min(vals)


def _stage_deg(stage) -> int:
    vals = [q.degree() for q in stage.values() if q]
    return max(vals)


def singularity_type(curve, at=0) -> tuple[int, ...]:
    """Ramification indices (r_1..r_6) of the osculating chain at a point.

    ``at`` is 0 or "inf" (math.inf also accepted).  With s_p the vanishing
    order of stage p at the point and s_{-1} = 0, the j-th index is the
    second difference s_{j+1} - 2 s_j + s_{j-1}.  At infinity s_p is the
    order at w = 0 in the chart w = 1/z: e_p (``chart_exponents``) minus
    the stage's top degree.
    """
    seq = _sequence(curve)
    if at == 0:
        s = [0] + [_stage_ord(stage) for stage in seq.minors]
    elif at in ("inf", math.inf):
        s = [0] + [e - _stage_deg(st) for st, e in zip(seq.minors, seq.chart_exponents)]
    else:
        raise ValueError("singularity_type evaluates at 0 or 'inf' only")
    out = tuple(s[j + 2] - 2 * s[j + 1] + s[j] for j in range(6))
    if any(r < 0 for r in out):
        raise ValueError(f"negative ramification index from orders {s[1:]}")
    return out


def degrees_exact(curve) -> tuple[int, ...]:
    """Degrees of osculating curves 0..5 from the minors' exact support.

    The degree is the top exponent minus the vanishing order at 0, which is
    the correct projective degree when the minors share no zero away from
    the origin.  They share one exactly when their z-free parts do, whose
    gcd is folded smallest first until it is constant; a shared interior
    zero is reported, since it would mean ramification at a third point.
    """
    stages = _sequence(curve).minors
    out = []
    for p in range(6):
        stage = stages[p]
        parts = [primitive_parts((q,))[0] for q in stage.values() if q]
        common = Poly()
        for q in sorted(parts, key=Poly.degree):
            common = poly_gcd(q, common) if common else q
            if common.degree() == 0:
                break
        if common.degree() > 0:
            raise ValueError(
                f"unexpected interior singularity: stage-{p} osculating minors "
                "share a zero away from the origin"
            )
        out.append(_stage_deg(stage) - _stage_ord(stage))
    return tuple(out)


def degrees_formula(totals) -> tuple[int, ...]:
    """Degrees 0..5 from the ramification totals alone.

    delta_p = (p+1)(6-p) + (6-p)/7 * sum_{k<p} (k+1) T[k]
                         + (p+1)/7 * sum_{k>=p} (6-k) T[k].
    """
    T = tuple(totals)
    if len(T) != 6:
        raise ValueError("expected six ramification totals")
    out = []
    for p in range(6):
        val = Fraction((p + 1) * (6 - p))
        val += Fraction(6 - p, 7) * sum((k + 1) * T[k] for k in range(p))
        val += Fraction(p + 1, 7) * sum((6 - k) * T[k] for k in range(p, 6))
        if val.denominator != 1:
            raise ValueError(f"ramification totals {T} give non-integer degree {val}")
        out.append(int(val))
    return tuple(out)


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Newton's method on P_n (three-term recurrence) from the usual cosine
    guesses, for the non-negative half of the nodes, mirrored; the weights
    are scaled to sum to 2, the length of the interval.  Elementwise float
    operations only, so no eigensolver and no BLAS.
    """
    half = (n + 1) // 2
    x = np.array([math.cos(math.pi * (i + 0.75) / (n + 0.5)) for i in range(half)])
    for _ in range(100):
        p0, p1 = np.ones(half), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if not np.max(np.abs(step)) > 1e-16:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    mirror = half - n % 2
    nodes = np.concatenate((-x[:mirror], x[::-1]))
    weights = np.concatenate((w[:mirror], w[::-1]))
    weights *= 2.0 / math.fsum(weights.tolist())
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def degrees_numeric(
    seq: HarmonicSequence,
    p: int,
    *,
    rel_tol: float = 0.01,
    start_nodes: int = 48,
    max_nodes: int = 768,
) -> float:
    """The p-th degree as (1/pi) times the integral of the curvature density.

    The density a_{p+1}/a_p = D_{p+1} D_{p-1} / D_p^2 is integrated over
    the sphere in two charts, the unit discs of z and of w = 1/z: each
    chart evaluates its own D_q, content divided out, and the chart at w
    is the reversal (``reversed_sequence``), so its density is |w|^-4
    times the first's at 1/w.  Radial Gauss-Legendre times a uniform
    angular grid, with node doubling until two successive estimates agree.
    The values come from ``harmonic.grid_densities``: real parts only, and
    each D_q of each chart evaluated once per grid n and kept on its chart,
    so the calls for p = 0, 2, 3 on one chain share them; the memo goes
    with the chain.  The weighted values are added by ``math.fsum``, which
    rounds the exact sum once, so no summation order shows.
    """
    if not 0 <= p <= 5:
        raise ValueError("degree index must lie in 0..5")
    charts = (seq, seq.reversed_sequence())

    def estimate(n: int) -> float:
        x, w = _gauss_legendre(n)
        r = 0.5 * (x + 1.0)
        wr = 0.5 * w * r
        m = 2 * n
        angles = [2.0 * math.pi * j / m for j in range(m)]
        z = as_complex(r[:, None] * np.array([math.cos(t) for t in angles]),
                       r[:, None] * np.array([math.sin(t) for t in angles]))
        parts = [(d * wr[:, None]).ravel().tolist()
                 for d in grid_densities(charts, p, n, z)]
        return math.fsum(parts[0] + parts[1]) * (2.0 * math.pi / m) / math.pi

    prev = estimate(start_nodes)
    n = start_nodes
    while n < max_nodes:
        n *= 2
        cur = estimate(n)
        if abs(cur - prev) <= 0.25 * rel_tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise RuntimeError(f"quadrature did not converge; achieved estimate {prev:.6f}")


# --------------------------------------------------------------------- report


@dataclass(frozen=True)
class SingularityReport:
    """Everything the degree/area bookkeeping of one curve produces."""

    type_at_zero: tuple[int, ...]
    type_at_infinity: tuple[int, ...]
    totals: tuple[int, ...]
    degrees: tuple[int, ...]
    area_pi_multiple: int

    def to_json_dict(self) -> dict:
        return {
            "type0": list(self.type_at_zero),
            "typeInf": list(self.type_at_infinity),
            "T": list(self.totals),
            "delta": list(self.degrees),
            "area_pi": str(self.area_pi_multiple),
        }


def full_report(curve) -> SingularityReport:
    """Types at both singular points, totals, exact degrees, and the area.

    The ramification-formula degrees are computed alongside and must agree
    with the exact ones; a mismatch raises instead of reporting quietly.
    """
    seq = _sequence(curve)
    t0 = singularity_type(seq, 0)
    tinf = singularity_type(seq, "inf")
    totals = tuple(a + b for a, b in zip(t0, tinf))
    deg = degrees_exact(seq)
    from_formula = degrees_formula(totals)
    if deg != from_formula:
        raise ValueError(
            f"degree methods disagree: support gives {deg}, "
            f"ramification formula gives {from_formula}"
        )
    report = SingularityReport(
        type_at_zero=t0,
        type_at_infinity=tinf,
        totals=totals,
        degrees=deg,
        area_pi_multiple=int(area(deg, totals)),
    )
    return report


def plucker_identity(degrees, totals) -> bool:
    """The degree/ramification recurrence at every stage.

    With the boundary values delta_{-1} = delta_6 = 0, stage j must satisfy
    T_j = -2 - delta_{j-2} + 2 delta_{j-1} - delta_j.
    """
    d = (0,) + tuple(degrees) + (0,)

    def delta(i: int) -> int:
        return d[i + 1]

    return all(
        totals[j - 1] == -2 - delta(j - 2) + 2 * delta(j - 1) - delta(j)
        for j in range(1, 7)
    )


def symmetry_check(totals) -> bool:
    """The two-point symmetric pattern (a, b, a, a, b, a) of the totals."""
    T = tuple(totals)
    return T[0] == T[5] and T[1] == T[4] and T[2] == T[3] and T[2] == T[0]


def area(degrees, totals) -> Fraction:
    """Area of the middle map as a multiple of pi, audited two ways.

    The degree route gives delta_2 + delta_3; the ramification route gives
    4*(6 + 2*T_1 + T_2).  Both must agree -- a mismatch would mean the
    index conventions drifted, so it raises rather than picking one.
    """
    by_degree = Fraction(degrees[2] + degrees[3])
    by_type = Fraction(4 * (6 + 2 * totals[0] + totals[1]))
    if by_degree != by_type:
        raise ValueError(
            f"area convention audit failed: degrees give {by_degree}*pi, "
            f"ramification gives {by_type}*pi"
        )
    return by_degree


def area_type_candidates(pi_multiple: int, *, allow_one_point: bool = False) -> list:
    """Symmetric ramification data compatible with a given total area.

    Each candidate is (number of ramification points, per-point (a, b))
    where the per-point type is (a, b, a, a, b, a) and all points carry the
    same type.  Point counts 0 and 2 are the admissible ones; a single
    ramification point is known to be impossible for these spheres and is
    only enumerated when explicitly requested.
    """
    if pi_multiple % 4:
        return []
    m = pi_multiple // 4 - 6
    if m < 0:
        return []
    counts = (0, 2) + ((1,) if allow_one_point else ())
    out = []
    for npts in counts:
        if npts == 0:
            if m == 0:
                out.append((0, (0, 0)))
            continue
        for a in range(m // (2 * npts) + 1):
            rem = m - 2 * npts * a
            if rem >= 0 and rem % npts == 0 and (a, rem // npts) != (0, 0):
                out.append((npts, (a, rem // npts)))
    return out
