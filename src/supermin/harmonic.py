"""Harmonic sequences of holomorphic curves in C^7, in exact arithmetic.

Starting from a polynomial curve f0 the module produces the full chain of
osculating directions f0, f1, ..., f6 ("the sequence") together with the
Gram determinants and the ladder of identities that a superminimal almost
complex 2-sphere must satisfy.

Everything is read off one table of osculating minors: with F_i the i-th
z-derivative of f0, W_p[S] = det [F_i[c]] over rows i = 0..p and the sorted
(p+1)-subset S of components.  By Cauchy-Binet the Gram determinant
D_p = det [<F_i, F_j>] (i, j = 0..p) and the unnormalized section E_p (the
Gram-Schmidt direction of F_p against F_0..F_{p-1}, times D_{p-1}) are

    D_p    = sum_S W_p[S] * conj(W_p[S]),
    E_p[c] = sum_{|S|=p, c not in S} (-1)^(pos(c in S+c) + p)
             * W_p[S+c] * conj(W_{p-1}[S]),

so f_p = E_p / D_{p-1} and a_p = D_p / D_{p-1}.  D_7 and E_7 vanish, as
C^7 has no 8-subsets of columns.  The chart w = 1/z needs no second build:
w^N f(1/w) (N the top degree) has minors (-1)^(p(p+1)/2) w^e_p W_p(1/w) with
e_p = (p+1)(N-p).  So its stage-p vanishing order at w = 0 is e_p minus the
top degree of W_p, and its D_p is this chain's reversed by e_p; nothing else
of that chart is formed.

Identity checks are done on the polynomial level by cross-multiplication
(never by rational-function division), which keeps everything exact.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

import numpy as np

from .field import AlgScalar
# wedge_pair is re-exported: perfbench/tracer.py wraps it under this name.
from .g2 import cross, proportional, wedge_pair  # noqa: F401
from .poly import BiPoly, Poly, RationalFn, hermitian_sum

_DIM = 7
# the float part of the cross-table check: a fixed, seeded set of points
# where each |D_p| is at least _MIN_NORM times the sum of its terms' moduli,
# and the error allowed in each measured frame constant
_SAMPLE_COUNT = 10
_SAMPLE_SEED = 2026
_MIN_NORM = 1e-8
_SCALAR_TOL = 1e-8


def _curve_tuple(curve) -> tuple[Poly, ...]:
    comps = tuple(curve)
    if len(comps) != _DIM or not all(isinstance(c, Poly) for c in comps):
        raise TypeError("curve must be a sequence of 7 Poly components")
    return comps


def derivative_tower(curve, order: int) -> tuple[tuple[Poly, ...], ...]:
    """The curve and its first ``order`` z-derivatives, as 7-vectors."""
    tower = [_curve_tuple(curve)]
    for _ in range(order):
        tower.append(tuple(c.diff() for c in tower[-1]))
    return tuple(tower)


def wedge_table(tower) -> list[dict[tuple[int, ...], Poly]]:
    """Minors of the derivative tower: stage p maps each sorted (p+1)-subset
    of component indices to det [tower[i][c]] (rows i = 0..p, columns c).

    Stage p collects the homogeneous coordinates of the p-th osculating
    curve.  Built by expanding along the last row, reusing stage p-1.
    """
    stages: list[dict[tuple[int, ...], Poly]] = [
        {(c,): tower[0][c] for c in range(_DIM)}
    ]
    for p in range(1, len(tower)):
        prev = stages[p - 1]
        row = tower[p]
        cur: dict[tuple[int, ...], Poly] = {}
        for cols in combinations(range(_DIM), p + 1):
            acc = Poly()
            for t, c in enumerate(cols):
                if not row[c]:
                    continue
                sub = prev[cols[:t] + cols[t + 1 :]]
                if not sub:
                    continue
                term = row[c] * sub
                acc = acc + term if (p + t) % 2 == 0 else acc - term
            cur[cols] = acc
        stages.append(cur)
    return stages


class HarmonicSequence:
    """The full osculating chain of a linearly full holomorphic curve.

    Construction builds the minor table and rejects a curve that is not
    linearly full; the other attributes are derived from it on first use.

    Attributes
    ----------
    curve : the defining 7-vector of Poly.
    derivatives : tower of z-derivatives, orders 0..6.
    minors : the osculating minors W_0..W_6 (``wedge_table`` of the tower).
    raw_sections : unnormalized sections E_0..E_7 (7-vectors of BiPoly).
    ``norm_value`` and ``density_value`` evaluate the squared norm a_p and
    the curvature density a_{p+1}/a_p from the values of the D_p.
    """

    def __init__(self, curve):
        self.curve = _curve_tuple(curve)
        self.derivatives = derivative_tower(self.curve, _DIM - 1)
        self.minors = wedge_table(self.derivatives)
        for p, stage in enumerate(self.minors):
            if not any(stage.values()):
                raise ValueError(
                    "curve is not linearly full: derivatives of orders "
                    f"0..{p} are linearly dependent (failing order {p})"
                )
        self._reversed: _ChartAtInfinity | None = None

    @cached_property
    def _dets(self) -> tuple[BiPoly, ...]:
        dets = [hermitian_sum((1, w, w) for w in stage.values() if w) for stage in self.minors]
        return (*dets, BiPoly())

    def gram_det(self, p: int) -> BiPoly:
        """D_p for p = -1..7, with D_{-1} = 1."""
        if p == -1:
            return BiPoly.one()
        return self._dets[p]

    @cached_property
    def chart_exponents(self) -> tuple[int, ...]:
        """e_p = (p+1)(N-p), N the top degree: stage p's reversal degree at w = 1/z."""
        top = max(c.degree() for c in self.curve)
        return tuple((p + 1) * (top - p) for p in range(_DIM))

    @cached_property
    def raw_sections(self) -> tuple[tuple[BiPoly, ...], ...]:
        sections = [tuple(c.to_bipoly() for c in self.curve)]
        for p in range(1, _DIM):
            prev = self.minors[p - 1]
            terms: list[list] = [[] for _ in range(_DIM)]
            for cols, w in self.minors[p].items():
                if not w:
                    continue
                for pos, c in enumerate(cols):
                    sub = prev[cols[:pos] + cols[pos + 1 :]]
                    if sub:
                        terms[c].append((-1 if (pos + p) % 2 else 1, w, sub))
            sections.append(tuple(hermitian_sum(t) for t in terms))
        sections.append(tuple(BiPoly() for _ in range(_DIM)))
        return tuple(sections)

    def terminates(self) -> bool:
        """True when the chain closes up: the 7th section is identically 0."""
        return self.gram_det(_DIM).is_zero() and all(
            c.is_zero() for c in self.raw_sections[_DIM]
        )

    def reversed_sequence(self) -> _ChartAtInfinity:
        """The Gram determinants of the curve pulled back through z -> 1/z.

        Components are multiplied by z^N to clear poles, which is a gauge
        change and leaves every projective invariant untouched.  Only D_p,
        reversed from this chain's, and the density are offered.
        """
        if self._reversed is None:
            self._reversed = _ChartAtInfinity(self)
        return self._reversed

    # ------------------------------------------------------------- evaluation

    def section_value(self, p: int, z: complex) -> np.ndarray:
        """Float value of f_p at z (denominator must not vanish there)."""
        den = complex(self.gram_det(p - 1)(z))
        return np.array([comp(z) for comp in self.raw_sections[p]]) / den

    def norm_value(self, p: int, z: complex) -> complex:
        """Float value of a_p = D_p / D_{p-1} at z."""
        return self.gram_det(p)(z) / self.gram_det(p - 1)(z)

    def density_value(self, p: int, z):
        """Float a_{p+1}/a_p = D_{p+1} D_{p-1} / D_p^2 at z, a point or an array.

        Each D_q is divided by its content |z|^(2 c_q) before it is evaluated,
        which keeps small |z| from underflowing; the factor |z|^(2k) left over
        (k = c_{p+1} - 2 c_p + c_{p-1}, the ramification index) is applied once.
        """
        dets = [self.gram_det(q) for q in (p - 1, p, p + 1)]
        c = [d.content()[0] for d in dets]
        lo, mid, hi = (d.shift_down(e, e)(z) for d, e in zip(dets, c))
        return hi * lo / (mid * mid) * abs(z) ** (2 * (c[2] - 2 * c[1] + c[0]))


class _ChartAtInfinity:
    """The Gram determinants of ``source`` in the chart w = 1/z.

    D_p is the source's reversed by e_p in z and zbar (``chart_exponents``).
    ``gram_det`` and ``density_value`` are HarmonicSequence's, read over
    these D_p; as e_p has second difference -2, the density is |w|^-4 times
    the source's at 1/w.
    """

    def __init__(self, source: HarmonicSequence):
        dets = [source.gram_det(p).reverse(e) for p, e in enumerate(source.chart_exponents)]
        self._dets = (*dets, BiPoly())

    gram_det = HarmonicSequence.gram_det
    density_value = HarmonicSequence.density_value


def build_sequence(curve) -> HarmonicSequence:
    """Construct the osculating chain of a linearly full polynomial curve."""
    return HarmonicSequence(curve)


# ------------------------------------------------------------------ identities


def check_recursion(seq: HarmonicSequence) -> dict:
    """The two structure equations of the chain, in cross-multiplied form.

    Descending: dz E_p * D_p - E_p * dz D_p = E_{p+1} * D_{p-1} says that
    differentiating f_p and removing its f_p component lands exactly on
    f_{p+1}.  Ascending: dzbar E_{p+1} * D_p - E_{p+1} * dzbar D_p
    + D_{p+1} * E_p = 0 says the conjugate derivative of f_{p+1} falls back
    onto f_p with density -a_{p+1}/a_p.
    """
    down = []
    for p in range(_DIM):
        dp = seq.gram_det(p)
        dprev = seq.gram_det(p - 1)
        ok = True
        for c in range(_DIM):
            e = seq.raw_sections[p][c]
            enext = seq.raw_sections[p + 1][c]
            lhs = e.diff_z() * dp - e * dp.diff_z()
            if not (lhs - enext * dprev).is_zero():
                ok = False
                break
        down.append(ok)
    up = []
    for p in range(_DIM - 1):
        dp = seq.gram_det(p)
        dnext = seq.gram_det(p + 1)
        ok = True
        for c in range(_DIM):
            e = seq.raw_sections[p][c]
            enext = seq.raw_sections[p + 1][c]
            lhs = enext.diff_zbar() * dp - enext * dp.diff_zbar() + dnext * e
            if not lhs.is_zero():
                ok = False
                break
        up.append(ok)
    holo = all(c.to_bipoly().diff_zbar().is_zero() for c in seq.curve)
    return {
        "derivative_rule": down,
        "conjugate_derivative_rule": up,
        "holomorphic_start": holo,
        "terminates": seq.terminates(),
    }


def orthogonality_residuals(seq: HarmonicSequence) -> dict:
    """Exact pairings <E_q, F_i> for i < q; all must vanish identically.

    Since each earlier section is a combination of the derivatives F_0..F_p
    with p < q, this is equivalent to mutual orthogonality of the sections.
    """
    out = {}
    for q in range(1, _DIM + 1):
        for i in range(q):
            val = BiPoly()
            for c in range(_DIM):
                f = seq.derivatives[i][c]
                e = seq.raw_sections[q][c]
                if f and e:
                    val = val + e * f.conj_factor()
            out[(q, i)] = val.is_zero()
    return out


def check_reality(seq: HarmonicSequence) -> dict:
    """Pointwise proportionality conj(f_{3+k}) ~ f_{3-k} for k = 1, 2, 3.

    Tested projectively on the pair of unnormalized sections, which is
    gauge-free: against one pivot component c where f_{3-k} is not
    identically 0, each other component a must satisfy
    conj(E_{3+k})[a] * E_{3-k}[c] == conj(E_{3+k})[c] * E_{3-k}[a]
    (``g2.proportional``).  BiPolys form an integral domain, so this is
    the vanishing of every 2x2 minor.
    """
    report = {}
    for k in (1, 2, 3):
        upper = tuple(c.conj() for c in seq.raw_sections[3 + k])
        report[k] = proportional(upper, seq.raw_sections[3 - k])
    report["all_proportional"] = all(report[k] for k in (1, 2, 3))
    return report


def check_norm_products(seq: HarmonicSequence) -> dict:
    """Scale-invariant norm identities of the chain.

    a_{3+k} * a_{3-k} / a_3^2 must be the constant 1 for k = 1, 2, 3, and
    a_4 * a_5 / (a_3 * a_6) must be the constant 2.  Each ratio is formed
    from the Gram determinants directly and tested for constancy exactly.
    The report carries the measured constants so an unexpected value is
    visible rather than silently compared.
    """
    d = seq.gram_det
    ratios = {
        "product_1_5_over_3sq": (d(1) * d(5) * d(2) * d(2), d(0) * d(4) * d(3) * d(3)),
        "product_2_4_over_3sq": (d(2) * d(2) * d(2) * d(4), d(1) * d(3) * d(3) * d(3)),
        "product_0_6_over_3sq": (d(0) * d(6) * d(2) * d(2), d(5) * d(3) * d(3)),
        "product_4_5_over_3_6": (d(5) * d(5) * d(2), d(3) * d(3) * d(6)),
    }
    expected = {
        "product_1_5_over_3sq": AlgScalar.one(),
        "product_2_4_over_3sq": AlgScalar.one(),
        "product_0_6_over_3sq": AlgScalar.one(),
        "product_4_5_over_3_6": AlgScalar.rational(2),
    }
    constants: dict[str, AlgScalar | None] = {}
    passed: dict[str, bool] = {}
    for name, (num, den) in ratios.items():
        try:
            c = RationalFn(num, den).constant_value()
        except ValueError:
            c = None
        constants[name] = c
        passed[name] = c == expected[name]
    return {
        "constants": constants,
        "expected": expected,
        "passed": passed,
        "all_passed": all(passed.values()),
    }


# The cross-product multiplication table of the normalized chain: entry
# (i, j) is either 0 (the product vanishes identically) or a pair (m, k)
# meaning f_i x f_j = m * i * f_k in the gauge where the middle section has
# unit norm and is real.  Projectively the target direction and the zero
# entries are gauge-free; the integer scalars are checked in float.
FRAME_CROSS_TABLE = (
    (0, 0, 0, (-1, 0), (-2, 1), (-2, 2), (-1, 3)),
    (0, 0, (1, 0), (1, 1), 0, (-1, 3), (-1, 4)),
    (0, (-1, 0), 0, (1, 2), (1, 3), 0, (-1, 5)),
    ((1, 0), (-1, 1), (-1, 2), 0, (1, 4), (1, 5), (-1, 6)),
    ((2, 1), 0, (-1, 3), (-1, 4), 0, (2, 6), 0),
    ((2, 2), (1, 3), 0, (-1, 5), (-2, 6), 0, 0),
    ((1, 3), (1, 4), (1, 5), (1, 6), 0, 0, 0),
)


def unit_gauge_frame(seq: HarmonicSequence, z: complex) -> np.ndarray:
    """The float frame at z rescaled so the middle section is real and unit.

    All seven sections get the same scalar (the gauge acts on the whole
    chain at once).  The scalar is a square root, so its sign is pinned by
    asking the cross product of sections 3 and 4 to measure +i on section 4
    -- the convention the multiplication table is written in.
    """
    rows = [seq.section_value(p, z) for p in range(_DIM)]
    frame = np.array(rows)
    mid = frame[3]
    bilinear = (mid * mid).sum()
    frame = frame * bilinear ** (-0.5)
    w = np.array(cross(frame[3], frame[4]), dtype=complex)
    c = np.vdot(frame[4], w) / np.vdot(frame[4], frame[4])
    if (c / 1j).real < 0:
        frame = -frame
    return frame


def measured_cross_constants(seq: HarmonicSequence, z: complex) -> dict:
    """All 7x7 cross products of the unit-gauge frame at z, resolved against
    the table's target section; zero entries report a residual instead."""
    frame = unit_gauge_frame(seq, z)
    out = {}
    for i in range(_DIM):
        for j in range(_DIM):
            w = np.array(cross(frame[i], frame[j]), dtype=complex)
            entry = FRAME_CROSS_TABLE[i][j]
            if entry == 0:
                scale = np.linalg.norm(frame[i]) * np.linalg.norm(frame[j])
                out[(i, j)] = ("zero", np.linalg.norm(w) / scale)
            else:
                _, k = entry
                target = frame[k]
                c = np.vdot(target, w) / np.vdot(target, target)
                resid = np.linalg.norm(w - c * target) / np.linalg.norm(target)
                out[(i, j)] = ("scalar", c, resid)
    return out


def regular_sample_points(seq: HarmonicSequence) -> list[complex]:
    """Sample points where no Gram determinant comes near zero.

    |D_p(z)| must be at least _MIN_NORM * sum |c_ab| |z|^(a+b) over the terms
    of D_p.  Both sides scale alike, so f and lambda * f get the same points.
    """
    sizes = [
        [(a + b, abs(complex(c))) for (a, b), c in seq.gram_det(p).terms.items()]
        for p in range(_DIM)
    ]
    rng = np.random.default_rng(_SAMPLE_SEED)
    points: list[complex] = []
    while len(points) < _SAMPLE_COUNT:
        z = complex(rng.uniform(0.35, 1.2) * np.exp(2j * np.pi * rng.uniform()))
        r = abs(z)
        if all(
            abs(seq.gram_det(p)(z)) >= _MIN_NORM * sum(m * r**e for e, m in size)
            for p, size in enumerate(sizes)
        ):
            points.append(z)
    return points


def check_cross_table(
    seq: HarmonicSequence, *, samples: list[complex] | None = None
) -> dict:
    """Verify the frame multiplication table at all three levels.

    (a) zero entries: the cross product of the unnormalized sections
        vanishes identically (exact);
    (b) nonzero entries: the cross product is pointwise proportional to the
        target section, tested against one pivot component of the target
        (``g2.proportional``; exact, equivalent to every 2x2 minor
        vanishing since BiPolys form an integral domain);
    (c) the proportionality scalars, read off in the unit gauge at sample
        points, match the table's integer multiples of i within
        ``_SCALAR_TOL``.
    """
    zero_ok: dict[tuple[int, int], bool] = {}
    prop_ok: dict[tuple[int, int], bool] = {}
    for i in range(_DIM):
        for j in range(i + 1, _DIM):
            w = cross(seq.raw_sections[i], seq.raw_sections[j])
            entry = FRAME_CROSS_TABLE[i][j]
            if entry == 0:
                zero_ok[(i, j)] = all(c.is_zero() for c in w)
            else:
                _, k = entry
                prop_ok[(i, j)] = proportional(w, seq.raw_sections[k])
    if samples is None:
        samples = regular_sample_points(seq)
    worst = 0.0
    for z in samples:
        measured = measured_cross_constants(seq, z)
        for (i, j), rec in measured.items():
            if rec[0] == "zero":
                worst = max(worst, rec[1])
            else:
                m, _ = FRAME_CROSS_TABLE[i][j]
                worst = max(worst, abs(rec[1] - m * 1j), rec[2])
    worst = float(worst)
    return {
        "zero_entries_exact": zero_ok,
        "proportional_entries_exact": prop_ok,
        "max_scalar_error": worst,
        "scalars_match": worst <= _SCALAR_TOL,
        "all_passed": bool(
            all(zero_ok.values()) and all(prop_ok.values()) and worst <= _SCALAR_TOL
        ),
    }
