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
(never by rational-function division), which keeps everything exact.  Each
``check_*`` owns its pass rule and returns the record ``verify`` prints:
{"passed": the verdict, "detail": what it measured}.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations

import numpy as np

from .field import AlgScalar, product_sum, products_vanish
# cross and wedge_pair are re-exported: perfbench/tracer.py wraps them under these names.
from .g2 import CROSS_TERMS, cross, wedge_pair  # noqa: F401
from .poly import BiPoly, Poly, as_complex, evaluate, hermitian_sum, primitive_parts

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
    curve : the defining 7-vector of Poly, divided by the gcd of its integer
        numerators and by its monomial content z^c (``poly.primitive_parts``);
        every verdict is projective.
    derivatives : tower of z-derivatives, orders 0..6.
    minors : the osculating minors W_0..W_6 (``wedge_table`` of the tower).
    raw_sections : unnormalized sections E_0..E_7 (7-vectors of BiPoly).
    ``norm_value`` and ``density_value`` evaluate the squared norm a_p and
    the curvature density a_{p+1}/a_p from the values of the D_p.
    """

    def __init__(self, curve):
        self.curve = primitive_parts(_curve_tuple(curve))
        self.derivatives = derivative_tower(self.curve, _DIM - 1)
        self.minors = wedge_table(self.derivatives)
        for p, stage in enumerate(self.minors):
            if not any(stage.values()):
                raise ValueError(
                    "curve is not linearly full: derivatives of orders "
                    f"0..{p} are linearly dependent (failing order {p})"
                )
        self._reversed: _ChartAtInfinity | None = None
        # the quadrature's memo, filled by ``grid_densities``
        self._grid_values: dict = {}

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

    def norm_value(self, p: int, z: complex) -> complex:
        """Float value of a_p = D_p / D_{p-1} at z."""
        return self.gram_det(p)(z) / self.gram_det(p - 1)(z)

    @cached_property
    def _content_free(self) -> tuple[tuple[BiPoly, int], ...]:
        """(D_q / |z|^(2 c_q), c_q) for q = -1..7, c_q the content of D_q."""
        out = []
        for q in range(-1, _DIM + 1):
            d = self.gram_det(q)
            c = d.content()[0]
            out.append((d.shift_down(c, c), c))
        return tuple(out)

    def _density_factors(self, p: int) -> tuple[tuple, ...]:
        """(key, BiPoly) for the four real factors of the density a_{p+1}/a_p.

        They are D_{p-1}, D_p and D_{p+1}, each divided by its content
        |z|^(2 c_q) (keys p-1, p, p+1), and the monomial z^k zbar^k left
        over, k = c_{p+1} - 2 c_p + c_{p-1} the ramification index (key
        ("|z|^2k", k)).
        """
        (lo, c0), (mid, c1), (hi, c2) = self._content_free[p:p + 3]
        k = c2 - 2 * c1 + c0
        return ((p - 1, lo), (p, mid), (p + 1, hi), (("|z|^2k", k), BiPoly({(k, k): 1})))

    def density_value(self, p: int, z):
        """Float a_{p+1}/a_p = D_{p+1} D_{p-1} / D_p^2 at z, a point or an array.

        Each D_q is divided by its content |z|^(2 c_q) before it is evaluated,
        which keeps small |z| from underflowing; the factor |z|^(2k) left over
        (k the ramification index) is applied once, as the monomial
        z^k zbar^k (``_density_factors``).  The D_q are real, so the kernel
        evaluates real parts only; each comes scaled by its own 2^-k_q, and
        one exact ldexp puts the scales back.  Nothing is kept: the
        quadrature's memo is ``grid_densities``'.
        """
        z = np.asarray(z, dtype=complex)
        polys = [d for _, d in self._density_factors(p)]
        vals = evaluate(polys, z.real, z.imag, real_only=True)
        return _density(*((re, k) for re, _, k in vals))


def _density(lo, mid, hi, rk):
    """D_{p+1} D_{p-1} / D_p^2 times |z|^(2k) from the (real values, k) of
    the four factors, each scaled by 2^-k; one exact ldexp undoes the scales."""
    return np.ldexp(hi[0] * lo[0] / (mid[0] * mid[0]) * rk[0],
                    hi[1] + lo[1] - 2 * mid[1] + rk[1])


def grid_densities(charts, p: int, n: int, z) -> list[np.ndarray]:
    """``density_value(p, z)`` of each chart, z the points of quadrature grid n.

    Each chart keeps a memo, made with it and dropped with it: the real
    values and scale of each density factor, keyed by (factor key, n), so a
    D_q shared by two densities, or by two calls, is evaluated once per
    grid.  ``z`` must be the same points for every call with the same n.
    The factors no chart has yet are evaluated by one real-only
    ``evaluate`` call, whose power table the charts share.  The values are
    those of ``density_value``, bit for bit.
    """
    factors = [chart._density_factors(p) for chart in charts]
    missing = [(chart._grid_values, key, d) for chart, fs in zip(charts, factors)
               for key, d in fs if (key, n) not in chart._grid_values]
    if missing:
        vals = evaluate([d for _, _, d in missing], z.real, z.imag, real_only=True)
        for (memo, key, _), (re, _, k) in zip(missing, vals):
            memo[key, n] = (re, k)
    return [_density(*(chart._grid_values[key, n] for key, _ in fs))
            for chart, fs in zip(charts, factors)]


class _ChartAtInfinity:
    """The Gram determinants of ``source`` in the chart w = 1/z.

    D_p is the source's reversed by e_p in z and zbar (``chart_exponents``).
    ``gram_det`` and ``density_value`` are HarmonicSequence's, read over
    these D_p; as e_p has second difference -2, the density is |w|^-4 times
    the source's at 1/w.  The chart keeps its own memo for
    ``grid_densities``.
    """

    def __init__(self, source: HarmonicSequence):
        dets = [source.gram_det(p).reverse(e) for p, e in enumerate(source.chart_exponents)]
        self._dets = (*dets, BiPoly())
        self._grid_values: dict = {}

    gram_det = HarmonicSequence.gram_det
    _content_free = HarmonicSequence._content_free
    _density_factors = HarmonicSequence._density_factors
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
    onto f_p with density -a_{p+1}/a_p.  Each equation is one zero test of
    three products per component (``field.products_vanish``), and a stage
    stops at its first failing component.  Passes when all of them hold,
    the curve has no zbar term and the chain terminates.
    """
    sections = seq.raw_sections
    down = []
    for p in range(_DIM):
        dp, dprev = seq.gram_det(p), seq.gram_det(p - 1)
        ddp = dp.diff_z()
        down.append(all(
            products_vanish([(1, e.diff_z(), dp), (-1, e, ddp), (-1, enext, dprev)])
            for e, enext in zip(sections[p], sections[p + 1])
        ))
    up = []
    for p in range(_DIM - 1):
        dp, dnext = seq.gram_det(p), seq.gram_det(p + 1)
        ddp = dp.diff_zbar()
        up.append(all(
            products_vanish([(1, enext.diff_zbar(), dp), (-1, enext, ddp), (1, dnext, e)])
            for e, enext in zip(sections[p], sections[p + 1])
        ))
    detail = {
        "derivative_rule": down,
        "conjugate_derivative_rule": up,
        "holomorphic_start": all(c.to_bipoly().diff_zbar().is_zero() for c in seq.curve),
        "terminates": seq.terminates(),
    }
    passed = all(down) and all(up) and detail["holomorphic_start"] and detail["terminates"]
    return {"passed": passed, "detail": detail}


def orthogonality_residuals(seq: HarmonicSequence) -> dict:
    """Exact pairings <E_q, F_i> for i < q; all must vanish identically.

    Since each earlier section is a combination of the derivatives F_0..F_p
    with p < q, this is equivalent to mutual orthogonality of the sections.
    Each pairing is one zero test of seven products
    (``field.products_vanish``); for q = 7 the section is 0 and so is the sum.
    """
    return {(q, i): products_vanish([(1, e, f.conj_factor()) for e, f in
                                     zip(seq.raw_sections[q], seq.derivatives[i])])
            for q in range(1, _DIM + 1) for i in range(q)}


def _pivot(x, y) -> int | None:
    """The component c with y[c] != 0 whose minors x[a]*y[c] - x[c]*y[a]
    take the fewest products (term counts multiplied); None when y == 0."""
    sx, sy = sum(map(len, x)), sum(map(len, y))
    live = [c for c in range(_DIM) if y[c]]
    return min(live, key=lambda c: len(y[c]) * sx + len(x[c]) * sy, default=None)


def _proportional(x, y) -> bool:
    """Whether x wedge y == 0 for 7-vectors of BiPoly: x and y pointwise
    proportional.

    With the pivot y[c] != 0 it suffices that x[a]*y[c] - x[c]*y[a] vanish
    for the other six a, each one zero test of two products: multiplying
    any minor x[a]*y[b] - x[b]*y[a] by y[c] turns it into
    x[c]*(y[a]*y[b] - y[b]*y[a]) = 0, and BiPolys form an integral domain.
    """
    c = _pivot(x, y)
    return c is None or all(
        products_vanish([(1, x[a], y[c]), (-1, x[c], y[a])]) for a in range(_DIM) if a != c
    )


def check_reality(seq: HarmonicSequence) -> dict:
    """Pointwise proportionality conj(f_{3+k}) ~ f_{3-k} for k = 1, 2, 3.

    Tested projectively on the pair of unnormalized sections, which is
    gauge-free: against one pivot component c where f_{3-k} is not
    identically 0, each other component a must satisfy
    conj(E_{3+k})[a] * E_{3-k}[c] == conj(E_{3+k})[c] * E_{3-k}[a], one
    zero test of two products (``_proportional``); this is the vanishing
    of every 2x2 minor.  Passes when all three pairings hold.
    """
    detail = {}
    for k in (1, 2, 3):
        upper = tuple(c.conj() for c in seq.raw_sections[3 + k])
        detail[k] = _proportional(upper, seq.raw_sections[3 - k])
    detail["all_proportional"] = all(detail[k] for k in (1, 2, 3))
    return {"passed": detail["all_proportional"], "detail": detail}


# name: (num, den, c).  With a_p = D_p / D_{p-1}, a_p * a_q / (a_r * a_s) is
# D_p D_q D_{r-1} D_{s-1} / (D_{p-1} D_{q-1} D_r D_s); num and den hold those
# D's as two pairs (a, b) each, and c is the constant the ratio must be
_NORM_PRODUCTS = {
    "product_1_5_over_3sq": (((1, 5), (2, 2)), ((0, 4), (3, 3)), 1),
    "product_2_4_over_3sq": (((2, 4), (2, 2)), ((1, 3), (3, 3)), 1),
    "product_0_6_over_3sq": (((0, 6), (2, 2)), ((-1, 5), (3, 3)), 1),
    "product_4_5_over_3_6": (((4, 5), (2, 5)), ((3, 4), (3, 6)), 2),
}


def check_norm_products(seq: HarmonicSequence) -> dict:
    """Scale-invariant norm identities of the chain.

    a_{3+k} * a_{3-k} / a_3^2 must be the constant 1 for k = 1, 2, 3, and
    a_4 * a_5 / (a_3 * a_6) must be the constant 2.  Each ratio is a
    product of four Gram determinants over four (D_{-1} = 1), taken as two
    pair products D_a * D_b each (``field.product_sum``, each pair formed
    once).  Its only possible constant is the ratio of leading coefficients,
    those of the lexicographically largest monomial: lex order on (a, b) is
    a monomial order and the field has no zero divisors, so a product's
    leading coefficient is its factors'.  Constancy is then one zero test
    of two products, lead(den) * num - lead(num) * den
    (``field.products_vanish``).  The detail carries the measured constants
    (None for a ratio that is not constant), so an unexpected value is
    visible rather than silently compared.
    """
    d = seq.gram_det
    lead = {p: d(p).terms[max(d(p).terms)] for p in range(-1, _DIM)}
    keys = {k for num, den, _ in _NORM_PRODUCTS.values() for k in num + den}
    pair = {(a, b): product_sum([(1, d(a), d(b))]) for a, b in keys}
    constants: dict[str, AlgScalar | None] = {}
    for name, (num, den, _) in _NORM_PRODUCTS.items():
        n, m = (math.prod(lead[p] for k in four for p in k) for four in (num, den))
        constant = products_vanish([(1, pair[num[0]] * m, pair[num[1]]),
                                    (-1, pair[den[0]] * n, pair[den[1]])])
        constants[name] = n / m if constant else None
    passed = all(constants[name] == c for name, (_, _, c) in _NORM_PRODUCTS.items())
    return {"passed": passed, "detail": {"constants": constants}}


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


def _cross_parts(xr, xi, yr, yi):
    """x cross y for 7 rows of (re, im) arrays, summed in table order."""
    outr, outi = [], []
    for comp in CROSS_TERMS:
        accr = acci = 0.0
        for sign, i, j in comp:
            pr = xr[i] * yr[j] - xi[i] * yi[j]
            pi = xr[i] * yi[j] + xi[i] * yr[j]
            if sign > 0:
                accr, acci = accr + pr, acci + pi
            else:
                accr, acci = accr - pr, acci - pi
        outr.append(accr)
        outi.append(acci)
    return np.array(outr), np.array(outi)


def _sum_rows(v):
    """Sum over the first axis, in order."""
    acc = v[0].copy()
    for row in v[1:]:
        acc += row
    return acc


@np.errstate(all="ignore")
def _frame_parts(seq: HarmonicSequence, zr, zi):
    """The unit-gauge frame at the points zr + i*zi (1-d arrays), as (re, im)
    arrays of shape (7, 7, points): row p holds f_p = E_p / D_{p-1}; values
    that are not finite come out NaN, with no warning, for the audit to see."""
    sections = [c for p in range(_DIM) for c in seq.raw_sections[p]]
    dets = evaluate([seq.gram_det(p - 1) for p in range(_DIM)], zr, zi, real_only=True)
    vals = evaluate(sections, zr, zi)
    # f_p[c] is (E / D) * 2^(kE - kD); one common 2^-top keeps it in range
    shift = [[vals[_DIM * p + c][2] - dets[p][2] for c in range(_DIM)] for p in range(_DIM)]
    top = max(map(max, shift))
    fr = np.empty((_DIM, _DIM, zr.size))
    fi = np.empty_like(fr)
    for p in range(_DIM):
        d = dets[p][0]
        for c in range(_DIM):
            er, ei, _ = vals[_DIM * p + c]
            fr[p, c] = np.ldexp(er / d, shift[p][c] - top)
            fi[p, c] = np.ldexp(ei / d, shift[p][c] - top)
    # the gauge: one scalar 1/sqrt(s), s the bilinear square of f_3
    sr = _sum_rows(fr[3] * fr[3] - fi[3] * fi[3])
    si = _sum_rows(fr[3] * fi[3] + fi[3] * fr[3])
    m = np.sqrt(sr * sr + si * si)
    t = np.sqrt(0.5 * (m + np.abs(sr)))
    qr = np.where(sr >= 0, t, np.abs(si) / (t + t))
    qi = np.where(sr >= 0, si / (t + t), np.copysign(t, si))
    gr, gi = qr / m, -qi / m
    fr, fi = fr * gr - fi * gi, fr * gi + fi * gr
    # its sign: the cross product of f_3 and f_4 measures +i on f_4
    wr, wi = _cross_parts(fr[3], fi[3], fr[4], fi[4])
    flip = _sum_rows(fr[4] * wi - fi[4] * wr) < 0
    sign = np.where(flip, -1.0, 1.0)
    return fr * sign, fi * sign


@np.errstate(all="ignore")
def measured_cross_constants(seq: HarmonicSequence, z) -> dict:
    """All 7x7 cross products of the unit-gauge frame at z, resolved against
    the table's target section; zero entries report a residual instead.

    ``z`` is a point or an array of them, and each value has its shape.
    """
    z = np.asarray(z, dtype=complex)
    fr, fi = _frame_parts(seq, z.real.ravel(), z.imag.ravel())
    sq = [_sum_rows(fr[i] * fr[i] + fi[i] * fi[i]) for i in range(_DIM)]
    norm = [np.sqrt(v) for v in sq]
    out = {}
    for i in range(_DIM):
        for j in range(_DIM):
            wr, wi = _cross_parts(fr[i], fi[i], fr[j], fi[j])
            entry = FRAME_CROSS_TABLE[i][j]
            if entry == 0:
                size = np.sqrt(_sum_rows(wr * wr + wi * wi))
                out[(i, j)] = ("zero", (size / (norm[i] * norm[j])).reshape(z.shape))
            else:
                _, k = entry
                tr, ti = fr[k], fi[k]
                cr = _sum_rows(tr * wr + ti * wi) / sq[k]
                ci = _sum_rows(tr * wi - ti * wr) / sq[k]
                rr, ri = wr - (cr * tr - ci * ti), wi - (cr * ti + ci * tr)
                resid = np.sqrt(_sum_rows(rr * rr + ri * ri)) / norm[k]
                out[(i, j)] = ("scalar", as_complex(cr, ci).reshape(z.shape),
                               resid.reshape(z.shape))
    return out


def regular_sample_points(seq: HarmonicSequence) -> list[complex]:
    """Sample points where no Gram determinant comes near zero.

    |D_p(z)| must be at least _MIN_NORM * sum |c_ab| |z|^(a+b) over the terms
    of D_p, both divided by the content |z|^(2 c_p) of D_p as in ``density_value``.
    Both sides scale alike, so f and lambda * f get the same points.
    Candidates are drawn from the seeded generator in batches and tested in
    draw order, each batch by one ``poly.evaluate`` call.
    """
    dets = [d for d, _ in seq._content_free[1:_DIM + 1]]
    sizes = [[(a + b, math.hypot(re, im)) for (a, b), re, im in d.float_terms()[1]]
             for d in dets]
    rng = np.random.default_rng(_SAMPLE_SEED)
    points: list[complex] = []
    while len(points) < _SAMPLE_COUNT:
        batch = []
        for _ in range(_SAMPLE_COUNT):
            r, t = rng.uniform(0.35, 1.2), 2.0 * math.pi * rng.uniform()
            batch.append(complex(r * math.cos(t), r * math.sin(t)))
        zs = np.array(batch)
        values = evaluate(dets, zs.real, zs.imag)
        for n, z in enumerate(batch):
            r = abs(z)
            if len(points) < _SAMPLE_COUNT and all(
                math.hypot(re[n], im[n]) >= _MIN_NORM * sum(m * r**e for e, m in size)
                for (re, im, _), size in zip(values, sizes)
            ):
                points.append(z)
    return points


def check_cross_table(
    seq: HarmonicSequence, *, samples: list[complex] | None = None
) -> dict:
    """The frame multiplication table, passed when all three levels hold.

    Each component of a cross product of two unnormalized sections is one
    sum of six products (``g2.CROSS_TERMS``), folded by ``field.product_sum``.
    (a) zero entries: every component sum vanishes identically (exact);
    (b) nonzero entries: the cross product is pointwise proportional to the
        target section, tested against one pivot component of the target
        (``_proportional``; exact, equivalent to every 2x2 minor
        vanishing since BiPolys form an integral domain);
    (c) the proportionality scalars, read off in the unit gauge at sample
        points, match the table's integer multiples of i within
        ``_SCALAR_TOL``.
    """
    sections = seq.raw_sections
    zero_ok: dict[tuple[int, int], bool] = {}
    prop_ok: dict[tuple[int, int], bool] = {}
    for i in range(_DIM):
        for j in range(i + 1, _DIM):
            w = [product_sum([(sign, sections[i][a], sections[j][b]) for sign, a, b in comp])
                 for comp in CROSS_TERMS]
            entry = FRAME_CROSS_TABLE[i][j]
            if entry == 0:
                zero_ok[(i, j)] = not any(w)
            else:
                prop_ok[(i, j)] = _proportional(w, sections[entry[1]])
    if samples is None:
        samples = regular_sample_points(seq)
    errors = []
    for (i, j), rec in measured_cross_constants(seq, np.array(samples, dtype=complex)).items():
        if rec[0] == "zero":
            errors.append(rec[1])
        else:
            m, _ = FRAME_CROSS_TABLE[i][j]
            c = rec[1]
            errors += [np.sqrt(c.real * c.real + (c.imag - m) * (c.imag - m)), rec[2]]
    # np.max carries a NaN forward, so a frame that is not finite fails
    worst = float(np.max(np.concatenate(errors), initial=0.0))
    return {
        "passed": bool(all(zero_ok.values()) and all(prop_ok.values()) and worst <= _SCALAR_TOL),
        "detail": {
            "zero_entries_exact": zero_ok,
            "proportional_entries_exact": prop_ok,
            "max_scalar_error": worst,
        },
    }
