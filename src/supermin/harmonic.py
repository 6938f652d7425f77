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

from .field import AlgScalar, ordered_sum, product_sums, sums_vanish
# wedge_pair is re-exported: perfbench/tracer.py wraps it under this name.
from .g2 import CROSS_TERMS, cross, dot, hdot, wedge_pair  # noqa: F401
from .poly import BiPoly, Poly, evaluate, primitive_parts

_DIM = 7
# the float part of the cross-table check: a fixed, seeded set of points
# where each |D_p| is at least _MIN_NORM times the sum of its terms' moduli,
# and the error allowed in each measured frame constant
_SAMPLE_COUNT = 10
_SAMPLE_SEED = 2026
_MIN_NORM = 1e-8
_SCALAR_TOL = 1e-8
# numpy's PCG64 (the XSL-RR generator on 128 bits): its multiplier, and the
# state and increment that np.random.default_rng(_SAMPLE_SEED) starts from
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_STATE = 185168654372936159333097075870931536645
_PCG_INC = 253583831573602660626028118101560951819


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


# The last-row Laplace expansion of each minor, read by ``wedge_table`` and
# ``raw_sections``: stage p lists every sorted (p+1)-subset of columns with
# its terms (c, the subset less c, the sign (-1)^(p+t) of c at position t).
_LAPLACE = tuple(
    tuple((cols, tuple((c, cols[:t] + cols[t + 1 :], (-1) ** (p + t)) for t, c in enumerate(cols)))
          for cols in combinations(range(_DIM), p + 1))
    for p in range(_DIM))


def wedge_table(tower) -> list[dict[tuple[int, ...], Poly]]:
    """Minors of the derivative tower: stage p maps each sorted (p+1)-subset
    of component indices to det [tower[i][c]] (rows i = 0..p, columns c).

    Stage p collects the homogeneous coordinates of the p-th osculating
    curve, p <= 6.  Built by expanding along the last row with the terms
    and signs of ``_LAPLACE``, reusing stage p-1.
    """
    stages: list[dict[tuple[int, ...], Poly]] = [
        {(c,): tower[0][c] for c in range(_DIM)}
    ]
    for p in range(1, len(tower)):
        prev = stages[p - 1]
        row = tower[p]
        cur: dict[tuple[int, ...], Poly] = {}
        # summed by ``+``, not ``ordered_sum``: an entry that cancels in a
        # partial sum and reappears goes last here, where the fold keeps its
        # first place, and that order fixes the floats ``verify`` prints
        for cols, terms in _LAPLACE[p]:
            acc = Poly()
            for c, rest, sign in terms:
                sub = prev[rest]
                if row[c] and sub:
                    term = row[c] * sub
                    acc = acc + term if sign > 0 else acc - term
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
        # conj(E_{6-p}) ~ E_p by p, filled by ``_mirrored``
        self._reality: dict[int, bool] = {}
        # the quadrature's memo, filled by ``grid_densities``
        self._grid_values: dict = {}

    @cached_property
    def _dets(self) -> tuple[BiPoly, ...]:
        dets = [ordered_sum(BiPoly, [(1, w.to_bipoly(), w.conj_factor())
                                     for w in stage.values() if w])
                for stage in self.minors]
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
            prev = {rest: v.conj_factor() for rest, v in self.minors[p - 1].items() if v}
            terms: list[list] = [[] for _ in range(_DIM)]
            for cols, laplace in _LAPLACE[p]:
                w = self.minors[p][cols].to_bipoly()
                for c, rest, sign in laplace:
                    if w and rest in prev:
                        terms[c].append((sign, w, prev[rest]))
            sections.append(tuple(ordered_sum(BiPoly, t) for t in terms))
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
        polys = [d for _, d in self._density_factors(p)]
        vals = evaluate(polys, z.real, z.imag, real_only=True)
        return _density(*((re, k) for re, _, k in vals))


def _density(lo, mid, hi, rk):
    """D_{p+1} D_{p-1} / D_p^2 times |z|^(2k) from the (real values, k) of
    the four factors, each scaled by 2^-k; one exact ldexp undoes the scales."""
    import numpy as np
    return np.ldexp(hi[0] * lo[0] / (mid[0] * mid[0]) * rk[0],
                    hi[1] + lo[1] - 2 * mid[1] + rk[1])


def grid_densities(charts, p: int, n: int, z) -> list:
    """``density_value(p, z)`` of each chart, z the points of quadrature grid n.

    Each chart keeps a memo, made with it and dropped with it: the real
    values and scale of each density factor, keyed by (factor key, n), so a
    D_q shared by two densities, or by two calls, is evaluated once per
    grid.  ``z`` must be the same points for every call with the same n.
    The factors no chart has yet are evaluated by one real-only
    ``evaluate`` call, whose power table the charts share.  A constant
    factor (D_{-1}, and |z|^0 when k = 0) is kept as one float, which
    broadcasts to the bits of its array.  The values are those of
    ``density_value``, bit for bit.
    """
    factors = [chart._density_factors(p) for chart in charts]
    missing = [(chart._grid_values, key, d) for chart, fs in zip(charts, factors)
               for key, d in fs if (key, n) not in chart._grid_values]
    if missing:
        vals = evaluate([d for _, _, d in missing], z.real, z.imag, real_only=True)
        for (memo, key, d), (re, _, k) in zip(missing, vals):
            memo[key, n] = (float(re.flat[0]) if d.terms.keys() <= {(0, 0)} else re, k)
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
    three products per component, and each stage tests its seven
    components in one batch (``field.sums_vanish``), so the D_p it shares
    are packed once; every component is tested, and a stage holds when all
    seven vanish.  Passes when all of them hold, the curve has no zbar term
    and the chain terminates.
    """
    sections = seq.raw_sections
    down = []
    for p in range(_DIM):
        dp, dprev = seq.gram_det(p), seq.gram_det(p - 1)
        ddp = dp.diff_z()
        down.append(all(sums_vanish([
            [(1, e.diff_z(), dp), (-1, e, ddp), (-1, enext, dprev)]
            for e, enext in zip(sections[p], sections[p + 1])
        ])))
    up = []
    for p in range(_DIM - 1):
        dp, dnext = seq.gram_det(p), seq.gram_det(p + 1)
        ddp = dp.diff_zbar()
        up.append(all(sums_vanish([
            [(1, enext.diff_zbar(), dp), (-1, enext, ddp), (1, dnext, e)]
            for e, enext in zip(sections[p], sections[p + 1])
        ])))
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
    Each pairing is one zero test of seven products, all 28 in one batch
    (``field.sums_vanish``); for q = 7 the section is 0 and so is the sum.
    """
    conj = [tuple(f.conj_factor() for f in fs) for fs in seq.derivatives]
    keys = [(q, i) for q in range(1, _DIM + 1) for i in range(q)]
    return dict(zip(keys, sums_vanish([[(1, e, f) for e, f in zip(seq.raw_sections[q], conj[i])]
                                       for q, i in keys])))


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
    for the other six a, each one zero test of two products, the six in one
    batch (``field.sums_vanish``): multiplying any minor
    x[a]*y[b] - x[b]*y[a] by y[c] turns it into
    x[c]*(y[a]*y[b] - y[b]*y[a]) = 0, and BiPolys form an integral domain.
    """
    c = _pivot(x, y)
    return c is None or all(sums_vanish([[(1, x[a], y[c]), (-1, x[c], y[a])]
                                         for a in range(_DIM) if a != c]))


def _mirrored(seq: HarmonicSequence, p: int) -> bool:
    """Whether conj(E_{6-p}) ~ E_p (``_proportional``), decided once per
    chain: ``check_reality`` reads p = 0..2 and ``check_cross_table``
    p = 0..3."""
    memo = seq._reality
    if p not in memo:
        sections = seq.raw_sections
        memo[p] = _proportional(tuple(c.conj() for c in sections[_DIM - 1 - p]), sections[p])
    return memo[p]


def check_reality(seq: HarmonicSequence) -> dict:
    """Pointwise proportionality conj(f_{3+k}) ~ f_{3-k} for k = 1, 2, 3.

    Tested projectively on the pair of unnormalized sections, which is
    gauge-free: against one pivot component c where f_{3-k} is not
    identically 0, each other component a must satisfy
    conj(E_{3+k})[a] * E_{3-k}[c] == conj(E_{3+k})[c] * E_{3-k}[a], one
    zero test of two products (``_proportional``); this is the vanishing
    of every 2x2 minor.  Each pairing is decided once per chain
    (``_mirrored``), for this check and ``check_cross_table``.  Passes
    when all three pairings hold.
    """
    detail = {k: _mirrored(seq, 3 - k) for k in (1, 2, 3)}
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
    pair products D_a * D_b each (one ``field.product_sums`` batch, each
    pair formed once).  Its only possible constant is the ratio of leading
    coefficients, those of the lexicographically largest monomial: lex
    order on (a, b) is a monomial order and the field has no zero divisors,
    so a product's leading coefficient is its factors'.  Constancy is then
    one zero test of two products, lead(den) * num - lead(num) * den, each
    scalar multiplied into the pair product of fewer terms on its side, the
    four tests in one ``field.sums_vanish`` batch.  The detail carries the
    measured constants (None for a ratio that is not constant), so an
    unexpected value is visible rather than silently compared.
    """
    d = seq.gram_det
    lead = {p: d(p).terms[max(d(p).terms)] for p in range(-1, _DIM)}
    keys = {k for num, den, _ in _NORM_PRODUCTS.values() for k in num + den}
    pair = dict(zip(keys, product_sums([[(1, d(a), d(b))] for a, b in keys])))
    tests, ratios = [], []
    for num, den, _ in _NORM_PRODUCTS.values():
        n, m = (math.prod(lead[p] for k in four for p in k) for four in (num, den))
        test = []
        for sign, (a, b), c in ((1, num, m), (-1, den, n)):
            small, large = sorted((pair[a], pair[b]), key=len)
            test.append((sign, small * c, large))
        tests.append(test)
        ratios.append((n, m))
    constants: dict[str, AlgScalar | None] = {
        name: n / m if constant else None
        for name, (n, m), constant in zip(_NORM_PRODUCTS, ratios, sums_vanish(tests))
    }
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


def _div(a: float, b: float) -> float:
    """a / b, with numpy's inf or NaN where a float division by zero raises."""
    try:
        return a / b
    except ZeroDivisionError:
        return math.copysign(math.inf, a) * math.copysign(1.0, b) if a and a == a else math.nan


def _pow(r: float, e: int) -> float:
    """r^e for r > 0, with numpy's inf where the float power overflows."""
    try:
        return r**e
    except OverflowError:
        return math.inf


def _frame(seq: HarmonicSequence, z: complex) -> list[list[complex]]:
    """The unit-gauge frame at the point z, as 7 rows of 7 complex numbers:
    row p holds f_p = E_p / D_{p-1}.  Values that are not finite come out
    inf or NaN, as numpy gives them, for the audit to see."""
    sections = [c for p in range(_DIM) for c in seq.raw_sections[p]]
    dets = evaluate([seq.gram_det(p - 1) for p in range(_DIM)], z.real, z.imag, real_only=True)
    vals = evaluate(sections, z.real, z.imag)
    # f_p[c] is (E / D) * 2^(kE - kD); one common 2^-top keeps it in range
    # (every k - top is at most 0, so ldexp cannot overflow)
    shift = [[vals[_DIM * p + c][2] - dets[p][2] for c in range(_DIM)] for p in range(_DIM)]
    top = max(map(max, shift))
    f = [[complex(math.ldexp(_div(re, d), k - top), math.ldexp(_div(im, d), k - top))
          for (re, im, _), k in zip(vals[_DIM * p:_DIM * p + _DIM], shift[p])]
         for p, (d, _, _) in enumerate(dets)]
    # the gauge: one scalar 1/sqrt(s), s the bilinear square of f_3
    s = dot(f[3], f[3])
    m = math.sqrt(s.real * s.real + s.imag * s.imag)
    t = math.sqrt(0.5 * (m + abs(s.real)))
    if s.real >= 0:
        qr, qi = t, _div(s.imag, t + t)
    else:
        qr, qi = _div(abs(s.imag), t + t), math.copysign(t, s.imag)
    g = complex(_div(qr, m), _div(-qi, m))
    f = [[x * g for x in row] for row in f]
    # its sign: the cross product of f_3 and f_4 measures +i on f_4
    return [[-x for x in row] for row in f] if hdot(cross(f[3], f[4]), f[4]).imag < 0 else f


def measured_cross_constants(seq: HarmonicSequence, z: complex) -> dict:
    """All 7x7 cross products of the unit-gauge frame at the point z,
    resolved against the table's target section; zero entries report a
    residual instead.  Python complex numbers, one point at a time, with
    the operations numpy arrays of points would do, in their order.
    """
    f = _frame(seq, complex(z))
    sq = [hdot(row, row).real for row in f]
    norm = [math.sqrt(v) for v in sq]
    out = {}
    for i in range(_DIM):
        for j in range(_DIM):
            w = cross(f[i], f[j])
            entry = FRAME_CROSS_TABLE[i][j]
            if entry == 0:
                out[(i, j)] = ("zero", _div(math.sqrt(hdot(w, w).real), norm[i] * norm[j]))
            else:
                _, k = entry
                d = hdot(w, f[k])
                c = complex(_div(d.real, sq[k]), _div(d.imag, sq[k]))
                r = [b - c * a for a, b in zip(f[k], w)]
                out[(i, j)] = ("scalar", c, _div(math.sqrt(hdot(r, r).real), norm[k]))
    return out


def _uniforms():
    """The draws of np.random.default_rng(_SAMPLE_SEED).uniform(), without numpy.

    PCG64 steps its 128-bit state as state * _PCG_MULT + inc, then outputs
    the XOR of the state's halves rotated right by its top 6 bits; a
    uniform double is the top 53 bits of that output times 2^-53.
    """
    state, low = _PCG_STATE, (1 << 64) - 1
    while True:
        state = (state * _PCG_MULT + _PCG_INC) & ((1 << 128) - 1)
        x, rot = (state >> 64 ^ state) & low, state >> 122
        yield (((x >> rot | x << (64 - rot)) & low) >> 11) * 2.0 ** -53


def regular_sample_points(seq: HarmonicSequence) -> list[complex]:
    """Sample points where no Gram determinant comes near zero.

    |D_p(z)| must be at least _MIN_NORM * sum |c_ab| |z|^(a+b) over the terms
    of D_p, both divided by the content |z|^(2 c_p) of D_p as in ``density_value``.
    Both sides scale alike, so f and lambda * f get the same points.
    Candidates are the seeded draws r in [0.35, 1.2) and t in [0, 2 pi)
    (``_uniforms``, each a + (b - a) * u as numpy draws them), tested in
    draw order, one ``poly.evaluate`` call on floats each.
    """
    dets = [d for d, _ in seq._content_free[1:_DIM + 1]]
    sizes = [[(a + b, math.hypot(re, im)) for (a, b), re, im in d.float_terms()[1]]
             for d in dets]
    draws = _uniforms()
    points: list[complex] = []
    while len(points) < _SAMPLE_COUNT:
        r, t = 0.35 + (1.2 - 0.35) * next(draws), 2.0 * math.pi * next(draws)
        z = complex(r * math.cos(t), r * math.sin(t))
        r = abs(z)
        if all(math.hypot(re, im) >= _MIN_NORM * sum(m * _pow(r, e) for e, m in size)
               for (re, im, _), size in zip(evaluate(dets, z.real, z.imag), sizes)):
            points.append(z)
    return points


def check_cross_table(
    seq: HarmonicSequence, *, samples: list[complex] | None = None
) -> dict:
    """The frame multiplication table, passed when all three levels hold.

    Each component of a cross product of two unnormalized sections is one
    sum of six products (``g2.CROSS_TERMS``); a pair's seven sums are one
    ``field.product_sums`` batch, which packs its 14 operands once.
    (a) zero entries: every component sum vanishes identically (exact);
    (b) nonzero entries: the cross product is pointwise proportional to the
        target section, tested against one pivot component of the target
        (``_proportional``; exact, equivalent to every 2x2 minor
        vanishing since BiPolys form an integral domain);
    (c) the proportionality scalars, read off in the unit gauge at sample
        points, match the table's integer multiples of i within
        ``_SCALAR_TOL``.  The points are taken one at a time in Python
        complex numbers (``measured_cross_constants``), with the
        operations, and so the bits, of numpy arrays.

    (a) and (b) are decided on half the table when the chain is real:
    when every E_0..E_6 is nonzero and conj(E_{6-p}) ~ E_p for p = 0..3
    (``_mirrored``, tested in p order up to the first that fails, the
    first three shared with ``check_reality``), conj(E_{6-p}) = c_p * E_p
    with c_p a nonzero rational function.  The cross product has real
    structure constants, so E_{6-j} x E_{6-i} = -conj(c_i c_j) *
    conj(E_i x E_j): it vanishes exactly when E_i x E_j does, and it is
    proportional to E_{6-k} exactly when E_i x E_j is to E_k.
    ``FRAME_CROSS_TABLE`` maps (i, j) to (6-j, 6-i) and a target k to 6-k,
    so only the 12 pairs with i + j <= 6 are computed and each verdict is
    copied to its mirror.  Otherwise all 21 pairs are computed.  Either way
    the detail is the same.
    """
    sections = seq.raw_sections
    top = _DIM - 1
    mirror = all(map(any, sections[:_DIM])) and all(_mirrored(seq, p) for p in range(4))
    exact: dict[tuple[int, int], bool] = {}
    for i in range(_DIM):
        for j in range(i + 1, _DIM):
            if mirror and i + j > top:
                exact[(i, j)] = exact[(top - j, top - i)]
                continue
            entry = FRAME_CROSS_TABLE[i][j]
            w = product_sums([[(sign, sections[i][a], sections[j][b]) for sign, a, b in comp]
                              for comp in CROSS_TERMS])
            exact[(i, j)] = not any(w) if entry == 0 else _proportional(w, sections[entry[1]])
    zero_ok = {ij: ok for ij, ok in exact.items() if FRAME_CROSS_TABLE[ij[0]][ij[1]] == 0}
    prop_ok = {ij: ok for ij, ok in exact.items() if FRAME_CROSS_TABLE[ij[0]][ij[1]] != 0}
    if samples is None:
        samples = regular_sample_points(seq)
    errors = []
    for z in samples:
        for (i, j), rec in measured_cross_constants(seq, z).items():
            if rec[0] == "zero":
                errors.append(rec[1])
            else:
                m, _ = FRAME_CROSS_TABLE[i][j]
                c = rec[1]
                errors += [math.sqrt(c.real * c.real + (c.imag - m) * (c.imag - m)), rec[2]]
    # a NaN wins the maximum, as in np.max, so a frame that is not finite fails
    worst = next((e for e in errors if e != e), max(errors, default=0.0))
    return {
        "passed": bool(all(zero_ok.values()) and all(prop_ok.values()) and worst <= _SCALAR_TOL),
        "detail": {
            "zero_entries_exact": zero_ok,
            "proportional_entries_exact": prop_ok,
            "max_scalar_error": worst,
        },
    }
