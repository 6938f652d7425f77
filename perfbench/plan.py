"""What one benchmark run does, as a pure function of workload, seed and length.

A run performs whole *rounds*.  A round is a fixed composition of
operations whose cost does not depend on the seed; the seed only picks
which inputs fill it.  Each operation of a round fills one *slot* (its
command, plus its format or deformation parameter), so the runner can
sum a statistic of every slot over the run's rounds; the seed still
feeds the program different files in every round.

Inputs are varied without changing their cost by two exact symmetries of
a superminimal curve f(z): the rotation z -> i^zeta * z and the overall
scale f -> i^lam * f.  Both multiply each coefficient by a unit, so term
counts and coefficient sizes stay the same, and every verdict, degree and
type stays the same.  The pair (zeta, lam) is drawn so that
i^(2*lam + zeta*K6) = 1, K6 being the top of the exponent ladder; the
reality constant mu that ``verify`` prints is then unchanged as well, and
one reference per base curve serves all eight variants.

This module imports nothing from supermin, so the runner can plan a run
without loading the program under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("verify-family", "report-dense", "export")

# Wall seconds of one round at the commit that defined the benchmark, on a
# 2-core x86-64 machine.  A plan holds enough rounds for a program
# MAX_SPEEDUP times faster than that; the runner performs as many of them
# as fit in the run's length, so a slow spell of the machine makes a run
# do fewer rounds rather than last longer.
NOMINAL_ROUND_S = {"verify-family": 12.5, "report-dense": 4.5, "export": 4.5}
MAX_SPEEDUP = 4

# Circle-symmetric family members (k, k): one curve reparametrized by
# z -> z^k.  Verify of (2, 2) and (3, 3) costs the same within about 3 %;
# (1, 1) is about 10 % cheaper, and (1, 2) or (3, 2) up to twice as dear,
# so drawing those would make a run's time depend on its seed.
FAMILY_PAIRS = ((2, 2), (3, 3))

# One report per round, deformed along r2; the seed draws the rational
# value.  D_3 of these curves has 39 terms, against 13 for the undeformed
# member.  r6 and r7 give 37 and 35 terms and reports 7 % and 20 % cheaper,
# so a round of one report of each would hold a run to two rounds, and
# drawing the direction would make a run's time depend on its seed.
DEFORM_PARAMS = ("r2",)
DEFORM_VALUES = ("1/2", "-1/2", "1/3", "-1/3")

# Export evaluates any family member; in-process, sample costs the same
# on each within the machine's noise.  The grids are sized so that a
# round takes under 5 s and a run holds several rounds, which is what keeps
# export's per-slot figures steady on a shared host.
EXPORT_PAIRS = tuple((a, b) for a in (1, 2, 3) for b in (1, 2, 3))
EXPORT_FORMATS = (("obj", 96), ("csv", 96), ("json", 128))

# Curve files that must fail at load with exit code 2 and one line on
# stderr (README, "Exit codes").  Each is a valid family file with one
# field replaced.
BAD_INPUTS = ("integer_components", "scalar_1_over_0", "k_scalar", "exponent_1_5")


@dataclass(frozen=True)
class CurveSpec:
    """One input curve: a base curve and the unit symmetry applied to it."""

    kind: str  # "family" (catalog.example_family) or "deformed" (catalog.r_family)
    k1: int
    k2: int
    param: str | None = None
    value: str | None = None
    zeta: int = 0
    lam: int = 0

    @property
    def ref_key(self) -> str:
        """Key of the reference record; the same for all unit variants."""
        if self.kind == "family":
            return f"family:{self.k1},{self.k2}"
        return f"deformed:{self.k1},{self.k2}:{self.param}={self.value}"

    @property
    def file_name(self) -> str:
        base = f"{self.kind}_{self.k1}_{self.k2}"
        if self.param is not None:
            base += f"_{self.param}_{self.value.replace('/', 'o').replace('-', 'm')}"
        return f"{base}_z{self.zeta}_l{self.lam}.json"

    def label(self) -> str:
        text = f"{self.kind}({self.k1},{self.k2})"
        if self.param is not None:
            text += f" {self.param}={self.value}"
        return text + f" z->i^{self.zeta}z f*i^{self.lam}"


@dataclass(frozen=True)
class Op:
    """One supermin command on one input."""

    command: str  # "verify", "report" or "sample"
    curve: CurveSpec
    fmt: str | None = None
    n: int | None = None

    def argv(self, curve_path: str, out_path: str) -> list[str]:
        args = [self.command, curve_path, "--out", out_path]
        if self.command == "sample":
            args += ["-n", str(self.n), "--format", self.fmt]
        return args

    @property
    def slot(self) -> str:
        """The place of this operation in its round; the same in every round."""
        if self.command == "sample":
            return f"sample {self.fmt} n={self.n}"
        if self.command == "report":
            return f"report {self.curve.param}"
        return self.command

    def out_name(self, index: int) -> str:
        ext = self.fmt if self.command == "sample" else "json"
        return f"op{index:03d}_{self.command}.{ext}"

    def label(self) -> str:
        text = f"{self.command} {self.curve.label()}"
        if self.command == "sample":
            text += f" -n {self.n} {self.fmt}"
        return text


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    rounds: int
    ops: tuple[Op, ...]
    bad_inputs_base: CurveSpec | None  # curve the malformed files are made from

    @property
    def per_round(self) -> int:
        return len(self.ops) // self.rounds

    def round_ops(self, index: int) -> tuple[Op, ...]:
        return self.ops[index * self.per_round : (index + 1) * self.per_round]

    def curves(self) -> list[CurveSpec]:
        """Distinct input curves, in first-use order."""
        seen: dict[str, CurveSpec] = {}
        for op in self.ops:
            seen.setdefault(op.curve.file_name, op.curve)
        if self.bad_inputs_base is not None:
            seen.setdefault(self.bad_inputs_base.file_name, self.bad_inputs_base)
        return list(seen.values())


def _variant(rng: random.Random, kind: str, k1: int, k2: int, **extra) -> CurveSpec:
    zeta = rng.randrange(4)
    top = 4 * k1 + 2 * k2
    lam = rng.choice([lam for lam in range(4) if (2 * lam + zeta * top) % 4 == 0])
    return CurveSpec(kind, k1, k2, zeta=zeta, lam=lam, **extra)


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds planned for a run of ``seconds``: the most it may perform."""
    return max(1, math.ceil(MAX_SPEEDUP * seconds / NOMINAL_ROUND_S[workload]))


def make_plan(workload: str, seed: int, seconds: float) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    rounds = rounds_for(workload, seconds)
    ops: list[Op] = []
    bad_base = None
    for _ in range(rounds):
        if workload == "verify-family":
            k1, k2 = rng.choice(FAMILY_PAIRS)
            ops.append(Op("verify", _variant(rng, "family", k1, k2)))
        elif workload == "report-dense":
            for param in DEFORM_PARAMS:
                value = rng.choice(DEFORM_VALUES)
                ops.append(
                    Op("report", _variant(rng, "deformed", 1, 1, param=param, value=value))
                )
        else:
            for fmt, n in EXPORT_FORMATS:
                k1, k2 = rng.choice(EXPORT_PAIRS)
                ops.append(Op("sample", _variant(rng, "family", k1, k2), fmt=fmt, n=n))
    if workload == "export":
        k1, k2 = rng.choice(EXPORT_PAIRS)
        bad_base = _variant(rng, "family", k1, k2)
    return Plan(workload, seed, rounds, tuple(ops), bad_base)
