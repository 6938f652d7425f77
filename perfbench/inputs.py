"""Generate and write the curve files one benchmark run needs.

    python3 perfbench/inputs.py --workload W --seed S --seconds T --out DIR

Run from the repository root.  This is the benchmark's set-up step: its
wall time, from spawn to exit, is what ``setup_s`` measures, so it covers
starting Python, importing supermin and building every curve exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from plan import BAD_INPUTS, CurveSpec, make_plan  # noqa: E402

from supermin import catalog  # noqa: E402
from supermin.field import AlgScalar  # noqa: E402
from supermin.poly import Poly  # noqa: E402
from supermin.serialize import curve_to_obj, dumps_canonical  # noqa: E402


def build_curve(spec: CurveSpec):
    """The exact curve of ``spec`` and the exponent pair its file carries."""
    if spec.kind == "family":
        curve = catalog.example_family(spec.k1, spec.k2)
        tag = (spec.k1, spec.k2)
    else:
        params = catalog.RFamilyParams(
            r1=AlgScalar.term(10, 3),
            **{spec.param: AlgScalar.rational(Fraction(spec.value))},
        )
        form = catalog.r_family(catalog.SingularityTypeSpec.from_pair(spec.k1, spec.k2), params)
        curve = form.to_curve()
        tag = None
    zeta = AlgScalar.i() ** spec.zeta
    lam = AlgScalar.i() ** spec.lam
    curve = tuple(
        Poly({e: c * lam * zeta**e for e, c in comp.terms.items()}) for comp in curve
    )
    return curve, tag


def bad_input(obj: dict, shape: str) -> dict:
    """A copy of a valid curve record with one field made malformed."""
    bad = json.loads(json.dumps(obj))
    if shape == "integer_components":
        bad["components"] = [1, 2, 3, 4, 5, 6, 7]
    elif shape == "scalar_1_over_0":
        bad["components"][0][0][1][0] = "1/0"
    elif shape == "k_scalar":
        bad["k"] = 5
    elif shape == "exponent_1_5":
        bad["components"][0][0][0] = 1.5
    else:
        raise ValueError(f"unknown malformed shape {shape!r}")
    return bad


def write_inputs(workload: str, seed: int, seconds: float, out: Path) -> None:
    plan = make_plan(workload, seed, seconds)
    out.mkdir(parents=True, exist_ok=True)
    for spec in plan.curves():
        curve, tag = build_curve(spec)
        obj = curve_to_obj(curve, tag)
        (out / spec.file_name).write_text(dumps_canonical(obj))
        if spec == plan.bad_inputs_base:
            for shape in BAD_INPUTS:
                (out / f"bad_{shape}.json").write_text(json.dumps(bad_input(obj, shape)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, args.seconds, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
