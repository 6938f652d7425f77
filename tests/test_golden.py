"""Byte identity of command-line outputs against recorded files.

``tests/golden/`` holds the outputs of ``gen``, ``verify --out`` and
``report --out`` on the five family pairs, on the r2 = 1/2 deformation
of the (1, 1) member (the ``dense_curve`` fixture, stored as
``dense_curve.json``) and on the (1, 2) member scaled by
1 + sqrt2 + i*sqrt3 (stored as ``lambda_curve.json``; its chain is the
only one whose monomials carry several radicals), and of ``sample -n 16``
on (1, 2) in all three formats.  The test regenerates each output and compares it byte for byte,
exit code included.  After a deliberate change of output, re-record with

    PYTHONPATH=src python3 tests/test_golden.py

A second test re-runs the commands whose float strings once followed the
CPU, in a subprocess under each variable that changes numpy's or
OpenBLAS's choice of machine code or OpenBLAS's thread count, and
compares with the same files.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from supermin import catalog, cli
from supermin.field import AlgScalar
from supermin.serialize import curve_to_obj, dumps_canonical

GOLDEN = Path(__file__).resolve().parent / "golden"
PAIRS = ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2))
SAMPLE_FORMATS = ("obj", "csv", "json")


def _dense_curve_text() -> str:
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    params = catalog.RFamilyParams(r1=AlgScalar.term(10, 3), r2=AlgScalar.rational(1, 2))
    return dumps_canonical(curve_to_obj(catalog.r_family(spec, params).to_curve()))


def _lambda_curve_text() -> str:
    lam = AlgScalar.one() + AlgScalar.term(2, 1) + AlgScalar.term(3, 0, 1)
    return dumps_canonical(curve_to_obj(tuple(p * lam for p in catalog.example_family(1, 2))))


def _outputs(work: Path) -> dict[str, tuple[int, bytes]]:
    """Every recorded output by file name, with the exit code that made it."""
    out: dict[str, tuple[int, bytes]] = {}

    def run(name: str, *argv: str) -> None:
        path = work / name
        code = cli.main([*argv, "--out", str(path)])
        out[name] = (code, path.read_bytes())

    curves = []
    for k1, k2 in PAIRS:
        tag = f"{k1}_{k2}"
        run(f"gen_{tag}.json", "gen", "--k1", str(k1), "--k2", str(k2))
        curves.append((tag, work / f"gen_{tag}.json"))
    for tag, text in (("dense", _dense_curve_text()), ("lambda", _lambda_curve_text())):
        path = work / f"{tag}_curve.json"
        path.write_text(text)
        out[path.name] = (0, path.read_bytes())
        curves.append((tag, path))
    for tag, path in curves:
        run(f"verify_{tag}.json", "verify", str(path))
        run(f"report_{tag}.json", "report", str(path))
    for fmt in SAMPLE_FORMATS:
        run(f"sample_1_2.{fmt}", "sample", str(work / "gen_1_2.json"), "-n", "16",
            "--format", fmt)
    return out


def _recorded_codes() -> dict[str, int]:
    lines = (GOLDEN / "exit_codes.txt").read_text().splitlines()
    return {name: int(code) for name, code in (line.split() for line in lines)}


def test_outputs_match_golden_files(tmp_path):
    codes = _recorded_codes()
    produced = _outputs(tmp_path)
    assert sorted(produced) == sorted(codes)
    moved = [
        name for name, (code, data) in produced.items()
        if code != codes[name] or data != (GOLDEN / name).read_bytes()
    ]
    assert not moved, f"outputs differ from tests/golden: {moved}"


# numpy's AVX2/FMA complex multiply and OpenBLAS's reductions once moved
# these outputs; each variable below selects other machine code or, for
# OPENBLAS_NUM_THREADS, a caller's BLAS thread count in place of
# supermin's default of one
CPU_VARIABLES = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4",
    "OPENBLAS_CORETYPE": "Prescott",
    "OPENBLAS_NUM_THREADS": "2",
}
CPU_RUNS = {
    **{f"sample_1_2.{fmt}": ["sample", "gen_1_2.json", "-n", "16", "--format", fmt]
       for fmt in SAMPLE_FORMATS},
    "report_dense.json": ["report", "dense_curve.json"],
    "report_2_1.json": ["report", "gen_2_1.json"],
    "verify_1_2.json": ["verify", "gen_1_2.json"],
}
_RUNNER = (
    "import json, sys\n"
    "from supermin import cli\n"
    "print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))\n"
)


@pytest.mark.parametrize("variable", sorted(CPU_VARIABLES))
def test_float_outputs_do_not_depend_on_the_cpu(variable, tmp_path):
    env = {**os.environ, variable: CPU_VARIABLES[variable]}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True)
    if probe.returncode:
        pytest.skip(f"numpy rejects {variable} here: {probe.stderr.strip()[-200:]}")
    argvs = [
        [cmd, str(GOLDEN / curve), *rest, "--out", str(tmp_path / name)]
        for name, (cmd, curve, *rest) in CPU_RUNS.items()
    ]
    res = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    codes = dict(zip(CPU_RUNS, json.loads(res.stdout)))
    recorded = _recorded_codes()
    moved = [
        name for name in CPU_RUNS
        if codes[name] != recorded[name]
        or (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()
    ]
    assert not moved, f"outputs under {variable} differ from tests/golden: {moved}"


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        produced = _outputs(Path(tmp))
    for name, (_code, data) in produced.items():
        (GOLDEN / name).write_bytes(data)
    (GOLDEN / "exit_codes.txt").write_text(
        "".join(f"{name} {code}\n" for name, (code, _data) in sorted(produced.items()))
    )
    print(f"recorded {len(produced)} files in {GOLDEN}", file=sys.stderr)
