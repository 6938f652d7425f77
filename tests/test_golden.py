"""Byte identity of command-line outputs against recorded files.

``tests/golden/`` holds the outputs of ``gen``, ``verify --out`` and
``report --out`` on the five family pairs and on the r2 = 1/2 deformation
of the (1, 1) member (the ``dense_curve`` fixture, stored as
``dense_curve.json``), and of ``sample -n 16`` on (1, 2) in all three
formats.  The test regenerates each output and compares it byte for byte,
exit code included.  After a deliberate change of output, re-record with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

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
    dense = work / "dense_curve.json"
    dense.write_text(_dense_curve_text())
    out[dense.name] = (0, dense.read_bytes())
    curves.append(("dense", dense))
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
