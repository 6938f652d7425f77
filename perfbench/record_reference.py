"""Record the exact outputs the oracle compares against.

    python3 perfbench/record_reference.py

Run from the repository root, at a commit whose outputs are trusted.  For
every base curve the workloads can draw (the unit variants share one
record), it runs ``supermin verify`` or ``supermin report`` once and
stores the exit code and every exact output field in
perfbench/reference.json.  Float fields are left out; the oracle checks
them against bounds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracle import REFERENCE_PATH, exact_report_fields, exact_verify_fields  # noqa: E402
from plan import DEFORM_PARAMS, DEFORM_VALUES, FAMILY_PAIRS, CurveSpec  # noqa: E402
from run import _git_commit, child_env, source_digest  # noqa: E402


def base_curves() -> list[tuple[str, CurveSpec]]:
    out = [("verify", CurveSpec("family", k1, k2)) for k1, k2 in FAMILY_PAIRS]
    out += [
        ("report", CurveSpec("deformed", 1, 1, param=param, value=value))
        for param in DEFORM_PARAMS
        for value in DEFORM_VALUES
    ]
    return out


def main() -> int:
    root = HERE.parent
    src = root / "src"
    env = child_env(src)
    sys.path.insert(0, str(src))
    from inputs import build_curve

    from supermin.serialize import curve_to_obj, dumps_canonical

    reference: dict = {
        "_about": {
            "commit": _git_commit(root),
            "src_sha256": source_digest(src),
            "note": "exact output fields per base curve; written by record_reference.py",
        }
    }
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for command, spec in base_curves():
            curve, tag = build_curve(spec)
            path = Path(tmp) / spec.file_name
            path.write_text(dumps_canonical(curve_to_obj(curve, tag)))
            out = Path(tmp) / "out.json"
            proc = subprocess.run(
                [sys.executable, "-m", "supermin.cli", command, str(path), "--out", str(out)],
                env=env, cwd=root, capture_output=True, text=True,
            )
            body = json.loads(out.read_text())
            if command == "verify":
                exact, _err = exact_verify_fields(body)
                record = {"command": command, "exit": proc.returncode, "output": exact}
            else:
                exact, numeric = exact_report_fields(body)
                record = {
                    "command": command, "exit": proc.returncode, "output": exact,
                    "numeric_p": sorted(numeric),
                }
            reference[spec.ref_key] = record
            print(f"{spec.ref_key}: exit {proc.returncode}", flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
