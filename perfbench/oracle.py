"""Output checks for every benchmark operation.

Exact fields are compared with a reference recorded from the program when
the benchmark was defined (``reference.json``, written by
``record_reference.py``).  Float fields are checked against their own
bounds instead of byte for byte.  Each check returns a list of problems;
an empty list means the operation passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

MAX_SCALAR_ERROR = 1e-8
UNIT_NORM_TOL = 1e-9


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def exact_verify_fields(report: dict) -> tuple[dict, float | None]:
    """Split a verify report into its exact part and max_scalar_error."""
    exact = json.loads(json.dumps(report))
    detail = exact.get("checks", {}).get("cross_table", {}).get("detail", {})
    err = detail.pop("max_scalar_error", None)
    return exact, (float(err) if err is not None else None)


def exact_report_fields(body: dict) -> tuple[dict, dict]:
    """Split a report body into its exact part and the numeric degrees."""
    exact = dict(body)
    numeric = exact.pop("numeric_degrees", {})
    return exact, numeric


def _load_json(text: str, problems: list[str]):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def check_verify(ref: dict, exit_code: int, text: str) -> list[str]:
    problems: list[str] = []
    if exit_code != ref["exit"]:
        problems.append(f"exit code {exit_code}, expected {ref['exit']}")
    report = _load_json(text, problems)
    if report is None:
        return problems
    exact, err = exact_verify_fields(report)
    if exact != ref["output"]:
        diff = sorted(
            k for k in set(exact.get("checks", {})) | set(ref["output"]["checks"])
            if exact.get("checks", {}).get(k) != ref["output"]["checks"].get(k)
        )
        problems.append(f"exact fields differ from reference (checks: {diff or 'top level'})")
    if err is None or not err <= MAX_SCALAR_ERROR:
        problems.append(f"max_scalar_error {err} exceeds {MAX_SCALAR_ERROR}")
    return problems


def check_report(ref: dict, exit_code: int, text: str) -> list[str]:
    problems: list[str] = []
    if exit_code != ref["exit"]:
        problems.append(f"exit code {exit_code}, expected {ref['exit']}")
    body = _load_json(text, problems)
    if body is None:
        return problems
    exact, numeric = exact_report_fields(body)
    if exact != ref["output"]:
        diff = sorted(k for k in set(exact) | set(ref["output"]) if exact.get(k) != ref["output"].get(k))
        problems.append(f"exact fields differ from reference: {diff}")
    degrees = ref["output"]["delta"]
    if sorted(numeric) != sorted(ref["numeric_p"]):
        problems.append(f"numeric degrees for p={sorted(numeric)}, expected {ref['numeric_p']}")
    for p, value in numeric.items():
        est = float(value)
        if not math.isfinite(est) or round(est) != degrees[int(p)]:
            problems.append(f"numeric degree p={p} is {value}, exact {degrees[int(p)]}")
    return problems


def _unit(point: list[float]) -> bool:
    return abs(math.sqrt(sum(c * c for c in point)) - 1.0) <= UNIT_NORM_TOL


def check_sample(fmt: str, n: int, exit_code: int, path: Path) -> list[str]:
    problems: list[str] = []
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    text = path.read_text()
    count = 2 * n * n
    if fmt == "json":
        body = _load_json(text, problems)
        if body is None:
            return problems
        if body.get("n") != n or body.get("charts") != 2:
            problems.append(f"header n={body.get('n')} charts={body.get('charts')}")
        points = [[float(c) for c in pt] for pt in body.get("points", [])]
    elif fmt == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != "x1,x2,x3,x4,x5,x6,x7":
            problems.append("csv header missing")
        points = [[float(c) for c in line.split(",")] for line in lines[1:]]
    else:
        vertices, faces = [], 0
        for line in text.splitlines():
            tag, _, rest = line.partition(" ")
            if tag == "v":
                vertices.append([float(c) for c in rest.split()])
            elif tag == "f":
                idx = [int(c) for c in rest.split()]
                if len(idx) != 3 or not all(1 <= i <= count for i in idx):
                    problems.append(f"bad face {line!r}")
                    break
                faces += 1
        if faces != 4 * (n - 1) * n:
            problems.append(f"{faces} faces, expected {4 * (n - 1) * n}")
        if len(vertices) != count:
            problems.append(f"{len(vertices)} vertices, expected {count}")
        # obj keeps the first three coordinates of each unit 7-vector
        if any(len(v) != 3 or math.sqrt(sum(c * c for c in v)) > 1.0 + UNIT_NORM_TOL for v in vertices):
            problems.append("a vertex lies outside the unit ball")
        return problems
    if len(points) != count:
        problems.append(f"{len(points)} points, expected {count}")
    bad = sum(1 for pt in points if len(pt) != 7 or not _unit(pt))
    if bad:
        problems.append(f"{bad} points are not unit 7-vectors")
    return problems


def check_bad_input(exit_code: int, stdout: str, stderr: str) -> list[str]:
    """A malformed curve file must exit 2 with one line and no traceback."""
    problems: list[str] = []
    if exit_code != 2:
        problems.append(f"exit code {exit_code}, expected 2")
    if "Traceback" in stdout or "Traceback" in stderr:
        problems.append("printed a traceback")
    lines = [line for line in stderr.splitlines() if line.strip()]
    if len(lines) != 1:
        problems.append(f"{len(lines)} lines on stderr, expected 1")
    return problems


def check_output(op, exit_code: int, out: Path, reference: dict) -> list[str]:
    """Check one operation (a plan.Op) from its exit code and output file."""
    try:
        if op.command == "sample":
            return check_sample(op.fmt, op.n, exit_code, out)
        ref = reference.get(op.curve.ref_key)
        if ref is None:
            return [f"no reference for {op.curve.ref_key}"]
        text = out.read_text()
        if op.command == "verify":
            return check_verify(ref, exit_code, text)
        return check_report(ref, exit_code, text)
    except OSError as exc:
        return [f"no output file: {exc}"]
    except (ValueError, TypeError, KeyError, AttributeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
