"""Command-line front end.

Subcommands:

  gen        write a circle-symmetric curve from the two-parameter family
  verify     run the identity suite on a curve file
  report     singularity types, degrees, ramification totals, and area
  integrate  numeric degree of one osculating stage vs. the exact value
  sample     evaluate the projected surface on two chart grids

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
All JSON output is deterministic: sorted keys, rationals as strings,
floats with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import catalog, harmonic, plucker, twistor
from .serialize import (
    curve_from_obj,
    curve_to_obj,
    dumps_canonical,
    format_float,
    jsonable,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_curve(path: str):
    """Read a curve file; returns (curve, k).  Raises on bad schema."""
    raw = Path(path).read_text()
    try:
        obj = json.loads(raw)
    except RecursionError:
        raise ValueError("curve file is nested too deeply to parse") from None
    return curve_from_obj(obj)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.k1 < 1 or args.k2 < 1:
        raise UsageError("--k1 and --k2 must be integers >= 1")
    curve = catalog.example_family(args.k1, args.k2)
    text = dumps_canonical(curve_to_obj(curve, (args.k1, args.k2)))
    _write_text(args.out, text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    curve, k = _load_curve(args.curve)
    checks: dict[str, dict] = {}  # inserted in the order "failed" lists them

    checks["quadric_membership"] = {"passed": twistor.is_quadric_curve(curve)}
    horizontal = twistor.is_superhorizontal(curve)
    checks["superhorizontality"] = {"passed": horizontal}

    seq = None
    try:
        seq = harmonic.build_sequence(curve)
        rec = harmonic.check_recursion(seq)
        seq_ok = (
            all(rec["derivative_rule"])
            and all(rec["conjugate_derivative_rule"])
            and rec["holomorphic_start"]
            and rec["terminates"]
        )
        checks["harmonic_sequence"] = {"passed": seq_ok, "detail": rec}
    except ValueError as exc:
        checks["harmonic_sequence"] = {"passed": False, "error": str(exc)}

    if seq is not None and horizontal:
        reality = harmonic.check_reality(seq)
        norms = harmonic.check_norm_products(seq)
        cross = harmonic.check_cross_table(seq)
        checks["reality"] = {
            "passed": reality["all_proportional"],
            "detail": reality,
        }
        checks["norm_products"] = {
            "passed": norms["all_passed"],
            "detail": {"constants": norms["constants"]},
        }
        checks["cross_table"] = {
            "passed": cross["all_passed"],
            "detail": {
                "zero_entries_exact": cross["zero_entries_exact"],
                "proportional_entries_exact": cross["proportional_entries_exact"],
                "max_scalar_error": cross["max_scalar_error"],
            },
        }
    else:
        reason = "skipped: superhorizontality failed" if seq is not None else \
            "skipped: no harmonic sequence"
        for name in ("reality", "norm_products", "cross_table"):
            checks[name] = {"passed": False, "skipped": True, "error": reason}

    checks["coefficient_reality"] = _coefficient_reality(curve, k)

    failed = [
        name for name, rec in checks.items()
        if not rec["passed"] and not rec.get("skipped")
    ]
    report = {
        "checks": checks,
        "failed": failed,
        "passed": not failed,
    }
    _write_text(args.out, dumps_canonical(jsonable(report)))
    if failed:
        print(f"verification failed: {failed[0]}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _coefficient_reality(curve, k) -> dict:
    if k is None:
        return {"passed": True, "skipped": True,
                "error": "skipped: curve file carries no exponent pair"}
    try:
        spec = catalog.SingularityTypeSpec.from_pair(k[0], k[1])
        form = catalog.normal_form_of(curve, spec)
    except ValueError as exc:
        return {"passed": True, "skipped": True, "error": f"skipped: {exc}"}
    ok, mu = catalog.reality_check(form)
    return {"passed": ok, "mu": mu}


def cmd_report(args: argparse.Namespace) -> int:
    curve, _k = _load_curve(args.curve)
    try:
        return _report_body(args.out, curve)
    except ValueError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


def _report_body(out: str | None, curve) -> int:
    seq = harmonic.build_sequence(curve)
    rep = plucker.full_report(seq)
    body = rep.to_json_dict()
    body["plucker_identity"] = plucker.plucker_identity(rep.degrees, rep.totals)
    body["symmetric"] = plucker.symmetry_check(rep.totals)

    numeric_p = (0, 2, 3)
    numeric = {}
    agree = True
    for p in numeric_p:
        est = plucker.degrees_numeric(seq, p)
        numeric[str(p)] = format_float(est)
        agree = agree and round(est) == rep.degrees[p]
    body["numeric_degrees"] = numeric
    body["triple_agreement"] = agree

    _write_text(out, dumps_canonical(jsonable(body)))
    return EXIT_OK if body["plucker_identity"] and agree else EXIT_FAIL


def cmd_integrate(args: argparse.Namespace) -> int:
    if not 0 < args.tol < math.inf:
        raise UsageError("--tol must be finite and positive")
    if args.grid < 8:
        raise UsageError("--grid must be at least 8")
    if not 0 <= args.p <= 5:
        raise UsageError("--p must be in 0..5")
    curve, _k = _load_curve(args.curve)
    try:
        seq = harmonic.build_sequence(curve)
        exact = plucker.degrees_exact(seq)[args.p]
    except ValueError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    try:
        est = plucker.degrees_numeric(
            seq, args.p, rel_tol=args.tol,
            start_nodes=args.grid, max_nodes=4 * args.grid,
        )
    except RuntimeError as exc:
        print(f"p = {args.p}", file=sys.stderr)
        print(f"exact = {exact}", file=sys.stderr)
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_FAIL
    err = abs(est - exact)
    print(f"p = {args.p}")
    print(f"estimate = {format_float(est)}")
    print(f"exact = {exact}")
    print(f"absolute error = {format_float(err)}")
    return EXIT_OK if err <= args.tol * exact else EXIT_FAIL


# a sample point is refused where |f(z)|^2 is at most this fraction of
# (sum over terms of |a| r^e)^2, a bound that scales with f as |f|^2 does
_VANISH_REL = 1e-24


def _sample_points(curve, n: int) -> list[list[float]]:
    """2n^2 unit 7-vectors: an n-by-n polar grid on each of two charts.

    The first chart covers |z| <= 1 including the boundary circle; the
    second works in the w = 1/z coordinate with radii strictly below 1, so
    the shared circle is emitted once (it belongs to the first chart).
    """
    total = max(max(c.degree() for c in curve), 0)
    reversed_curve = tuple(c.reverse(total) for c in curve)
    points: list[list[float]] = []
    for chart, radius_of in (
        (curve, lambda i: i / (n - 1)),
        (reversed_curve, lambda i: i / n),
    ):
        sizes = [(e, abs(complex(a))) for c in chart for e, a in c.terms.items()]
        for i in range(n):
            r = radius_of(i)
            floor = _VANISH_REL * sum(m * r**e for e, m in sizes) ** 2
            for j in range(n):
                theta = 2.0 * math.pi * j / n
                z = complex(r * math.cos(theta), r * math.sin(theta))
                x = [c(z) for c in chart]
                if sum(abs(v) ** 2 for v in x) <= floor:
                    raise RuntimeError(f"curve vanishes near sample point z={z}")
                points.append([float(v) for v in twistor.project(x)])
    return points


def _obj_mesh(points: list[list[float]], n: int) -> str:
    lines = []
    for pt in points:
        lines.append("v " + " ".join(format_float(c) for c in pt[:3]))
    for chart in range(2):
        off = chart * n * n
        for i in range(n - 1):
            for j in range(n):
                a = off + i * n + j
                b = off + i * n + (j + 1) % n
                c = off + (i + 1) * n + (j + 1) % n
                d = off + (i + 1) * n + j
                lines.append(f"f {a + 1} {b + 1} {c + 1}")
                lines.append(f"f {a + 1} {c + 1} {d + 1}")
    return "\n".join(lines) + "\n"


def cmd_sample(args: argparse.Namespace) -> int:
    if args.n < 8:
        raise UsageError("sample count -n must be at least 8")
    curve, _k = _load_curve(args.curve)
    points = _sample_points(curve, args.n)
    if args.format == "json":
        body = {
            "n": args.n,
            "charts": 2,
            "points": [[format_float(c) for c in pt] for pt in points],
        }
        text = dumps_canonical(body)
    elif args.format == "csv":
        rows = ["x1,x2,x3,x4,x5,x6,x7"]
        rows += [",".join(format_float(c) for c in pt) for pt in points]
        text = "\n".join(rows) + "\n"
    else:
        text = _obj_mesh(points, args.n)
    _write_text(args.out, text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supermin",
        description="Generate, verify, and measure superminimal sphere curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a curve from the two-parameter family")
    gen.add_argument("--k1", type=int, required=True)
    gen.add_argument("--k2", type=int, required=True)
    gen.add_argument("--out", default=None)
    gen.set_defaults(handler=cmd_gen)

    verify = sub.add_parser("verify", help="run the identity suite on a curve file")
    verify.add_argument("curve")
    verify.add_argument("--out", default=None)
    verify.set_defaults(handler=cmd_verify)

    report = sub.add_parser("report", help="types, degrees, totals, and area")
    report.add_argument("curve")
    report.add_argument("--out", default=None)
    report.set_defaults(handler=cmd_report)

    integrate = sub.add_parser("integrate", help="numeric degree of one stage")
    integrate.add_argument("curve")
    integrate.add_argument("--p", type=int, required=True)
    integrate.add_argument("--tol", type=float, default=0.01)
    integrate.add_argument("--grid", type=int, default=48)
    integrate.set_defaults(handler=cmd_integrate)

    sample = sub.add_parser("sample", help="evaluate the projected surface")
    sample.add_argument("curve")
    sample.add_argument("-n", type=int, default=32)
    sample.add_argument("--out", required=True)
    sample.add_argument("--format", choices=("json", "csv", "obj"), default="json")
    sample.set_defaults(handler=cmd_sample)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
