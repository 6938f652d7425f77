"""Command-line front end.

Subcommands:

  gen        write a circle-symmetric curve from the two-parameter family
  verify     run the identity suite on a curve file
  report     singularity types, degrees, ramification totals, and area
  integrate  numeric degree of one osculating stage vs. the exact value
  sample     evaluate the projected surface on two chart grids

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
Each command imports the modules it runs when it runs, so ``sample``
never loads ``catalog``, ``harmonic`` or ``plucker``, and numpy is
imported only where arrays are made: ``gen`` and ``verify`` never load it.
All JSON output is deterministic: sorted keys, rationals as strings,
floats with 17 significant digits.  ``sample`` writes one block of points
at a time, so its memory does not grow with the grid; it writes a
temporary file beside ``--out`` and renames it onto ``--out`` only when
every point has passed its guard, so a failure leaves ``--out`` as it was;
an ``--out`` that is a device or a pipe is written through instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from pathlib import Path

from . import twistor
from .poly import BLOCK, evaluate, one_scale
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


def _write_text(out, text: str) -> None:
    """Write ``text`` to stdout (``out`` None), to the path ``out``, or to
    the open text file ``out``.  ``sample`` passes its open file, one piece
    at a time, so that every command's output leaves through this one
    function."""
    if out is None:
        sys.stdout.write(text)
    elif isinstance(out, str):
        Path(out).write_text(text)
    else:
        out.write(text)


def _load_curve(path: str):
    """Read a curve file; returns (curve, k).  Raises on bad schema."""
    raw = Path(path).read_text()
    try:
        obj = json.loads(raw)
    except RecursionError:
        raise ValueError("curve file is nested too deeply to parse") from None
    return curve_from_obj(obj)


def cmd_gen(args: argparse.Namespace) -> int:
    from . import catalog
    if args.k1 < 1 or args.k2 < 1:
        raise UsageError("--k1 and --k2 must be integers >= 1")
    curve = catalog.example_family(args.k1, args.k2)
    text = dumps_canonical(curve_to_obj(curve, (args.k1, args.k2)))
    _write_text(args.out, text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import harmonic
    curve, k = _load_curve(args.curve)
    checks: dict[str, dict] = {}  # inserted in the order "failed" lists them

    checks["quadric_membership"] = {"passed": twistor.is_quadric_curve(curve)}
    horizontal = twistor.is_superhorizontal(curve)
    checks["superhorizontality"] = {"passed": horizontal}

    # The minors are built on every curve, since they decide linear fullness;
    # the chain checks run only on a superhorizontal one.  f x f' = 0 and
    # linear fullness imply (f, f) = 0, so a linearly full curve that fails
    # quadric membership fails superhorizontality too.
    try:
        seq = harmonic.build_sequence(curve)
        checks["harmonic_sequence"] = harmonic.check_recursion(seq) if horizontal else \
            {"passed": False, "skipped": True, "error": "skipped: superhorizontality failed"}
    except ValueError as exc:
        seq = None
        checks["harmonic_sequence"] = {"passed": False, "error": str(exc)}

    skip = ("skipped: no harmonic sequence" if seq is None
            else None if horizontal else "skipped: superhorizontality failed")
    for name, check in (("reality", harmonic.check_reality),
                        ("norm_products", harmonic.check_norm_products),
                        ("cross_table", harmonic.check_cross_table)):
        checks[name] = check(seq) if skip is None else \
            {"passed": False, "skipped": True, "error": skip}

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
    from . import catalog
    if k is None:
        return {"passed": True, "skipped": True,
                "error": "skipped: curve file carries no exponent pair"}
    try:
        spec = catalog.SingularityTypeSpec.from_pair(k[0], k[1])
        form = catalog.normal_form_of(curve, spec)
    except ValueError as exc:
        return {"passed": False, "error": str(exc)}
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
    from . import harmonic, plucker
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
    from . import harmonic, plucker
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


# a sample point is refused unless |f(z)|^2 exceeds this fraction of
# (sum over terms of |a| r^e)^2, a bound that scales with f as |f|^2 does
_VANISH_REL = 1e-24


def _sample_blocks(curve, n: int):
    """The 2n^2 sample points, as (at most ``poly.BLOCK``, 7) arrays of unit 7-vectors.

    Each chart is an n-by-n polar grid whose point i*n + j lies at the
    chart's i-th radius and at angle 2*pi*j/n.  The first chart covers |z| <= 1 including the
    boundary circle; the second works in the w = 1/z coordinate with radii
    strictly below 1, so the shared circle is emitted once (it belongs to
    the first chart).  The blocks come in that order, chart by chart.  Each
    is evaluated by one ``poly.evaluate`` call and projected by
    ``twistor.project_arrays``, and reads its radii, angles and guard
    floors from n-length tables by index, so no array grows with n^2.  A
    point where the curve vanishes raises RuntimeError naming it in z.
    """
    import numpy as np
    total = max(max(c.degree() for c in curve), 0)
    reversed_curve = tuple(c.reverse(total) for c in curve)
    angles = [2.0 * math.pi * j / n for j in range(n)]
    cos = np.array([math.cos(t) for t in angles])
    sin = np.array([math.sin(t) for t in angles])
    for in_w, chart, radii in ((False, curve, [i / (n - 1) for i in range(n)]),
                               (True, reversed_curve, [i / n for i in range(n)])):
        conv = [c.float_terms() for c in chart]
        top = max(k for k, _ in conv)
        # radii lie in [0, 1] and a float below 1 is at most 1 - 2^-53, so
        # rad**e is the same 0.0 or 1.0 for every e past 2^64; an e past
        # about 2^1024 would not convert to a float
        sizes = [(min(e, 1 << 64), math.ldexp(math.hypot(re, im), k - top))
                 for k, terms in conv for e, re, im in terms]
        radius = np.array(radii)
        floor = np.array([_VANISH_REL * sum(m * rad**e for e, m in sizes) ** 2 for rad in radii])
        for lo in range(0, n * n, BLOCK):
            i, j = np.divmod(np.arange(lo, min(lo + BLOCK, n * n)), n)
            zr, zi = radius[i] * cos[j], radius[i] * sin[j]
            # a power of huge degree overflows near |z| = 1 to a NaN |f|^2,
            # which the guard refuses like a zero
            with np.errstate(over="ignore", invalid="ignore"):
                xr, xi = one_scale(evaluate(chart, zr, zi))
                sq = xr[0] * xr[0] + xi[0] * xi[0]
                for a, b in zip(xr[1:], xi[1:]):
                    sq += a * a + b * b
            bad = ~(sq > floor[i])
            if bad.any():
                k = int(np.argmax(bad))
                at = complex(zr[k], zi[k])
                if in_w:
                    at = 1 / at if at else "inf"
                raise RuntimeError(f"curve vanishes near sample point z={at}")
            yield twistor.project_arrays(xr, xi)


def _rows(row: str, sep: str, points) -> str:
    """The %-template ``row`` filled once per point, by one ``%``; "%.17g" is format_float."""
    return sep.join([row] * len(points)) % tuple(points.ravel().tolist())


def _obj_mesh(n: int, lo: int, hi: int) -> str:
    """obj face rows of grid quads lo..hi-1, counted through both charts in
    turn: two triangles (a, b, c), (a, c, d) per quad, 1-based vertex numbers."""
    import numpy as np
    chart, q = np.divmod(np.arange(lo, hi), (n - 1) * n)
    i, j = np.divmod(q, n)
    a = chart * n * n + i * n + j + 1
    b = a - j + (j + 1) % n
    faces = np.stack([a, b, b + n, a, b + n, a + n], axis=1).reshape(-1, 3)
    return _rows("f %d %d %d", "\n", faces)


def _sample_text(curve, n: int, fmt: str):
    """``sample``'s output in pieces of at most one block each: the header,
    each block's rows, for obj the faces in blocks of ``BLOCK`` quads, and
    the footer.  Their concatenation is the whole file."""
    if fmt == "json":
        # dumps_canonical of {"n", "charts", "points": strings}, written directly
        row = "    [\n" + ",\n".join(['      "%.17g"'] * 7) + "\n    ]"
        head, sep, tail = f'{{\n  "charts": 2,\n  "n": {n},\n  "points": [\n', ",\n", "\n  ]\n}\n"
    elif fmt == "csv":
        row = ",".join(["%.17g"] * 7)
        head, sep, tail = "x1,x2,x3,x4,x5,x6,x7\n", "\n", "\n"
    else:
        row, head, sep, tail = "v %.17g %.17g %.17g", "", "\n", "\n"
    yield head
    for k, block in enumerate(_sample_blocks(curve, n)):
        yield (sep if k else "") + _rows(row, sep, block[:, :3] if fmt == "obj" else block)
    if fmt == "obj":
        quads = 2 * (n - 1) * n
        for lo in range(0, quads, BLOCK):
            yield "\n" + _obj_mesh(n, lo, min(lo + BLOCK, quads))
    yield tail


def cmd_sample(args: argparse.Namespace) -> int:
    if args.n < 8:
        raise UsageError("sample count -n must be at least 8")
    curve, _k = _load_curve(args.curve)
    text = _sample_text(curve, args.n, args.format)
    # a new or regular --out is written beside itself and renamed onto it
    # once complete, so a failure part way leaves it as it was; a device or
    # a pipe is written through, since a rename would replace it
    try:
        regular = stat.S_ISREG(os.stat(args.out).st_mode)
    except FileNotFoundError:
        regular = True
    tmp = f"{args.out}.{os.urandom(4).hex()}.tmp" if regular else None
    out = open(tmp, "x") if regular else open(args.out, "w")
    try:
        with out:
            for piece in text:
                _write_text(out, piece)
        if regular:
            os.replace(tmp, args.out)
    except BaseException:
        if regular:
            os.unlink(tmp)
        raise
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
