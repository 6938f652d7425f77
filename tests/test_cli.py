from __future__ import annotations

import json
import math
import os
import random
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from supermin import catalog, cli, g2, harmonic
from supermin.field import AlgScalar
from supermin.poly import Poly
from supermin.serialize import curve_to_obj, dumps_canonical, format_float, jsonable

CLI = [sys.executable, "-m", "supermin.cli"]


def run_cli(*args, **kw):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, **kw
    )


@pytest.fixture(scope="module")
def curve_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("curves") / "c11.json"
    res = run_cli("gen", "--k1", "1", "--k2", "1", "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


@pytest.fixture(scope="module")
def perturbed_file(curve_file, tmp_path_factory):
    data = json.loads(curve_file.read_text())
    for rec in data["components"][2]:
        parts = rec[1]
        for i, s in enumerate(parts):
            if s != "0":
                parts[i] = s + "7"  # append a digit: wrong but well-formed
                break
        break
    path = tmp_path_factory.mktemp("curves") / "bad.json"
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_writes_curve_json(curve_file):
    data = json.loads(curve_file.read_text())
    assert data["basis"] == "e"
    assert data["k"] == [1, 1]
    assert len(data["components"]) == 7


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("gen", "--k1", "2", "--k2", "3", "--out", str(a)).returncode == 0
    assert run_cli("gen", "--k1", "2", "--k2", "3", "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_bad_exponents():
    assert run_cli("gen", "--k1", "0", "--k2", "1").returncode == 2


def test_gen_io_failure():
    res = run_cli("gen", "--k1", "1", "--k2", "1", "--out", "/no/such/dir/x.json")
    assert res.returncode == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_family_member_passes(curve_file, tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", str(curve_file), "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["failed"] == []
    for name in (
        "quadric_membership",
        "superhorizontality",
        "harmonic_sequence",
        "reality",
        "norm_products",
        "cross_table",
        "coefficient_reality",
    ):
        assert report["checks"][name]["passed"], name


def test_verify_perturbed_curve_fails(perturbed_file, tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", str(perturbed_file), "--out", str(out))
    assert res.returncode == 1
    report = json.loads(out.read_text())
    assert "superhorizontality" in report["failed"]
    assert res.stderr.strip()


def test_verify_scaled_curve_passes(curve11, seq11, tmp_path):
    """The (1,1) member times 10^-6 is as null, superhorizontal and linearly
    full as the member; the sample guard scales with the curve, so verify
    must finish and pass rather than reject every draw.  Only then are the
    sample points compared in process, where a hang would have no timeout."""
    small = AlgScalar.rational(1, 10**6)
    path = tmp_path / "small.json"
    path.write_text(dumps_canonical(curve_to_obj(tuple(c * small for c in curve11))))
    res = run_cli("verify", str(path), timeout=120)
    assert res.returncode == 0, res.stderr
    want = harmonic.regular_sample_points(seq11)
    for s in (small, AlgScalar.rational(10**6)):
        scaled = harmonic.build_sequence(tuple(c * s for c in curve11))
        assert harmonic.regular_sample_points(scaled) == want


def test_verify_tiny_curve_measures_its_frame(curve12, tmp_path):
    """The (1,2) member times 10^-200: its float frame once underflowed to
    NaN, and a max() that dropped the NaN reported "max_scalar_error": "0"
    with exit 0.  The float audit must measure a finite, non-zero error."""
    tiny = AlgScalar.rational(1, 10**200)
    path = tmp_path / "tiny.json"
    path.write_text(dumps_canonical(curve_to_obj(tuple(c * tiny for c in curve12))))
    res = run_cli("verify", str(path), timeout=120)
    assert res.returncode == 0, res.stderr
    err = json.loads(res.stdout)["checks"]["cross_table"]["detail"]["max_scalar_error"]
    assert 0.0 < float(err) <= 1e-8, err


# the (1,2) member at scales that once broke its float paths
SCALED_12 = {
    "huge": lambda c: c * AlgScalar.rational(10**200),
    "tiny": lambda c: c * AlgScalar.rational(1, 10**200),
    "z_power": lambda c: Poly.monomial(10**9) * c,
    "z_power_30": lambda c: Poly.monomial(10**30) * c,
    "z_power_400": lambda c: Poly.monomial(10**400) * c,
}
# the chain divides out z^N, so verify passes on each z^N multiple; sample
# reads the file's curve, which vanishes at z = 0 to an order no sample guard
# accepts: at N = 10^30 its float powers overflow at |z| = 1, and 10^400
# does not convert to a float
SCALED_12_FAILS = {(name, "sample") for name in ("z_power", "z_power_30", "z_power_400")}


@pytest.fixture(scope="module")
def scaled_12_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("scaled")
    member = catalog.example_family(1, 2)
    for name, scale in SCALED_12.items():
        curve = tuple(scale(c) for c in member)
        (root / f"{name}.json").write_text(dumps_canonical(curve_to_obj(curve, (1, 2))))
    return root


@pytest.mark.parametrize("command", ["verify", "report", "integrate", "sample"])
@pytest.mark.parametrize("name", sorted(SCALED_12))
def test_scaled_member_exits_cleanly(scaled_12_files, name, command, capsys, tmp_path):
    """Every command on the (1,2) member times 10^200, 10^-200 or z^N
    either succeeds or fails with one line: no traceback, and no warning
    (pyproject.toml turns warnings into errors)."""
    argv = [command, str(scaled_12_files / f"{name}.json")]
    argv += {"verify": ["--out", str(tmp_path / "v.json")],
             "integrate": ["--p", "0"],
             "sample": ["-n", "8", "--out", str(tmp_path / "s.json")]}.get(command, [])
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == (1 if (name, command) in SCALED_12_FAILS else 0), err
    assert len(err.splitlines()) <= 1, err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("name", ["z_power", "z_power_30", "z_power_400"])
def test_z_power_multiple_verifies_as_the_member(scaled_12_files, name, tmp_path):
    """The (1,2) member times z^N is the member in CP^6, and the chain is
    built with z^N divided out: verify prints the member's records.  The
    coefficient vectors are read with the support shifted down by N, so
    coefficient_reality has the member's mu too."""
    member = tmp_path / "member.json"
    member.write_text(dumps_canonical(curve_to_obj(catalog.example_family(1, 2), (1, 2))))
    checks = []
    for path in (member, scaled_12_files / f"{name}.json"):
        out = tmp_path / f"{path.stem}.verify.json"
        assert cli.main(["verify", str(path), "--out", str(out)]) == 0
        checks.append(json.loads(out.read_text())["checks"])
    assert "mu" in checks[0]["coefficient_reality"]
    assert checks[1] == checks[0]


@pytest.mark.parametrize("k", [[2, 1], [1000000, 1]])
def test_verify_fails_a_file_whose_k_tag_is_not_its_type(k, capsys, tmp_path):
    """The (1,2) golden curve retagged: its support is off the tag's ladder,
    so coefficient_reality fails and names the support, where it was once
    skipped and verify exited 0.  Every other check still passes."""
    obj = json.loads((Path(__file__).parent / "golden" / "gen_1_2.json").read_text())
    obj["k"] = k
    path = tmp_path / "retagged.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "v.json"
    assert cli.main(["verify", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["verification failed: coefficient_reality"]
    report = json.loads(out.read_text())
    assert report["failed"] == ["coefficient_reality"]
    rec = report["checks"]["coefficient_reality"]
    assert rec["passed"] is False and "not on the ladder" in rec["error"]


def test_report_ignores_monomial_content(scaled_12_files, tmp_path):
    """report on the (1,2) member times z^(10^9) or z^(10^400) writes the
    member's bytes."""
    member = tmp_path / "member.json"
    member.write_text(dumps_canonical(curve_to_obj(catalog.example_family(1, 2), (1, 2))))
    outputs = []
    for path in (member, scaled_12_files / "z_power.json", scaled_12_files / "z_power_400.json"):
        out = tmp_path / f"{path.stem}.report.json"
        assert cli.main(["report", str(path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_report_on_high_degree_members_finishes(tmp_path):
    """report on the (1, 200) member, whose minors all share a power of z,
    and on the (1,2) member with component 0 replaced by one term of degree
    10^30 returns in a subprocess with a timeout: the degrees are read off
    the minors' exponents, after one look at the Wronskian's term count.
    The second file is not a superminimal curve, and its Wronskian has more
    than one term, so report refuses it in one line."""
    member = tmp_path / "m1_200.json"
    member.write_text(dumps_canonical(curve_to_obj(catalog.example_family(1, 200), (1, 200))))
    res = run_cli("report", str(member), timeout=30)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["delta"] == [404, 806, 808, 808, 806, 404]
    curve = list(catalog.example_family(1, 2))
    curve[0] = Poly.monomial(10**30)
    lopsided = tmp_path / "lopsided.json"
    lopsided.write_text(dumps_canonical(curve_to_obj(tuple(curve))))
    res = run_cli("report", str(lopsided), timeout=30)
    assert res.returncode == 1 and len(res.stderr.splitlines()) == 1, res.stderr


def test_report_on_two_far_apart_terms_finishes(tmp_path):
    """The (1,2) member with component 0 set to z^3000 + z^(10^30): its
    minors have degrees about 10^30, and an exact gcd of two of them would
    have remainders with coefficients of about 10^29 digits.  Its Wronskian
    has more than one term, so report refuses the interior singularity in
    one line, within the timeout."""
    curve = list(catalog.example_family(1, 2))
    curve[0] = Poly({3000: 1, 10**30: 1})
    path = tmp_path / "far.json"
    path.write_text(dumps_canonical(curve_to_obj(tuple(curve))))
    res = run_cli("report", str(path), timeout=30)
    assert res.returncode == 1 and len(res.stderr.splitlines()) == 1, res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("k1, k2", [(50, 50), (200, 200), (400, 1)])
def test_verify_high_degree_member_fails_in_one_line(k1, k2, capsys, tmp_path):
    """verify on a member of degree 300 to 1602: every exact check passes,
    but D_5 and D_6 underflow to 0.0 at the sample points of least radius,
    so the frame's max_scalar_error is NaN and cross_table fails, with one
    stderr line and no warning (pyproject.toml turns warnings into errors).
    On (200, 200) and (400, 1) the sample guard's |z|^e also overflows a
    float at radii above 1; the guard then refuses that point, with no
    traceback.  The exit should become 0 once the frame divides by the
    content-free D_p, as ``density_value`` does."""
    path = tmp_path / f"m{k1}_{k2}.json"
    path.write_text(dumps_canonical(curve_to_obj(catalog.example_family(k1, k2), (k1, k2))))
    out = tmp_path / "v.json"
    assert cli.main(["verify", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["verification failed: cross_table"]
    checks = json.loads(out.read_text())["checks"]
    assert checks["cross_table"]["detail"]["max_scalar_error"] == "nan"
    assert all(rec["passed"] for name, rec in checks.items() if name != "cross_table")


def test_verify_prints_a_mu_beyond_the_int_digit_limit(curve12, capsys, tmp_path):
    """The (1,2) member times 10^3999 + 7 is the member up to scale, and its
    reality constant mu, (10^3999 + 7)^2 times the member's, has about 8000
    digits: more than ``str`` of an int prints.  verify must pass and print
    it in full.  A 5000-digit coefficient in a curve file is still refused
    at the input boundary, with one line."""
    scale = 10**3999 + 7
    path = tmp_path / "big.json"
    obj = curve_to_obj(tuple(c * AlgScalar.rational(scale) for c in curve12), (1, 2))
    path.write_text(dumps_canonical(obj))
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "v.json")]) == 0
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["passed"] and report["failed"] == []
    assert all(rec["passed"] for rec in report["checks"].values())
    spec = catalog.SingularityTypeSpec.from_pair(1, 2)
    _ok, mu = catalog.reality_check(catalog.normal_form_of(curve12, spec))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(mu.as_fraction() * scale**2)
    finally:
        sys.set_int_max_str_digits(limit)
    assert report["checks"]["coefficient_reality"]["mu"] == want
    assert len(want) > 7990

    comps = obj["components"]
    comps[0][0][1][0] = "1" + "0" * 4999
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1, err
    assert err.startswith("invalid input: not a rational"), err[:80]
    assert "Traceback" not in out + err


def off_horizontal_curve():
    """Null and linearly full but not superhorizontal: the (1,1) ladder
    sum_j c_j u_j z^(K_j) with c_3 = sqrt 2 and every other c_j = 1."""
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    comps = [Poly() for _ in range(7)]
    for j, exp in enumerate(spec.exponents()):
        c = AlgScalar.root(2) if j == 3 else AlgScalar.one()
        vec = g2.scale_vec(c, g2.u_basis()[j])
        for a in range(7):
            if vec[a]:
                comps[a] = comps[a] + Poly.monomial(exp, vec[a])
    return tuple(comps)


CHAIN_CHECKS = {
    "harmonic_sequence": harmonic.check_recursion,
    "reality": harmonic.check_reality,
    "norm_products": harmonic.check_norm_products,
    "cross_table": harmonic.check_cross_table,
}
RECORD_SHAPES = (
    {"passed"}, {"passed", "detail"}, {"passed", "error"},
    {"passed", "skipped", "error"}, {"passed", "mu"},
)


@pytest.mark.parametrize(
    "name", ["member", "perturbed", "not_superhorizontal", "not_linearly_full"]
)
def test_verify_prints_each_check_as_returned(name, curve_file, perturbed_file, tmp_path):
    """``verify`` derives no verdict of its own: each chain check's record
    is ``jsonable`` of what the check returned, and every record has one of
    five shapes."""
    path = {"member": curve_file, "perturbed": perturbed_file}.get(name)
    if path is None:
        path = tmp_path / "control.json"
        flat = (Poly.const(1), Poly.monomial(1), Poly.monomial(2),
                Poly.monomial(1) + Poly.const(1), Poly(), Poly(), Poly())
        control = off_horizontal_curve() if name == "not_superhorizontal" else flat
        path.write_text(dumps_canonical(curve_to_obj(control)))
    out = tmp_path / "report.json"
    cli.main(["verify", str(path), "--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    assert all(set(rec) in RECORD_SHAPES for rec in checks.values()), checks
    ran = [check for check in CHAIN_CHECKS if "detail" in checks[check]]
    assert len(ran) == {"member": 4}.get(name, 0)
    if name in ("perturbed", "not_superhorizontal"):
        assert checks["harmonic_sequence"] == {
            "passed": False, "skipped": True, "error": "skipped: superhorizontality failed"}
    if ran:
        seq = harmonic.build_sequence(cli._load_curve(str(path))[0])
    for check in ran:
        assert checks[check] == jsonable(CHAIN_CHECKS[check](seq)), check


@pytest.mark.parametrize("degree", [10, 20])
def test_verify_refuses_a_random_curve_without_its_recursion(degree, tmp_path):
    """A random curve of 7 dense components is linearly full but neither
    null nor superhorizontal.  ``verify`` builds its minors and skips the
    chain checks, so it exits 1 in one line at once; running the recursion
    on it took 35 s at degree 10 and over 300 s at degree 20."""
    rng = random.Random(degree)
    curve = tuple(Poly({e: rng.randint(-5, 5) or 1 for e in range(degree + 1)})
                  for _ in range(7))
    path = tmp_path / "random.json"
    path.write_text(dumps_canonical(curve_to_obj(curve)))
    res = run_cli("verify", str(path), "--out", str(tmp_path / "v.json"), timeout=20)
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["verification failed: quadric_membership"]
    checks = json.loads((tmp_path / "v.json").read_text())["checks"]
    assert checks["harmonic_sequence"] == {
        "passed": False, "skipped": True, "error": "skipped: superhorizontality failed"}


def test_verify_missing_file_is_io_error():
    assert run_cli("verify", "/tmp/definitely-not-here.json").returncode == 3


def test_verify_parse_failure_is_usage_error(tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("this is not json")
    assert run_cli("verify", str(bad)).returncode == 2


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_values(curve_file):
    res = run_cli("report", str(curve_file))
    assert res.returncode == 0, res.stderr
    body = json.loads(res.stdout)
    assert body["area_pi"] == "24"
    assert body["delta"] == [6, 10, 12, 12, 10, 6]
    assert body["T"] == [0, 0, 0, 0, 0, 0]
    assert body["plucker_identity"] is True
    assert body["symmetric"] is True
    assert body["triple_agreement"] is True
    for p in ("0", "2", "3"):
        assert p in body["numeric_degrees"]


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_matches_exact(curve_file):
    res = run_cli("integrate", str(curve_file), "--p", "3")
    assert res.returncode == 0, res.stderr
    assert "estimate" in res.stdout and "exact = 12" in res.stdout


def test_integrate_forced_non_convergence(tmp_path):
    # the degree-8 member needs more than a handful of radial nodes, so a
    # capped coarse grid cannot reach a 1e-9 tolerance
    path = tmp_path / "c12.json"
    assert run_cli("gen", "--k1", "1", "--k2", "2", "--out", str(path)).returncode == 0
    res = run_cli(
        "integrate", str(path), "--p", "0", "--tol", "1e-9", "--grid", "8"
    )
    assert res.returncode == 1
    assert "non-convergence" in res.stderr


@pytest.fixture(scope="module")
def last_stage_file(tmp_path_factory):
    """(1, z, ..., z^5, z^7 - 7z^6): neither null nor superhorizontal, and
    ramified away from 0 in its last stage only (its Wronskian is
    174182400 (z - 1))."""
    curve = tuple(Poly.monomial(e) for e in range(6)) + (Poly({6: -7, 7: 1}),)
    path = tmp_path_factory.mktemp("curves") / "last_stage.json"
    path.write_text(dumps_canonical(curve_to_obj(curve)))
    return path


@pytest.mark.parametrize("args, code, err", [
    (["--p", "0", "--tol", "nan"], 2, "usage error:"),
    (["--p", "0", "--tol", "inf"], 2, "usage error:"),
    (["--p", "0", "--grid", "4"], 2, "usage error:"),
    (["--p", "5"], 1, "verification failed: unexpected interior singularity"),
], ids=["nan", "inf", "grid4", "last_stage"])
def test_integrate_rejects_non_finite_tol(args, code, err, last_stage_file, capsys):
    """Exit codes of integrate, each with one stderr line.  A non-finite
    --tol and a --grid below 8 are usage errors, checked before the curve
    file is read (here it does not exist); a curve ramified away from 0 in
    its last stage only is refused, as report refuses it."""
    path = str(last_stage_file) if code == 1 else "/no/such/curve.json"
    assert cli.main(["integrate", path, *args]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(err), lines


def test_integrate_p_out_of_range(curve_file):
    assert run_cli("integrate", str(curve_file), "--p", "6").returncode == 2


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_json_unit_points(curve_file, tmp_path):
    out = tmp_path / "pts.json"
    res = run_cli("sample", str(curve_file), "-n", "8", "--out", str(out))
    assert res.returncode == 0, res.stderr
    body = json.loads(out.read_text())
    pts = body["points"]
    assert len(pts) == 2 * 8 * 8
    for pt in pts:
        coords = [float(c) for c in pt]
        assert len(coords) == 7
        norm = sum(c * c for c in coords) ** 0.5
        assert abs(norm - 1.0) < 1e-10


def test_sample_deterministic(curve_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("sample", str(curve_file), "-n", "8", "--out", str(a))
    run_cli("sample", str(curve_file), "-n", "8", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sample_obj_mesh_counts(curve_file, tmp_path):
    out = tmp_path / "mesh.obj"
    n = 8
    res = run_cli(
        "sample", str(curve_file), "-n", str(n), "--format", "obj",
        "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 2 * n * n
    assert len(faces) == 2 * 2 * n * (n - 1)
    for face in faces:
        idx = [int(t) for t in face.split()[1:]]
        assert len(idx) == 3
        assert all(1 <= i <= len(verts) for i in idx)


def test_sample_csv(curve_file, tmp_path):
    out = tmp_path / "pts.csv"
    res = run_cli("sample", str(curve_file), "-n", "8", "--format", "csv",
                  "--out", str(out))
    assert res.returncode == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "x1,x2,x3,x4,x5,x6,x7"
    assert len(rows) == 1 + 2 * 8 * 8


def test_sample_guard_scales_with_the_curve(curve11, tmp_path):
    """The (1,1) member times 10^-13 or 10^+-200 has the member's image on
    the sphere, so sample must accept it and agree point by point; times
    2^+-40 the floats are the member's up to an exact power of two, so the
    bytes agree.  The member times z vanishes at z = 0 and must still be
    refused there."""
    z = Poly.monomial(1)
    scales = {
        "small": AlgScalar.rational(1, 10**13),
        "huge": AlgScalar.rational(10**200),
        "tiny": AlgScalar.rational(1, 10**200),
        "two_up": AlgScalar.rational(2**40),
        "two_down": AlgScalar.rational(1, 2**40),
    }
    curves = {"member": curve11, "times_z": tuple(z * c for c in curve11)}
    curves.update({name: tuple(c * s for c in curve11) for name, s in scales.items()})
    codes, points = {}, {}
    for name, curve in curves.items():
        src, out = tmp_path / f"{name}.json", tmp_path / f"{name}_pts.json"
        src.write_text(dumps_canonical(curve_to_obj(curve)))
        codes[name] = cli.main(["sample", str(src), "-n", "8", "--out", str(out)])
        if codes[name] == 0:
            points[name] = [[float(c) for c in pt] for pt in json.loads(out.read_text())["points"]]
    assert codes == {"member": 0, "times_z": 1, **{name: 0 for name in scales}}
    for name in ("small", "huge", "tiny"):
        for want, got in zip(points["member"], points[name]):
            assert max(abs(a - b) for a, b in zip(want, got)) <= 1e-12, name
    member = (tmp_path / "member_pts.json").read_bytes()
    for name in ("two_up", "two_down"):
        assert (tmp_path / f"{name}_pts.json").read_bytes() == member, name


def per_coordinate_sample_text(points: np.ndarray, n: int, fmt: str) -> str:
    """The reference writer for ``sample``: one ``format_float`` per
    coordinate, ``dumps_canonical`` of the point dict, the csv join, and an
    obj mesh built line by line from lists."""
    points = points.tolist()
    if fmt == "json":
        return dumps_canonical({"n": n, "charts": 2,
                                "points": [[format_float(c) for c in pt] for pt in points]})
    if fmt == "csv":
        rows = ["x1,x2,x3,x4,x5,x6,x7"] + [",".join(format_float(c) for c in pt) for pt in points]
        return "\n".join(rows) + "\n"
    lines = ["v " + " ".join(format_float(c) for c in pt[:3]) for pt in points]
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


SAMPLE_CASES = [(name, n, fmt) for name in ("curve12", "member_3_2", "dense_curve")
                for n in (8, 33) for fmt in ("json", "csv", "obj")]


@pytest.mark.parametrize("name, n, fmt", SAMPLE_CASES + [("curve12", 128, "json")])
def test_sample_bytes_match_the_per_coordinate_writer(
        name, n, fmt, curve12, family_curves, dense_curve, tmp_path):
    """``sample`` fills one %-template over the point array; its bytes must
    equal those of the per-coordinate writer, in all three formats."""
    curve = {"curve12": curve12, "member_3_2": family_curves[(3, 2)],
             "dense_curve": dense_curve}[name]
    src, out = tmp_path / "c.json", tmp_path / f"s.{fmt}"
    src.write_text(dumps_canonical(curve_to_obj(curve)))
    assert cli.main(["sample", str(src), "-n", str(n), "--format", fmt, "--out", str(out)]) == 0
    text = out.read_text()
    want = per_coordinate_sample_text(np.concatenate(list(cli._sample_blocks(curve, n))), n, fmt)
    if text != want:  # name the first differing line; a full diff of megabytes takes minutes
        got_lines, want_lines = text.splitlines(), want.splitlines()
        i = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
                 min(len(got_lines), len(want_lines)))
        pytest.fail(f"line {i + 1}: {got_lines[i:i + 1]} != {want_lines[i:i + 1]}")
    if fmt == "json":
        body = json.loads(text)
        assert (body["n"], body["charts"], len(body["points"])) == (n, 2, 2 * n * n)
        for pt in body["points"]:
            assert len(pt) == 7
            assert all(isinstance(s, str) and s == format_float(float(s)) for s in pt)


def test_rows_formats_like_format_float():
    """``"%.17g" % x`` is ``format_float(x)`` for signed zeros, non-finite
    values, subnormals and the extremes of float64."""
    xs = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1.7976931348623157e308,
          0.1, 1 / 3, 1e16, 123456789012345678.0]
    assert cli._rows("%.17g", ",", np.array(xs)[:, None]) == ",".join(map(format_float, xs))


def test_sample_rejects_tiny_grid(curve_file):
    assert run_cli("sample", str(curve_file), "-n", "4", "--out", "/tmp/x").returncode == 2


def test_sample_out_of_memory_exits_in_one_line(curve_file, monkeypatch, capsys, tmp_path):
    """Running out of memory ends in one stderr line and exit 1, not in a
    traceback: ``cli.main`` catches MemoryError as it does RuntimeError.
    Here it strikes after the first block is written, and the partial
    output is deleted."""
    def no_memory(curve, n):
        yield np.zeros((1, 7))
        raise MemoryError

    monkeypatch.setattr(cli, "_sample_blocks", no_memory)
    argv = ["sample", str(curve_file), "-n", "1000000", "--out", str(tmp_path / "s.json")]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: out of memory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, where", [
    ("times_z_minus_2", "(2+0j)"), ("times_z", "0j"), ("top_underflows", "inf")])
def test_sample_failure_leaves_out_as_it_was(name, where, curve11, curve_file, capsys,
                                             tmp_path):
    """A refused point is named in z, in one line with exit 1; an existing
    --out keeps its bytes and no temporary file is left.  (z - 2) times the
    (1,1) member passes every block of chart z and vanishes at w = 1/2 in
    chart w, named z=(2+0j); z times it vanishes at z = 0 in chart z; and
    the top coefficient 10^-400 underflows against the constant term, so
    the guard refuses w = 0, named z=inf.  An --out in a missing directory
    is an I/O error."""
    curve = {
        "times_z_minus_2": tuple(Poly({0: -2, 1: 1}) * c for c in curve11),
        "times_z": tuple(Poly.monomial(1) * c for c in curve11),
        "top_underflows": (Poly.const(1), Poly.monomial(5, AlgScalar.rational(1, 10**400)))
        + (Poly(),) * 5,
    }[name]
    src, out = tmp_path / "c.json", tmp_path / "s.json"
    src.write_text(dumps_canonical(curve_to_obj(curve)))
    out.write_bytes(b"earlier output\n")
    capsys.readouterr()
    assert cli.main(["sample", str(src), "-n", "64", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: curve vanishes near sample point z={where}"]
    assert out.read_bytes() == b"earlier output\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json", "s.json"]

    missing = tmp_path / "no_such_dir" / "s.json"
    assert cli.main(["sample", str(curve_file), "-n", "8", "--out", str(missing)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("io error:"), lines
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json", "s.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_sample_writes_through_a_pipe(curve_file, tmp_path):
    """An --out that is not a regular file, here a named pipe, is written
    through, not renamed over: the reader gets the bytes a regular --out
    gets, the pipe stays a pipe and no temporary file is left."""
    fifo, regular = tmp_path / "pipe", tmp_path / "s.obj"
    argv = ["sample", str(curve_file), "-n", "33", "--format", "obj", "--out"]
    assert cli.main(argv + [str(regular)]) == 0
    os.mkfifo(fifo)
    got = []

    def read():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        assert cli.main(argv + [str(fifo)]) == 0
    finally:
        # a reader still waiting for a writer is released with no bytes
        try:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass
        reader.join(10)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [regular.read_bytes()]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["pipe", "s.obj"]


def test_sample_memory_is_bounded_by_the_block(curve12, tmp_path):
    """``sample`` holds one block of points and of text at a time: under
    tracemalloc a json sample peaks below 3 MB at n = 128 and grows by less
    than 0.5 MB from n = 64 to n = 256 (the whole-grid writer peaked at
    19.6 MB, and at 5.1 and 78.2 MB)."""
    src = tmp_path / "c.json"
    src.write_text(dumps_canonical(curve_to_obj(curve12)))
    argv = ["sample", str(src), "--format", "json", "--out", str(tmp_path / "s.json")]
    assert cli.main(argv + ["-n", "8"]) == 0  # imports and caches outside the trace
    peaks = {}
    for n in (64, 128, 256):
        tracemalloc.start()
        try:
            assert cli.main(argv + ["-n", str(n)]) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    assert peaks[128] < 3.0, peaks
    assert peaks[256] - peaks[64] < 0.5, peaks


# with no arguments the child only imports supermin
_SAMPLE_MODULES = ("import sys\n"
                   "import supermin\n"
                   "code = 0\n"
                   "if sys.argv[1:]:\n"
                   "    from supermin import cli\n"
                   "    code = cli.main(sys.argv[1:])\n"
                   "print(code, *sorted(m for m in ('dataclasses', 'numpy', 'supermin.catalog',\n"
                   "                               'supermin.harmonic', 'supermin.plucker')\n"
                   "                     if m in sys.modules))")


def test_sample_imports_no_chain_module(curve_file, tmp_path):
    """``sample`` runs none of ``catalog``, ``harmonic`` and ``plucker``, and
    a fresh process that runs it has loaded none of them; ``verify`` in
    the same harness loads the two it runs, so the probe sees imports.
    ``verify``, ``gen`` and a bare ``import supermin`` load no numpy, while
    ``sample`` and ``report``, which make arrays, do. No command loads
    ``dataclasses``: the records are namedtuples."""
    def loaded(*argv):
        res = subprocess.run([sys.executable, "-c", _SAMPLE_MODULES, *argv],
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        return res.stdout.split()

    out = str(tmp_path / "s.csv")
    assert loaded("sample", str(curve_file), "-n", "8", "--format", "csv", "--out", out) == [
        "0", "numpy"]
    assert loaded("verify", str(curve_file), "--out", str(tmp_path / "v.json")) == [
        "0", "supermin.catalog", "supermin.harmonic"]
    assert loaded("gen", "--k1", "1", "--k2", "2", "--out", str(tmp_path / "g.json")) == [
        "0", "supermin.catalog"]
    assert loaded() == ["0"]
    assert loaded("report", str(curve_file), "--out", str(tmp_path / "r.json")) == [
        "0", "numpy", "supermin.harmonic", "supermin.plucker"]


# ---------------------------------------------------------------------------
# no BLAS
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"
BLAS_ENTRY_POINTS = {
    np: ("dot", "vdot", "matmul", "inner", "einsum", "tensordot"),
    np.linalg: ("norm", "det", "svd", "solve", "eig", "eigh", "qr", "lstsq", "matrix_rank"),
}


def test_commands_make_no_blas_call(monkeypatch, tmp_path):
    """``verify``, ``report`` and ``sample`` give their golden bytes and exit
    codes with every numpy entry point that can reach BLAS made to raise:
    the one-thread OpenBLAS default of ``supermin/__init__.py`` rests on
    this.  The ``@`` operator calls no attribute of numpy, so it cannot be
    caught this way."""
    def refuse(*args, **kwargs):
        raise AssertionError("a BLAS entry point was called")

    for module, names in BLAS_ENTRY_POINTS.items():
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    curve = str(GOLDEN / "gen_1_2.json")
    codes = dict(line.split() for line in (GOLDEN / "exit_codes.txt").read_text().splitlines())
    for name, argv in (("verify_1_2.json", ["verify", curve]),
                       ("report_1_2.json", ["report", curve]),
                       ("sample_1_2.csv", ["sample", curve, "-n", "16", "--format", "csv"])):
        out = tmp_path / name
        assert cli.main([*argv, "--out", str(out)]) == int(codes[name]), name
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), name
