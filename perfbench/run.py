"""Benchmark of the supermin command line.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the program under test is the
``supermin`` package under ``src/``.  The run writes its inputs and
outputs under ``.perfbench_work/`` and nowhere else.

Each workload is one closed-loop client: one ``supermin`` subprocess at a
time, in the caller's environment with SUPERMIN_THREADS removed, so the
default verify worker pool is what gets measured.  Every output is
checked (see oracle.py).  ``wall_s`` and ``cpu_s`` are the seconds of one
round: the mean of the faster half of each slot's runs, summed over the
round's slots (see per_round).  With ``--trace 0`` the last line of standard
output is a JSON object whose metrics are the end-to-end ones; with
``--trace 1`` the closed loop runs the first round only, its operations
are then run again in-process under the wrappers of tracer.py, and the
metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from oracle import check_bad_input, check_output, load_reference  # noqa: E402
from plan import BAD_INPUTS, WORKLOADS, make_plan  # noqa: E402

SETUP_REPEATS = 7
# Fewest rounds of a closed loop, so that every slot has more than one run.
MIN_ROUNDS = 2
IMPORT_REPEATS = 5
# Every run must end within 180 s; operations get what is left of this.
DEADLINE_S = 165.0


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    steal_s: float
    stdout: str = ""
    stderr: str = ""


@dataclass
class OpRecord:
    label: str
    command: str
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    steal_s: float = 0.0
    slot: str = ""
    problems: list[str] = field(default_factory=list)


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.started = time.perf_counter()
        self.plan = make_plan(workload, seed, seconds)
        self.seconds = seconds
        self.src = ROOT / "src"
        self.work = ROOT / ".perfbench_work" / f"{workload}-seed{seed}-trace{int(trace)}"
        self.inputs = self.work / "inputs"
        self.outputs = self.work / "outputs"
        self.env = child_env(self.src)
        self.reference = load_reference()

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str], name: str, env=None) -> Child:
        """Run one child to exit; wall time from spawn to exit, rusage of it."""
        out_path = self.outputs / f"{name}.stdout"
        err_path = self.outputs / f"{name}.stderr"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            steal = machine_steal_s()
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, env=env or self.env, cwd=ROOT, stdout=out, stderr=err
            )
            killer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            steal = machine_steal_s() - steal
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            exit_code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            steal_s=steal,
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
        )

    # ------------------------------------------------------------ set-up

    def setup(self) -> list[float]:
        """Write the run's inputs SETUP_REPEATS times; returns each wall time."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.outputs.mkdir(parents=True)
        argv = [
            sys.executable, str(HERE / "inputs.py"),
            "--workload", self.plan.workload, "--seed", str(self.plan.seed),
            "--seconds", str(self.seconds), "--out", str(self.inputs),
        ]
        times = []
        for rep in range(SETUP_REPEATS):
            child = self.spawn(argv, f"setup{rep}")
            if child.exit_code != 0:
                raise SetupError(f"input generation exited {child.exit_code}: {child.stderr.strip()}")
            times.append(child.wall_s)
        return times

    # ------------------------------------------------------------ operations

    def run_op(self, index: int, op, env=None, tag: str = "") -> tuple[OpRecord, Child]:
        out = self.outputs / (tag + op.out_name(index))
        argv = [sys.executable, "-m", "supermin.cli"] + op.argv(
            str(self.inputs / op.curve.file_name), str(out)
        )
        child = self.spawn(argv, f"{tag}op{index:03d}", env=env)
        rec = OpRecord(op.label(), op.command, child.wall_s, child.cpu_s, child.rss_mb,
                       child.steal_s, op.slot)
        return rec, child

    def check(self, index: int, op, rec: OpRecord, child: Child, tag: str = "") -> None:
        out = self.outputs / (tag + op.out_name(index))
        rec.problems = check_output(op, child.exit_code, out, self.reference)
        if "Traceback" in child.stderr:
            rec.problems.append("printed a traceback")

    def closed_loop(self, max_rounds: int) -> list[OpRecord]:
        """Whole rounds of the plan while they fit in the run's length."""
        runs = []
        round_walls: list[float] = []
        while len(round_walls) < max_rounds and another_round(
            round_walls, self.seconds, self.remaining()
        ):
            start = time.perf_counter()
            base = len(round_walls) * self.plan.per_round
            for offset, op in enumerate(self.plan.round_ops(len(round_walls))):
                runs.append((base + offset, op, *self.run_op(base + offset, op)))
            round_walls.append(time.perf_counter() - start)
        # Outputs are checked only after the loop: a child's maximum RSS
        # counts the memory of this process at spawn, so it must stay small.
        for index, op, rec, child in runs:
            self.check(index, op, rec, child)
            report_op(rec)
        return [rec for _index, _op, rec, _child in runs]

    def bad_inputs(self) -> dict[str, list[str]]:
        """Feed sample each malformed curve file; shape -> problems."""
        results = {}
        for shape in BAD_INPUTS:
            argv = [
                sys.executable, "-m", "supermin.cli", "sample",
                str(self.inputs / f"bad_{shape}.json"), "-n", "8", "--format", "csv",
                "--out", str(self.outputs / f"bad_{shape}.csv"),
            ]
            child = self.spawn(argv, f"bad_{shape}")
            results[shape] = check_bad_input(child.exit_code, child.stdout, child.stderr)
        return results

    def import_times(self) -> list[float]:
        argv = [sys.executable, "-c", "import supermin.cli"]
        return [self.spawn(argv, f"import{rep}").wall_s for rep in range(IMPORT_REPEATS)]


class SetupError(RuntimeError):
    pass


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SUPERMIN_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def machine_steal_s() -> float:
    """CPU seconds the hypervisor took from this machine, all CPUs, so far.

    Read from the "steal" column of /proc/stat; 0 where it is missing.  It
    explains run-to-run spread in wall time and is printed beside it.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def report_op(rec: OpRecord) -> None:
    verdict = "ok" if not rec.problems else "FAILED: " + "; ".join(rec.problems)
    print(
        f"  {rec.label}: {rec.wall_s:.3f} s wall, {rec.cpu_s:.3f} s cpu, "
        f"{rec.rss_mb:.1f} MB, {rec.steal_s:.2f} s stolen, {verdict}",
        flush=True,
    )


# ---------------------------------------------------------------- provenance


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            ref_file = root / ".git" / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown (not a git checkout)"


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "supermin").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, src: Path) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    threads = os.environ.get("SUPERMIN_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "commit": _git_commit(ROOT),
        "src_sha256": source_digest(src),
        "SUPERMIN_THREADS": "unset" if threads is None else f"set to {threads!r} (removed for children)",
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------- the run


def another_round(round_walls: list[float], seconds: float, remaining: float) -> bool:
    """Whether to start another round after rounds that took ``round_walls``.

    At least MIN_ROUNDS; then only while the next round is expected to end
    within ``seconds`` of operations, give or take half a round, and well
    before the run's deadline.
    """
    if not round_walls:
        return True
    mean = sum(round_walls) / len(round_walls)
    if 2 * mean > remaining:
        return False
    if len(round_walls) < MIN_ROUNDS:
        return True
    return sum(round_walls) + 0.5 * mean < seconds


def faster_half_mean(values: list[float]) -> float:
    """Mean of the faster half of ``values`` (the faster one of two)."""
    ordered = sorted(values)
    return statistics.fmean(ordered[: (len(ordered) + 1) // 2])


def per_round(records: list[OpRecord], attr: str, stat=faster_half_mean) -> float:
    """Seconds of one round: ``stat`` of each slot over the run, summed.

    The end-to-end figures take the mean of each slot's faster half.  On a
    shared host the same operation runs up to 60 % slower while the
    hypervisor gives the machine's CPUs to others, in CPU time as much as
    in wall time.  Load only ever adds time: when it comes in bursts, the
    slot's median moves with the share of the run spent in them and the
    fastest run is steadier; when it is spread evenly, the fastest run is
    the rare lucky one and the median is steadier.  The faster half's mean
    had the smallest worst case of the three over both.
    """
    slots: dict[str, list[float]] = {}
    for rec in records:
        slots.setdefault(rec.slot, []).append(getattr(rec, attr))
    return sum(stat(values) for values in slots.values())


def _command_line(name: str, records: list[OpRecord], command: str) -> str:
    mine = [r for r in records if r.command == command]
    if not mine:
        return f"{name} = n/a s (0 {command} operations in this workload)"
    return f"{name} = {sum(r.wall_s for r in mine)!r} s ({len(mine)} {command} operations)"


def run(args) -> dict:
    runner = Runner(args.workload, args.seed, args.seconds, args.trace)
    plan = runner.plan
    prov = provenance(args.seed, runner.src)
    print(f"perfbench {plan.workload} seed={plan.seed} seconds={args.seconds} "
          f"trace={int(args.trace)} rounds planned={plan.rounds} "
          f"operations per round={plan.per_round}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()), flush=True)

    setup_times = runner.setup()
    setup_s = statistics.median(setup_times)
    print(f"setup: {len(setup_times)} times, median {setup_s:.3f} s", flush=True)

    # A traced run reports only per-layer metrics; its closed loop is the
    # first round, the one the in-process passes repeat.
    print("closed loop, 1 client, untraced:", flush=True)
    records = runner.closed_loop(1 if args.trace else plan.rounds)
    rounds = len(records) // plan.per_round
    attempted, failed = len(records), sum(1 for r in records if r.problems)

    lines = [f"setup_s = {setup_s!r} s (median of {len(setup_times)})"]
    for name, command in (("verify_s", "verify"), ("report_s", "report"), ("sample_s", "sample")):
        lines.append(_command_line(name, records, command))
    wall_s = per_round(records, "wall_s")
    cpu_s = per_round(records, "cpu_s")
    peak_rss_mb = max(r.rss_mb for r in records)
    per_slot = (f"mean of the faster half of {rounds} rounds per slot, "
                f"summed over {plan.per_round} slots")
    lines += [
        f"wall_s = {wall_s!r} s (one round: {per_slot})",
        f"cpu_s = {cpu_s!r} s (user + system, all children, one round: {per_slot})",
        f"wall_median_s = {per_round(records, 'wall_s', statistics.median)!r} s "
        f"(one round: median of {rounds} rounds per slot; diagnostic, not a metric)",
        f"peak_rss_mb = {peak_rss_mb!r} MB (largest single operation)",
        f"fail_ratio = {failed / attempted!r} ({failed} of {attempted} operations failed)",
        f"steal_s = {sum(r.steal_s for r in records)!r} s stolen by the hypervisor "
        "during the operations, all CPUs (diagnostic, not a metric)",
    ]
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "cpu_s": {"value": cpu_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }

    bad = runner.bad_inputs() if plan.bad_inputs_base is not None else {}
    clean = sum(1 for problems in bad.values() if not problems)
    for shape, problems in bad.items():
        verdict = "clean exit 2" if not problems else "MISSED: " + "; ".join(problems)
        print(f"  malformed input {shape}: {verdict}", flush=True)
    if bad:
        lines.append(
            f"bad_input_clean_exits = {clean} of {len(bad)} malformed files exit 2 "
            "with one line (reported apart from fail_ratio)"
        )

    result = {
        "workload": plan.workload,
        "seed": plan.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "provenance": prov,
        "operations": [r.__dict__ for r in records],
        "setup_times_s": setup_times,
        "end_to_end": end_to_end,
        "bad_inputs": bad,
    }
    metrics = end_to_end
    if args.trace:
        layer, table, extra_records = traced_pass(runner, records, clean)
        attempted += len(extra_records)
        failed += sum(1 for r in extra_records if r.problems)
        result["layers"] = table
        result["traced_operations"] = [r.__dict__ for r in extra_records]
        metrics = {
            name: {"value": layer[name], "unit": unit}
            for name, unit, _better in tracer.LAYER_METRICS
        }
        lines += [f"{name} = {m['value']!r} {m['unit']}" for name, m in metrics.items()]

    for line in lines:
        print(line)
    result["metrics"] = metrics
    result["summary"] = lines
    (runner.work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def traced_pass(runner: Runner, untraced: list[OpRecord], clean_exits: int):
    """Per-layer metrics: import time, single-thread verify, traced first round."""
    sys.path.insert(0, str(runner.src))
    os.environ.pop("SUPERMIN_THREADS", None)

    plan = runner.plan
    extra: list[OpRecord] = []
    layer: dict[str, float] = {}

    imports = runner.import_times()
    layer["cli.import_s"] = statistics.median(imports)

    layer["cli.verify_threads1_s"] = 0.0
    first_verify = next((i for i, op in enumerate(plan.ops) if op.command == "verify"), None)
    if first_verify is not None:
        env = dict(runner.env, SUPERMIN_THREADS="1")
        op = plan.ops[first_verify]
        rec, child = runner.run_op(first_verify, op, env=env, tag="threads1_")
        runner.check(first_verify, op, rec, child, tag="threads1_")
        rec.label += " [SUPERMIN_THREADS=1]"
        report_op(rec)
        extra.append(rec)
        layer["cli.verify_threads1_s"] = rec.wall_s

    # The in-process passes run the first round only, to bound the run's length.
    ops = plan.round_ops(0)
    passes = {}
    recorder = tracer.Recorder()
    for name, rec_or_none in (("untraced", None), ("traced", recorder)):
        first = sum(r.wall_s for r in untraced[: len(ops)])
        if runner.remaining() < 1.5 * first:
            raise SetupError(f"not enough time left in the run for the {name} in-process pass")
        print(f"{name} pass, in-process, first round:", flush=True)
        passes[name] = tracer.run_in_process(
            ops, runner.inputs, runner.outputs, runner.reference, rec_or_none
        )
        for rec in passes[name]:
            op_rec = OpRecord(f"{rec['op']} [{name}, in-process]", "", rec["wall_s"],
                              problems=rec["problems"])
            report_op(op_rec)
            extra.append(op_rec)

    n_ops = len(ops)
    from_trace, table = tracer.layer_metrics(recorder, n_ops)
    layer.update(from_trace)
    traced_s = sum(r["wall_s"] for r in passes["traced"])
    untraced_s = sum(r["wall_s"] for r in passes["untraced"])
    layer["trace.overhead_s"] = (traced_s - untraced_s) / n_ops
    print(f"tracing overhead: traced {traced_s:.3f} s - untraced {untraced_s:.3f} s = "
          f"{traced_s - untraced_s:+.3f} s over {n_ops} operations "
          f"({100.0 * (traced_s - untraced_s) / untraced_s:+.1f} %)", flush=True)
    layer["serialize.bad_input_clean_exits"] = float(clean_exits)

    _stats, _groups, _counts, spans = recorder.merged()
    tracer.write_spans(spans, runner.work / "spans.jsonl")

    sequences = recorder.sequences
    if not sequences:
        # export builds no chain; harvest operands from its first curve instead
        from supermin import harmonic
        from supermin.cli import _load_curve

        curve, _k = _load_curve(str(runner.inputs / ops[0].curve.file_name))
        sequences = [harmonic.build_sequence(curve)]
    layer.update(tracer.field_and_poly_rates(sequences[0]))
    layer.update(tracer.chain_sizes(sequences))

    print(f"per-function table over {n_ops} traced operations:")
    for name, row in table.items():
        if "total_s" in row:
            print(f"  {name}: {row['calls']} calls, {row['total_s']:.4f} s total, "
                  f"{row['self_s']:.4f} s self")
        else:
            print(f"  {name}: {row['count']}")
    return layer, table, extra


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="supermin benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    if not (ROOT / "src" / "supermin" / "cli.py").is_file():
        print(f"perfbench: no supermin source at {ROOT / 'src' / 'supermin'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
