"""Benchmark of alertfp's nightly-rebuild / daytime-score loop.

    python3 bench/run.py --workload nightly|daytime|sweep|all --seed N \
        [--seconds S] [--trace 0|1] [--size full|tiny]

Each workload drives ``alertfp.cli.main(argv)`` in this process, one call
after another (a closed loop with one client), on seeded synthetic logs
from ``gen_synthetic``:

- nightly: ``alertfp mine --minisupport 1%`` on a 114,680-record log.
- daytime: ``alertfp score`` of a 28,800-record day-2 log in 144 batches
  of 200 against a 1% model mined in set-up from a 28,670-record day 1.
- sweep: ``alertfp sweep --minisupport 30,60,150`` on the day-1 log.

Set-up (generating and splitting the logs, and the daytime training mine)
is repeated and timed on its own, each time in a child process, so its
memory never counts toward the jobs' peak RSS. Jobs then run back to back
until ``--seconds`` have passed, at least two, so each run also checks
that a second job writes the same bytes as the first. Every output is checked
by ``checks.py``, which shares no code with alertfp. ``ALERTFP_WORKERS``
is removed from the environment and no ``--workers`` is passed, so the
default single worker is measured.

Times are reported in seconds at a reference machine speed: ``speed.py``
times a fixed kernel every half second while jobs and set-up run, and
each stretch of wall time is scaled by how fast that kernel ran around
it. The unscaled wall times are printed and saved next to them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced jobs and reports per-layer metrics from the spans
that ``spans.py`` patches in, plus the tracing overhead. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the environment, a readable
metric table and a result file under ``bench/results/`` come with it.
The exit code is 0 only when every operation and check succeeded.
``--size tiny`` runs the same workloads and checks in seconds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("nightly", "daytime", "sweep")
N_ATTACKS = 5
N_PROFILES = 7
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0


@dataclass(frozen=True)
class Size:
    nightly_records: int
    day1_records: int
    day2_records: int
    batch: int
    minisupport: str  # nightly and daytime-training threshold
    sweep_thresholds: tuple[int, ...]


SIZES = {
    "full": Size(114_680, 28_670, 28_800, 200, "1%", (30, 60, 150)),
    "tiny": Size(3_000, 2_000, 2_000, 100, "5%", (20, 40, 100)),
}


def import_alertfp():
    """Import alertfp from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "alertfp"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: alertfp sources not found at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import alertfp.cli

    if Path(alertfp.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported alertfp from {alertfp.__file__}, not {package}")
    return alertfp


# --- inputs ---------------------------------------------------------------


def write_log(path: Path, n_records: int, seed: int):
    """Generate a synthetic day and write it tab-delimited; returns the
    planted attack tids and the schema."""
    from alertfp.evaluate import SyntheticSpec, gen_synthetic

    dataset, attacks = gen_synthetic(SyntheticSpec(n_records, N_ATTACKS, N_PROFILES, seed))
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.writelines("\t".join(alert.values) + "\n" for alert in dataset.alerts)
    return attacks, dataset.schema


def write_schema(path: Path, schema) -> None:
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.writelines(f"{f.name}\t{f.kind.value}\n" for f in schema.fields)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- running the CLI ------------------------------------------------------


@dataclass
class Op:
    start: float
    end: float
    problems: list[str]
    seconds: float = 0.0  # at reference speed; set with wall_s once the job has ended
    wall_s: float = 0.0  # without the speed samples taken during the call


def call_cli(argv: list[str], tracer=None) -> Op:
    """One in-process `alertfp` command; its own output is captured."""
    import alertfp.cli

    sink = io.StringIO()
    problems = []
    start = perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            if tracer is None:
                code = alertfp.cli.main(argv)
            else:
                tracer.op += 1
                with tracer.span("cli.main"):
                    code = alertfp.cli.main(argv)
    except Exception:  # a traceback is a failed operation, not a crashed benchmark
        code = None
        sink.write(traceback.format_exc())
    end = perf_counter()
    if code != 0:
        problems.append(f"alertfp {argv[0]} exited {code}: {sink.getvalue().strip()[-500:]}")
    return Op(start, end, problems)


# --- workloads ------------------------------------------------------------


@dataclass
class Job:
    ops: list[Op]
    alerts: int
    outputs: object = None  # what the next job's outputs must equal

    @property
    def seconds(self) -> float:
        """Time of the job's calls at reference speed."""
        return sum(op.seconds for op in self.ops)

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)


@dataclass
class Workload:
    """Inputs of one workload. `setup` writes them (in a child process),
    `load_facts` reads back what the checks need, `job` runs the timed
    loop once and `check` verifies a job's outputs."""

    size: Size
    seed: int
    work: Path
    paths: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Name the input files in `paths`."""

    def setup(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> None:
        """Check what set-up produced, once, off the clock."""

    def load_facts(self) -> None:
        """Read what the checks need from the files set-up wrote."""

    def job(self, tracer=None) -> Job:
        raise NotImplementedError

    def check(self, job: Job, first: Job | None) -> None:
        """Record problems on `job`'s ops; `first` is the run's first job,
        whose outputs a later job must reproduce."""
        raise NotImplementedError

    def env(self) -> dict:
        raise NotImplementedError

    def input_digests(self) -> list[str]:
        return [digest(path) for path in self.paths.values() if path.is_file()]


class Nightly(Workload):
    def __post_init__(self):
        self.paths["log"] = self.work / "nightly.log"
        self.paths["schema"] = self.work / "schema.txt"

    def setup(self):
        _, schema = write_log(self.paths["log"], self.size.nightly_records, self.seed)
        write_schema(self.paths["schema"], schema)

    def job(self, tracer=None):
        model = self.work / "nightly.model"
        op = call_cli(["mine", "--input", str(self.paths["log"]), "--schema",
                       str(self.paths["schema"]), "--minisupport", self.size.minisupport,
                       "--out", str(model)], tracer)
        return Job([op], self.size.nightly_records, model)

    def check(self, job: Job, first: Job | None) -> None:
        import alertfp.store
        import checks

        op = job.ops[0]
        if op.problems:
            return
        model, job.outputs = job.outputs, checks.model_without_build_time(job.outputs)
        if first is not None:
            if job.outputs != first.outputs:
                op.problems.append("model differs from the first job's beyond built_at")
            return
        try:
            alertfp.store.load_model(model)
        except Exception as exc:  # whatever load_model raises fails the check
            op.problems.append(f"load_model failed: {exc}")
            return
        op.problems += checks.check_model(
            model, self.paths["log"], checks.read_schema_kinds(self.paths["schema"]),
            self.size.nightly_records, checks.parse_support(self.size.minisupport),
            random.Random(self.seed))

    def env(self):
        return {"records": self.size.nightly_records, "minisupport": self.size.minisupport}


class Daytime(Workload):
    def __post_init__(self):
        self.paths["day1"] = self.work / "day1.log"
        self.paths["day2"] = self.work / "day2.log"
        self.paths["schema"] = self.work / "schema.txt"
        self.paths["model"] = self.work / "day1.model"
        self.paths["attacks"] = self.work / "day2.attacks"
        self.paths["batches"] = self.work / "batches"

    def batch_path(self, i: int) -> Path:
        return self.paths["batches"] / f"{i}.log"

    def setup(self):
        size = self.size
        _, schema = write_log(self.paths["day1"], size.day1_records, self.seed)
        attacks, _ = write_log(self.paths["day2"], size.day2_records, self.seed)
        write_schema(self.paths["schema"], schema)
        self.paths["attacks"].write_text("".join(f"{tid}\n" for tid in attacks), encoding="utf-8")
        with open(self.paths["day2"], encoding="utf-8", newline="") as stream:
            day2 = stream.readlines()
        self.paths["batches"].mkdir(exist_ok=True)
        for i in range(0, len(day2), size.batch):
            with open(self.batch_path(i // size.batch), "w", encoding="utf-8", newline="") as out:
                out.writelines(day2[i : i + size.batch])
        op = call_cli(["mine", "--input", str(self.paths["day1"]), "--schema",
                       str(self.paths["schema"]), "--minisupport", size.minisupport,
                       "--out", str(self.paths["model"])])
        if op.problems:
            raise SetupError(op.problems[0])

    def check_setup(self) -> None:
        import checks

        problems = checks.check_model(
            self.paths["model"], self.paths["day1"],
            checks.read_schema_kinds(self.paths["schema"]), self.size.day1_records,
            checks.parse_support(self.size.minisupport), random.Random(self.seed))
        if problems:
            raise SetupError("training model: " + "; ".join(problems[:3]))

    def load_facts(self) -> None:
        import checks

        n_batches = -(-self.size.day2_records // self.size.batch)
        self.facts["batches"] = []
        for i in range(n_batches):
            with open(self.batch_path(i), encoding="utf-8", newline="") as stream:
                self.facts["batches"].append(stream.readlines())
        self.facts["attacks"] = {}
        for tid in map(int, self.paths["attacks"].read_text(encoding="utf-8").split()):
            self.facts["attacks"].setdefault(tid // self.size.batch, []).append(
                tid % self.size.batch)
        header, self.facts["patterns"] = checks.read_model(self.paths["model"])
        self.facts["kinds"] = checks.read_schema_kinds(self.paths["schema"])
        self.facts["n_train"] = int(header["n_train"])

    def input_digests(self):
        import checks

        model = hashlib.sha256(checks.model_without_build_time(self.paths["model"])).hexdigest()
        keys = ("day1", "day2", "schema", "attacks")
        return [digest(self.paths[key]) for key in keys] + [model] + [
            digest(path) for path in sorted(self.paths["batches"].iterdir())]

    def job(self, tracer=None):
        ranked = self.work / "ranked"
        ranked.mkdir(exist_ok=True)
        common = ["--schema", str(self.paths["schema"]), "--model", str(self.paths["model"])]
        ops = [call_cli(["score", "--input", str(self.batch_path(i)), *common,
                         "--out", str(ranked / f"{i}.txt")], tracer)
               for i in range(len(self.facts["batches"]))]
        return Job(ops, self.size.day2_records, ranked)

    def check(self, job: Job, first: Job | None) -> None:
        import checks

        ranked, digests = job.outputs, []
        rng = random.Random(self.seed)
        for i, op in enumerate(job.ops):
            path = ranked / f"{i}.txt"
            digests.append(digest(path) if path.is_file() else None)
            if op.problems:
                continue
            if first is not None:
                if digests[i] != first.outputs[i]:
                    op.problems.append(f"ranked batch {i} differs from the first job's")
                continue
            op.problems += checks.check_batch(
                path, self.facts["batches"][i], self.facts["kinds"], self.facts["patterns"],
                self.facts["n_train"], self.facts["attacks"].get(i, []), rng)
        job.outputs = digests

    def env(self):
        return {"records_day1": self.size.day1_records, "records_day2": self.size.day2_records,
                "batch_size": self.size.batch, "batches": len(self.facts["batches"]),
                "minisupport": self.size.minisupport,
                "model_patterns": len(self.facts["patterns"])}


class Sweep(Workload):
    def __post_init__(self):
        self.paths["log"] = self.work / "day1.log"
        self.paths["schema"] = self.work / "schema.txt"
        self.paths["attacks"] = self.work / "day1.attacks"

    def setup(self):
        attacks, schema = write_log(self.paths["log"], self.size.day1_records, self.seed)
        write_schema(self.paths["schema"], schema)
        self.paths["attacks"].write_text("".join(f"{tid}\n" for tid in attacks), encoding="utf-8")

    def job(self, tracer=None):
        report = self.work / "sweep.txt"
        thresholds = ",".join(str(t) for t in self.size.sweep_thresholds)
        op = call_cli(["sweep", "--input", str(self.paths["log"]), "--schema",
                       str(self.paths["schema"]), "--minisupport", thresholds,
                       "--attacks", str(self.paths["attacks"]), "--out", str(report)], tracer)
        alerts = self.size.day1_records * len(self.size.sweep_thresholds)
        return Job([op], alerts, report)

    def check(self, job: Job, first: Job | None) -> None:
        import checks

        op = job.ops[0]
        if op.problems:
            return
        report, job.outputs = job.outputs, job.outputs.read_bytes()
        if first is not None:
            if job.outputs != first.outputs:
                op.problems.append("sweep report differs from the first job's")
            return
        op.problems += checks.check_sweep(report, self.size.sweep_thresholds,
                                          self.size.day1_records, N_ATTACKS)

    def env(self):
        return {"records": self.size.day1_records,
                "thresholds": list(self.size.sweep_thresholds)}


class SetupError(Exception):
    pass


def make_workload(name: str, size: Size, seed: int, work: Path) -> Workload:
    return {"nightly": Nightly, "daytime": Daytime, "sweep": Sweep}[name](size, seed, work)


# --- measuring ------------------------------------------------------------


def setup_child(args) -> int:
    """One set-up in this child process. Prints its time at reference
    speed, its wall time and the digests of the inputs it wrote."""
    import_alertfp()
    workload = make_workload(args.workload, SIZES[args.size], args.seed, Path(args.setup_child))
    speed = Speed()
    try:
        with speed.ticking():
            start = perf_counter()
            workload.setup()
            end = perf_counter()
        if args.check_setup:
            workload.check_setup()
    except SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"seconds": speed.scale(start, end), "wall_s": speed.wall(start, end),
                      "digests": workload.input_digests()}))
    return 0


def timed_setup(args, workload: Workload, once: bool) -> list[dict]:
    """Run set-up at least SETUP_REPEATS times and for at least
    SETUP_MIN_SECONDS in all (once, when only per-layer numbers are
    wanted), each time in a fresh child process; every repeat must write
    the same inputs. The first repeat also checks them."""
    runs: list[dict] = []
    while not runs or not once and (
            len(runs) < SETUP_REPEATS or sum(r["seconds"] for r in runs) < SETUP_MIN_SECONDS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--size", args.size, "--setup-child", str(workload.work)]
        if not runs:
            argv.append("--check-setup")
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=150, check=False)
        except subprocess.TimeoutExpired as exc:
            raise SetupError("set-up timed out") from exc
        if proc.returncode != 0:
            raise SetupError(proc.stderr.strip()[-500:] or f"set-up exited {proc.returncode}")
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
        if runs[-1]["digests"] != runs[0]["digests"]:
            raise SetupError("set-up wrote different inputs on a repeat")
    workload.load_facts()
    return runs


@dataclass
class Measured:
    jobs: list[Job]  # every job, traced or not
    traced_jobs: list[Job]
    layer_runs: list[dict]
    tracer: object
    speed: Speed
    peak_kib: int  # peak RSS of this process up to the end of the first job


def run_jobs(workload: Workload, seconds: float, trace: bool) -> Measured:
    """Jobs back to back until `seconds` have passed and at least two ran.
    With tracing, traced and untraced jobs alternate, traced first."""
    import spans

    speed = Speed()
    out = Measured([], [], [], spans.Tracer() if trace else None, speed, 0)
    first = None
    start = perf_counter()
    while len(out.jobs) < 2 or perf_counter() - start < seconds:
        gc.collect()
        with_trace = trace and len(out.jobs) % 2 == 0
        mark = len(out.tracer.spans) if with_trace else 0
        with speed.ticking():
            if with_trace:
                with spans.traced(out.tracer):
                    job = workload.job(out.tracer)
            else:
                job = workload.job()
        for op in job.ops:
            op.seconds = speed.scale(op.start, op.end)
            op.wall_s = speed.wall(op.start, op.end)
        if not out.jobs:
            out.peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if with_trace:
            out.layer_runs.append(spans.layer_metrics(
                out.tracer, out.tracer.spans[mark:], job.seconds, speed.scale))
            out.tracer.reset_counts()
            out.traced_jobs.append(job)
        workload.check(job, first)
        first = first or job
        out.jobs.append(job)
    return out


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(measured: Measured, setup: list[dict]) -> dict[str, tuple[float, str]]:
    jobs = measured.jobs
    job_s = statistics.median(job.seconds for job in jobs)
    latencies = [op.seconds * 1000 for job in jobs for op in job.ops]
    return {
        "job_s": (job_s, "s"),
        "alerts_per_s": (jobs[0].alerts / job_s, "1/s"),
        "batch_p50_ms": (statistics.median(latencies), "ms"),
        "batch_p90_ms": (percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (measured.peak_kib / 1024, "MiB"),
        "setup_s": (statistics.median(run["seconds"] for run in setup), "s"),
    }


def wall_times(measured: Measured, setup: list[dict]) -> dict[str, float]:
    """The unscaled counterparts, printed and saved next to the metrics."""
    return {
        "job_s": statistics.median(job.wall_s for job in measured.jobs),
        "batch_p50_ms": statistics.median(op.wall_s * 1000 for job in measured.jobs
                                          for op in job.ops),
        "setup_s": statistics.median(run["wall_s"] for run in setup),
        "speed": measured.speed.speed(),
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def per_layer(measured: Measured) -> dict[str, tuple[float, str]]:
    """Median over traced jobs of each layer metric; the RSS growth of
    itemizing is the first traced job's, the first itemization in this
    process."""
    runs = measured.layer_runs
    out = {}
    for name in runs[0]:
        value = runs[0][name] if name == "model.txn_mib" else statistics.median(
            run[name] for run in runs)
        out[name] = (value, unit_of(name))
    traced_ids = {id(job) for job in measured.traced_jobs}
    traced_s = statistics.median(job.seconds for job in measured.traced_jobs)
    untraced_s = statistics.median(
        job.seconds for job in measured.jobs if id(job) not in traced_ids)
    out["trace.job_s"] = (traced_s, "s")
    out["trace.untraced_job_s"] = (untraced_s, "s")
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    out["machine.speed"] = (measured.speed.speed(), "ratio")
    return out


# --- environment and output -----------------------------------------------


def git_commit() -> str:
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except OSError:
            pass
    return "unknown (not a git checkout)"


def environment(args, workload: Workload, workers_was: str | None) -> dict:
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "ALERTFP_WORKERS": "unset" if workers_was is None else f"unset (was {workers_was!r})",
        "attacks": N_ATTACKS,
        "profiles": N_PROFILES,
        **workload.env(),
    }


def report(env, metrics, walls, attempted, failed, problems, spans_out=None) -> dict:
    correct = failed == 0
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {env['workload']}: failed_frac = {failed / attempted:.6f} ({failed}/{attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"# {env['workload']}: {name} = {value:.6g} {unit}")
    if walls:
        print(f"# {env['workload']}: wall (unscaled) " + ", ".join(
            f"{name} = {value:.6g}" for name, value in walls.items()))
    for problem in problems[:20]:
        print(f"# FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"{env['workload']}-{env['size']}-seed{env['seed']}-trace{env['trace']}.json"
    with open(results / name, "w", encoding="utf-8") as out:
        json.dump({"env": env, "result": result, "wall": walls, "problems": problems,
                   "spans": spans_out}, out)
    print(json.dumps(result))
    return result


def run_one(args) -> int:
    import_alertfp()
    workers_was = os.environ.pop("ALERTFP_WORKERS", None)
    size = SIZES[args.size]
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = make_workload(args.workload, size, args.seed, work)
        setup = timed_setup(args, workload, once=bool(args.trace))
        measured = run_jobs(workload, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    jobs = measured.jobs
    problems = [p for job in jobs for op in job.ops for p in op.problems]
    attempted = sum(len(job.ops) for job in jobs)
    failed = sum(1 for job in jobs for op in job.ops if op.problems)
    if args.trace:
        metrics, walls = per_layer(measured), None
        spans_out = measured.tracer.spans
    else:
        metrics, walls = end_to_end(measured, setup), wall_times(measured, setup)
        spans_out = None
    result = report(environment(args, workload, workers_was), metrics, walls, attempted,
                    failed, problems, spans_out)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process so peaks never carry over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    # internal: one set-up into the given directory, run by timed_setup
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    parser.add_argument("--check-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        return setup_child(args)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
