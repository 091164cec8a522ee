"""Layered benchmark of cluster_simplicity: CLI jobs end to end, and a traced
replay of each job through the library's public functions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from anywhere; it imports the package from ``src/`` next to this
directory and exits with code 2, printing no result, when that is missing.

One process, one client, closed loop: each job calls
``cluster_simplicity.cli.main(argv)`` in-process on CSV files that
``inputs.py`` makes from the seed, and the next job starts when it returns.
A new job starts only while it should end inside the ``--seconds`` window.
Every job's report is checked; a job fails on a nonzero exit code or a failed
check. BLAS and OpenMP are pinned to one thread, and the process, with the
processes it starts, to one CPU.

End-to-end times are host-normalised seconds. On a shared host a core's speed
changes with its neighbours' load, up to twofold for seconds to minutes at a
time, which would set a run's numbers more than the program does. So the
benchmark times a fixed computation of its own (``reference_work``) before
the first job and after every quarter second of jobs, and scales each job's
wall time by ``REFERENCE_S`` over the mean of the two reference times around
it: the time the job would take on the host whose reference time is
``REFERENCE_S``, as SPEC rates a machine against a reference machine. The
program's speed-ups and slow-downs show in full; the host's cancel out. The
raw wall times go to the results file beside the scaled ones. Per-layer times
are raw wall times.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics: it first replays one job under tracemalloc for the
``.peak_mb`` metrics, whose times are not used, then runs untraced jobs for
half of what is left of the window and traced jobs for the other half.

A traced job is the same CLI call, timed as the span ``cli.main``, followed
by a replay: the library calls that the CLI makes for that job, each timed as
a span named after its layer (``replay`` group), and public functions those
calls use internally, timed on their own (``probe`` group). A layer's ``.s``
metric is the median over traced jobs of the time a job spent in spans of
that name; 0 means the workload does not run it. ``cli.self.s`` is
``cli.main`` minus the replay's spans: parsing, validation and report
emission. ``trace.overhead`` is the traced ``cli.main`` p50 over the untraced
job p50, minus 1. Spans are kept in memory and written to
``.bench_work/spans/`` at the end; every result, with the environment it ran
in, goes to ``.bench_work/results/``.

``--workload all`` runs every workload, each in its own process, and prints
every metric of each with its unit, plus the job and failure counts.
``--smoke`` uses tiny inputs so the benchmark's own tests run in seconds.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("compute_large", "hierarchy_auto", "hierarchy_file", "audit_small")
DEFAULT_SEED = 0
SETUP_SAMPLES = 15
CPU = max(os.sched_getaffinity(0))
REFERENCE_S = 0.022  # reference_work's typical time on a 2-vCPU Xeon (Sapphire Rapids) KVM guest; sets the scale only
REFERENCE_EVERY = 0.25  # seconds of jobs between two reference timings
REL_TOL = 1e-9
ABS_TOL = 1e-15  # lets a reference value of exactly 0 compare

# the README's flag table, short variant
README_FLAGS = {
    "si_centroid": "S B C", "si_distance": "S B C", "ch": "S", "silhouette": "S",
    "sf": "s", "dunn": "S", "db": "S", "cindex": "S",
}
INDEX_LAYER = {
    "si_centroid": "simplicity.si_centroid", "si_distance": "simplicity.si_distance",
    "ch": "classic.ch", "silhouette": "classic.silhouette", "sf": "classic.sf",
    "dunn": "classic.dunn", "db": "classic.db", "cindex": "classic.cindex",
}
TIMED_LAYERS = (
    "core.inputs", "core.pairwise_distances", "core.single_linkage", "core.dendrogram_from_merges",
    *INDEX_LAYER.values(), "simplicity.si_curve", "simplicity.si_hierarchical",
    "harness.audit", "cli.main",
)
PEAK_LAYERS = (
    "core.pairwise_distances", "core.single_linkage", "core.dendrogram_from_merges",
    "simplicity.si_curve", "classic.silhouette", "classic.cindex",
)
END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_s.p50": "s", "job_s.p90": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    **{f"{layer}.s": "s" for layer in TIMED_LAYERS},
    **{f"{layer}.peak_mb": "MB" for layer in PEAK_LAYERS},
    "cli.self.s": "s",
    "trace.overhead": "ratio",
}

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cluster_simplicity.cli
cluster_simplicity.cli.build_parser()
print(repr(time.perf_counter() - start), cluster_simplicity.cli.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here; exits with code 2 and prints no result."""


def close(value: float, reference: float) -> bool:
    return math.isclose(value, reference, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def flag_string(row: dict) -> str:
    """A ``properties`` report row's flags as the README writes them."""
    return " ".join(f for f in (row["invariance"], row["optimality"], row["baseline"]) if f != "none")


# --- host speed ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Pair:
    x: float
    n: int


class Reference:
    """Times ``reference_work``, a fixed computation of the benchmark's own.

    Its mix follows what a neighbour's load slows in the program: interpreted
    Python, small dataclass construction, numpy calls on tiny, small and
    cache-sized arrays. Passes over arrays larger than a core's cache hardly
    slow, so it has none.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.tiny = np.arange(5.0)
        self.small = rng.standard_normal((48, 8))
        self.mid = rng.standard_normal(2**15)  # 256 KiB, inside a core's L2 cache
        self.scratch = np.empty_like(self.mid)
        self.samples: list[float] = []

    def reference_work(self) -> float:
        table: dict[int, float] = {}
        for i in range(15000):
            table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        acc = sum(table.values())
        for i in range(10000):
            pair = _Pair(i * 0.5, i)
            acc += pair.n + len(str(pair.x))
        for _ in range(1500):
            acc += float(np.sqrt(((self.tiny - 1.5) ** 2).sum()))
        for _ in range(30):
            d = np.sqrt(((self.small[:, None, :] - self.small[None, :, :]) ** 2).sum(axis=-1))
            acc += float(d.mean())
        for _ in range(50):
            np.subtract(self.mid, 0.5, out=self.scratch)
            acc += float(np.abs(self.scratch, out=self.scratch).sum())
        return acc

    def sample(self) -> float:
        start = time.perf_counter()
        self.reference_work()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds


def scaled(seconds: float, reference: float) -> float:
    """A wall time measured while the reference took ``reference`` seconds, in host-normalised seconds."""
    return seconds * REFERENCE_S / reference


# --- spans -------------------------------------------------------------------


class Trace:
    """Spans in memory as [name, start, end, parent span index, job id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.job]
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def per_job(self) -> list[dict[str, float]]:
        """Seconds per span name for each job, plus the replay's total as ``replay.children``."""
        jobs: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, parent, job in self.spans:
            jobs[job][name] += end - start
            if parent is not None and self.spans[parent][0] == "replay":
                jobs[job]["replay.children"] += end - start
        return list(jobs.values())

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "job")
        path.write_text("".join(json.dumps(dict(zip(keys, s))) + "\n" for s in self.spans))


class PeakMemory:
    """Same calls as Trace; keeps each layer's tracemalloc peak above its starting use."""

    def __init__(self) -> None:
        self.peak_bytes: dict[str, int] = defaultdict(int)

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        grown = tracemalloc.get_traced_memory()[1] - before
        self.peak_bytes[name] = max(self.peak_bytes[name], grown)
        return result


# --- workloads ---------------------------------------------------------------


class Workload:
    """One workload's CLI job, output check and replay through the library."""

    def __init__(self, cs, directory: Path, expect: dict) -> None:
        self.cs = cs
        self.dir = directory
        self.expect = expect
        self.argv = self.command()

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def command(self) -> list[str]:
        raise NotImplementedError

    def check(self, report: dict) -> list[str]:
        raise NotImplementedError

    def load(self) -> None:
        """Read the input arrays the replay needs (traced runs only)."""

    def replay(self, rec):
        """Make the job's library calls through ``rec``; return what they computed."""
        raise NotImplementedError

    def disagreements(self, report: dict, replayed) -> list[str]:
        """Where the replay's results differ from the CLI's report."""
        raise NotImplementedError


class ComputeLarge(Workload):
    def __init__(self, *args, reference: dict | None = None) -> None:
        super().__init__(*args)
        self.reference = reference

    def command(self) -> list[str]:
        flags = [arg for index_id in self.expect["indices"] for arg in ("--index", index_id)]
        return ["compute", "--data", self.path("points.csv"), "--labels", self.path("labels.csv"), *flags]

    def check(self, report: dict) -> list[str]:
        e = self.expect
        shape = (report.get("n_points"), report.get("dim"), report.get("n_clusters"))
        if shape != (e["n_points"], e["dim"], e["n_clusters"]):
            return [f"input shape {shape}"]
        values = {r["index"]: r["value"] for r in report["results"]}
        if [r["index"] for r in report["results"]] != e["indices"]:
            return [f"indices {list(values)}"]
        problems = [f"{i} undefined" for i, v in values.items() if not isinstance(v, float)]
        if problems:
            return problems
        k = e["n_clusters"]
        ranges = {
            "si_centroid": values["si_centroid"] >= k,
            "si_distance": values["si_distance"] >= k,
            "silhouette": -1.0 <= values["silhouette"] <= 1.0,
            "cindex": 0.0 <= values["cindex"] <= 1.0,
            # the formula's range is (0, 1); in floating point the code
            # saturates to the end points (see classic.score_function)
            "sf": 0.0 <= values["sf"] <= 1.0,
        }
        problems = [f"{i}={values[i]!r} out of range" for i, ok in ranges.items() if not ok]
        if self.reference is not None:
            problems += [
                f"{i}={values[i]!r}, stored reference {ref!r}"
                for i, ref in self.reference.items() if not close(values[i], ref)
            ]
        return problems

    def load(self) -> None:
        self.points = np.loadtxt(self.path("points.csv"), delimiter=",", ndmin=2)
        self.labels = np.loadtxt(self.path("labels.csv"), dtype=int, ndmin=1)

    def replay(self, rec) -> dict:
        cs = self.cs
        with rec.span("replay"):
            dataset, partition = rec.call("core.inputs", lambda: (cs.Dataset(self.points), cs.Partition(self.labels)))
            values = {i: rec.call(INDEX_LAYER[i], cs.evaluate, i, dataset, partition) for i in self.expect["indices"]}
        with rec.span("probe"):
            rec.call("core.pairwise_distances", cs.pairwise_distances, self.points)
        return values

    def disagreements(self, report: dict, values: dict) -> list[str]:
        return [
            f"replayed {r['index']}={values[r['index']]!r}, CLI {r['value']!r}"
            for r in report["results"] if not close(values[r["index"]], r["value"])
        ]


class Hierarchy(Workload):
    """``hierarchical`` with single linkage built by the CLI, or read from a linkage file."""

    def __init__(self, *args, from_file: bool) -> None:
        self.from_file = from_file
        super().__init__(*args)

    def command(self) -> list[str]:
        linkage = self.path("linkage.txt") if self.from_file else "auto"
        return ["hierarchical", "--data", self.path("points.csv"), "--linkage", linkage]

    def check(self, report: dict) -> list[str]:
        n = self.expect["n_points"]
        curve = report["curve"]
        if (report.get("n_points"), len(curve)) != (n, n):
            return [f"{report.get('n_points')} points, {len(curve)} curve samples"]
        problems = []
        distances = [s["distance"] for s in curve]
        heights = [0.0, *self.expect["heights"]]
        # the file's distances come back exactly; scipy's heights are computed apart
        same = distances == heights if self.from_file else all(map(close, distances, heights))
        if not same:
            problems.append("curve distances differ from the linkage heights")
        si = [s["si"] for s in curve]
        if not (close(si[0], n) and close(si[-1], n)):
            problems.append(f"curve ends {si[0]!r}, {si[-1]!r}, expected {n}")
        span = distances[-1] - distances[0]
        area = sum((si[i] + si[i - 1]) * (distances[i] - distances[i - 1]) / 2.0 for i in range(1, n))
        if not (isinstance(report["si_h"], float) and close(report["si_h"], area / ((n - 1) * span))):
            problems.append(f"si_h {report['si_h']!r} is not the curve's normalised trapezoid")
        return problems

    def load(self) -> None:
        self.points = np.loadtxt(self.path("points.csv"), delimiter=",", ndmin=2)
        rows = (self.dir / ("linkage.txt" if self.from_file else "single.txt")).read_text()
        self.merges = [(int(a), int(b), float(h)) for a, b, h in (r.replace(",", " ").split() for r in rows.splitlines())]

    def replay(self, rec) -> tuple:
        cs = self.cs
        n = self.expect["n_points"]
        with rec.span("replay"):
            dataset = rec.call("core.inputs", cs.Dataset, self.points)
            if self.from_file:
                dendrogram = rec.call("core.dendrogram_from_merges", cs.dendrogram_from_merges, n, self.merges)
            else:
                dendrogram = rec.call("core.single_linkage", cs.single_linkage, dataset)
            curve = rec.call("simplicity.si_curve", cs.si_curve, dataset, dendrogram)
            si_h = rec.call("simplicity.si_hierarchical", cs.si_hierarchical, curve)
        if not self.from_file:
            with rec.span("probe"):
                rec.call("core.pairwise_distances", cs.pairwise_distances, self.points)
                rec.call("core.dendrogram_from_merges", cs.dendrogram_from_merges, n, self.merges)
        return curve, si_h

    def disagreements(self, report: dict, replayed: tuple) -> list[str]:
        curve, si_h = replayed
        problems = []
        if not all(close(v, s["si"]) for (_, v), s in zip(curve.samples, report["curve"])):
            problems.append("replayed curve differs from the CLI's")
        if not close(si_h, report["si_h"]):
            problems.append(f"replayed si_h {si_h!r}, CLI {report['si_h']!r}")
        return problems


class AuditSmall(Workload):
    def command(self) -> list[str]:
        return ["properties", *(arg for index_id in self.expect["indices"] for arg in ("--index", index_id))]

    def check(self, report: dict) -> list[str]:
        if [row["index"] for row in report["flags"]] != self.expect["indices"]:
            return ["flag rows not in request order"]
        problems = []
        for row in report["flags"]:
            flags = flag_string(row)
            if (row["variant"], flags) != ("short", README_FLAGS[row["index"]]):
                problems.append(f"{row['index']}: {row['variant']} {flags!r}, README {README_FLAGS[row['index']]!r}")
        return problems

    def load(self) -> None:
        self.probes = []
        for dataset_id in ("X2S", "Y1S", "Y2S", "X1S", "X3S"):  # the short variant's datasets
            dataset, partition = self.cs.synthetic_dataset(dataset_id)
            self.probes.append((dataset.points.copy(), partition.labels.copy()))

    def replay(self, rec) -> dict:
        cs = self.cs
        with rec.span("replay"):
            flags = {i: rec.call("harness.audit", cs.audit, i) for i in self.expect["indices"]}
        with rec.span("probe"):
            for points, labels in self.probes:
                dataset, partition = rec.call("core.inputs", lambda: (cs.Dataset(points), cs.Partition(labels)))
                for i in self.expect["indices"]:
                    rec.call(INDEX_LAYER[i], cs.evaluate, i, dataset, partition)
        return {i: f.flags_string() for i, f in flags.items()}

    def disagreements(self, report: dict, flags: dict) -> list[str]:
        cli = {row["index"]: flag_string(row) for row in report["flags"]}
        return [f"replayed {i} flags {f!r}, CLI {cli.get(i)!r}" for i, f in flags.items() if cli.get(i) != f]


# --- running -----------------------------------------------------------------


def import_package():
    """The package under test, from ``src/`` of this checkout."""
    sys.path.insert(0, str(SRC))
    import cluster_simplicity
    import cluster_simplicity.cli

    if not Path(cluster_simplicity.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported {cluster_simplicity.__file__}, not the package under {SRC}")
    return cluster_simplicity


def generate(workload: str, seed: int, size: str) -> tuple[Path, dict]:
    directory = WORK / "inputs" / f"{workload}-{size}-seed{seed}"
    cmd = [sys.executable, str(HERE / "inputs.py"), workload, str(seed), size, str(directory)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise BenchError(f"input generation failed:\n{done.stderr}")
    return directory, json.loads((directory / "expect.json").read_text())


def make_workload(name: str, cs, directory: Path, expect: dict) -> Workload:
    args = (cs, directory, expect)
    if name == "compute_large":
        # values the package computed for the default seed when this benchmark was written
        stored = json.loads((HERE / "reference.json").read_text())
        reference = stored[expect["size"]] if expect["seed"] == DEFAULT_SEED else None
        return ComputeLarge(*args, reference=reference)
    if name == "audit_small":
        return AuditSmall(*args)
    return Hierarchy(*args, from_file=name == "hierarchy_file")


def run_cli(main, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # a crash fails this job, not the run
            code = traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def outcome(workload: Workload, code, out: str, err: str) -> tuple[dict | None, list[str]]:
    if code != 0:
        return None, [f"exit {code}: {err.strip()}"]
    try:
        report = json.loads(out)
        return report, workload.check(report)
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        return None, [f"malformed report: {exc!r}"]


def replay(workload: Workload, rec) -> tuple[object, list[str]]:
    try:
        return workload.replay(rec), []
    except Exception:  # a crash fails this job, not the run
        return None, [f"replay raised:\n{traceback.format_exc()}"]


def closed_loop(seconds: float, job, reference: Reference | None = None, between=None) -> list[tuple]:
    """Run ``job()`` back to back; start another only while it should end in the window.

    Returns ``(seconds, problems, reference seconds)`` per job. With a
    ``reference``, it is timed before the first job and again after every
    ``REFERENCE_EVERY`` seconds of jobs and after the last, and each job gets
    the mean of the two timings around it; without one, ``None``.
    ``between(share)``, when given, runs after each job, outside its timing,
    with the share of the window used so far.
    """
    results: list[tuple] = []
    batch: list[tuple[float, list[str]]] = []
    start = time.perf_counter()
    before = reference.sample() if reference is not None else None
    batch_start = time.perf_counter()
    while True:
        batch.append(job())
        now = time.perf_counter()
        elapsed = now - start
        done = elapsed + elapsed / (len(results) + len(batch)) > seconds
        if reference is None:
            results += [(s, problems, None) for s, problems in batch]
            batch = []
        elif done or now - batch_start >= REFERENCE_EVERY:
            after = reference.sample()
            results += [(s, problems, (before + after) / 2) for s, problems in batch]
            batch, before, batch_start = [], after, time.perf_counter()
        if between is not None:
            between(elapsed / seconds)
        if done:
            return results


def untraced_job(workload: Workload) -> tuple[float, list[str]]:
    start = time.perf_counter()
    code, out, err = run_cli(workload.cs.cli.main, workload.argv)
    seconds = time.perf_counter() - start
    return seconds, outcome(workload, code, out, err)[1]


def traced_job(workload: Workload, trace: Trace) -> tuple[float, list[str]]:
    trace.job = 0 if trace.job is None else trace.job + 1
    start = time.perf_counter()
    with trace.span("job"):
        code, out, err = trace.call("cli.main", run_cli, workload.cs.cli.main, workload.argv)
        report, problems = outcome(workload, code, out, err)
        replayed, crashed = replay(workload, trace)
    problems += crashed
    if report is not None and not crashed:
        problems += workload.disagreements(report, replayed)
    return time.perf_counter() - start, problems


class SetupTimer:
    """Times a fresh process importing the package and building the CLI parser.

    The samples are spread over the measuring window, so that their median
    does not rest on one moment's load, and each is scaled by reference
    timings taken just before and after it.
    """

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.samples: list[float] = []
        self.raw: list[float] = []
        self.sample()  # warms the file cache; not used

    def sample(self) -> None:
        before = self.reference.sample()
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60)
        after = self.reference.sample()
        if done.returncode != 0:
            raise BenchError(f"fresh import failed:\n{done.stderr}")
        seconds, imported = done.stdout.split()
        if not Path(imported).resolve().is_relative_to(SRC):
            raise BenchError(f"fresh import loaded {imported}")
        self.raw.append(float(seconds))
        self.samples.append(scaled(float(seconds), (before + after) / 2))

    def catch_up(self, share: float = 1.0) -> None:
        """Take the samples due once ``share`` of the window has passed."""
        while len(self.samples) - 1 < SETUP_SAMPLES * min(share, 1.0):
            self.sample()

    def median(self) -> float:
        self.catch_up()
        return statistics.median(self.samples[1:])


def environment(args: argparse.Namespace, expect: dict) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": expect["size"], "python": platform.python_version(), "numpy": np.__version__,
        "scipy": expect["scipy"], "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "threads": {var: os.environ[var] for var in THREAD_VARS},
        "pinned_cpu": CPU, "reference_s": REFERENCE_S,
    }


def percentile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end(workload: Workload, seconds: float):
    reference = Reference()
    reference.sample()  # warm-up; its time is not used
    setup = SetupTimer(reference)
    results = closed_loop(seconds, lambda: untraced_job(workload), reference, setup.catch_up)
    durations = [scaled(s, ref) for s, _, ref in results]
    completed = sum(1 for _, problems, _ in results if not problems)
    metrics = {
        "jobs_per_s": completed / sum(durations),
        "job_s.p50": statistics.median(durations),
        "job_s.p90": percentile90(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup.median(),
    }
    raw = {"reference_s": reference.samples, "setup_s": setup.raw[1:], "setup_s_scaled": setup.samples[1:],
           "job_s_scaled": durations}
    return metrics, results, END_TO_END_UNITS, raw


def per_layer(workload: Workload, seconds: float, spans: Path):
    """Per-layer metrics; the replay under tracemalloc counts as one more attempt."""
    start = time.perf_counter()
    workload.load()
    memory = PeakMemory()
    tracemalloc.start()
    try:
        _, crashed = replay(workload, memory)
    finally:
        tracemalloc.stop()
    left = max(seconds - (time.perf_counter() - start), 0.0)
    untraced = closed_loop(left / 2, lambda: untraced_job(workload))
    trace = Trace()
    traced = closed_loop(left / 2, lambda: traced_job(workload, trace))
    spans.parent.mkdir(parents=True, exist_ok=True)
    trace.write(spans)

    jobs = trace.per_job()
    metrics = {f"{layer}.s": statistics.median(job.get(layer, 0.0) for job in jobs) for layer in TIMED_LAYERS}
    metrics.update({f"{layer}.peak_mb": memory.peak_bytes.get(layer, 0) / 2**20 for layer in PEAK_LAYERS})
    metrics["cli.self.s"] = statistics.median(job["cli.main"] - job["replay.children"] for job in jobs)
    metrics["trace.overhead"] = metrics["cli.main.s"] / statistics.median(s for s, _, _ in untraced) - 1.0
    return metrics, [(0.0, crashed, None), *untraced, *traced], PER_LAYER_UNITS, {}


def run_one(args: argparse.Namespace) -> dict:
    cs = import_package()
    size = "smoke" if args.smoke else "full"
    directory, expect = generate(args.workload, args.seed, size)
    workload = make_workload(args.workload, cs, directory, expect)
    env = environment(args, expect)
    os.sched_setaffinity(0, {CPU})  # the processes it starts inherit it
    stem = f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, results, units, raw = per_layer(workload, args.seconds, WORK / "spans" / f"{stem}.jsonl")
    else:
        metrics, results, units, raw = end_to_end(workload, args.seconds)

    failures = [problems for _, problems, _ in results if problems]
    result = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = {"env": env, "result": result, "error_rate": len(failures) / len(results),
              "job_seconds": [s for s, _, _ in results], **raw, "first_failures": failures[:5]}
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print("env", json.dumps(env))
    print(f"jobs {len(results)}  jobs_failed {len(failures)}  error_rate {record['error_rate']}")
    for problems in failures[:5]:
        print("failed:", "; ".join(problems))
    for name, value in metrics.items():
        print(f"{name:34} {value:.6g} {units[name]}")
    if raw:
        print(f"unscaled: job_s.p50 {statistics.median(record['job_seconds']):.6g} s, "
              f"setup_s {statistics.median(raw['setup_s']):.6g} s, reference p50 {statistics.median(raw['reference_s']):.6g} s")
    return result


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; a table of every metric, then one JSON line."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        results[name] = result
        status |= not result["correct"]
        print(f"{name}: jobs {result['attempted']}  jobs_failed {result['failed']}  "
              f"error_rate {result['failed'] / result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "cluster_simplicity" / "__init__.py").is_file():
        print(f"error: no cluster_simplicity package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        print(json.dumps(run_one(args)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
