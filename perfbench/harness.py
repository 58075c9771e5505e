"""Shared pieces of the benchmark: run context, timing loops, child
processes, statistics, record digests and machine information."""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seed kept back for checking performance claims: a change is tuned on the
# seed it names and must show the same gain on this one.
KEPT_BACK_SEED = 7411

CHILD_TIMEOUT_S = 120

# Reported times are scaled to the speed of a fixed reference kernel that a
# timer signal runs every SAMPLE_INTERVAL_S while the work goes on:
# t * REF_NOMINAL_S / (median kernel time while the work ran).  The host this
# benchmark runs on is shared, and its speed swings by up to 2x for seconds
# to minutes, per core; raw times would mostly measure that.  The kernel does
# what the package does (interpreted loops, named tuples, small numpy calls,
# fractions) and never changes, so a change to the package cannot move it.
# REF_NOMINAL_S is its time on an idle 2 GHz Xeon (Sapphire Rapids) core, so
# scaled times read as times on that host when it is quiet.
REF_NOMINAL_S = 139e-6
SAMPLE_INTERVAL_S = 0.02
_Pt = namedtuple("_Pt", "x y")


def _cross(o, a, b):
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def reference_kernel():
    x = 0
    for k in range(600):
        x += k
    pts = sorted(_Pt(math.cos(i * 0.37), math.sin(i * 0.37)) for i in range(60))
    hull = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    a = np.linspace(0.0, 6.28, 256)
    np.max(np.cos(a) * 2.0 + np.sin(a) * 3.0)
    f = Fraction(1, 3)
    for i in range(8):
        f = f * Fraction(i + 1, i + 2) + 1
    return x, len(hull), f


class SpeedMeter:
    """Samples the machine's speed while work runs, from a SIGALRM handler.

    The handler runs between bytecodes of the main thread, on the core the
    work runs on, and times a reference_kernel() call.  clock() excludes the
    handler's own time, so work timed with it is not charged for the samples;
    busy_ns_before() lets spans timed by perf_counter_ns leave it out too.
    """

    def __init__(self):
        self.at: list = []     # midpoint of each sample
        self.took: list = []   # kernel seconds of each sample
        self.busy_ns = 0       # nanoseconds spent in samples so far
        self.ends: list = []   # perf_counter_ns at the end of each sample
        self.busy_upto: list = []  # busy_ns after each sample

    def _sample(self, signum=None, frame=None):
        # the first call brings the kernel back into the caches the work
        # displaced; the second is timed
        start = time.perf_counter_ns()
        reference_kernel()
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        end = time.perf_counter_ns()
        self.busy_ns += end - start
        self.ends.append(end)
        self.busy_upto.append(self.busy_ns)

    def start(self) -> None:
        self.probe(3)
        signal.signal(signal.SIGALRM, self._sample)
        self.resume()

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    @contextmanager
    def paused(self):
        """No samples in the block, e.g. while a child process runs on the
        core the samples would take."""
        self.pause()
        try:
            yield
        finally:
            self.resume()

    def stop(self) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe(self, count: int) -> list:
        """Take count samples now; their kernel seconds."""
        for _ in range(count):
            self._sample()
        return self.took[-count:]

    def clock(self) -> float:
        return (time.perf_counter_ns() - self.busy_ns) * 1e-9

    def busy_ns_before(self, t_ns: np.ndarray) -> np.ndarray:
        """Nanoseconds spent in samples before each perf_counter_ns time.

        A sample runs whole between two bytecodes, so it lies wholly inside
        or wholly outside any span timed from Python code."""
        done = np.searchsorted(np.asarray(self.ends, dtype=np.int64), t_ns, side="right")
        return np.concatenate(([0], np.asarray(self.busy_upto, dtype=np.int64)))[done]

    def settle(self) -> None:
        """Wait until samples cover the window after work that just ended."""
        time.sleep(2.5 * SAMPLE_INTERVAL_S)

    def factor(self, w0: float, w1: float) -> float:
        """REF_NOMINAL_S over the median sample from two intervals before w0
        to two after w1 (at least the three samples nearest the window)."""
        lo = bisect.bisect_left(self.at, w0 - 2 * SAMPLE_INTERVAL_S)
        hi = bisect.bisect_right(self.at, w1 + 2 * SAMPLE_INTERVAL_S)
        while hi - lo < 3:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return REF_NOMINAL_S / statistics.median(self.took[lo:hi])


@dataclass(frozen=True)
class Sizes:
    """Work per run apart from the time budget; TINY is for the self-test."""

    setup_repeats: int = 3
    warmup_ops: int = 3
    passes: int = 3                # at least this many passes per phase
    digest_records: int = 100      # fuzz / polygon: records in the digest
    parallel_scenes: int = 100     # fuzz: scenes per parallel campaign
    cold_docs: int = 2             # documents for cold checks
    cold_passes: int = 7
    sharpness_ns: tuple = (8, 12, 16, 20, 24)
    cli_fuzz_docs: int = 200
    cli_corollary_seeds: int = 2
    cli_sharpness_ns: tuple = (4, 6, 8)
    cli_light_docs: int = 4
    render_heavy_docs: int = 2


TINY = Sizes(setup_repeats=1, warmup_ops=1, passes=2, digest_records=4,
             parallel_scenes=6, cold_docs=1, cold_passes=1, sharpness_ns=(4, 6),
             cli_fuzz_docs=3, cli_corollary_seeds=1, cli_sharpness_ns=(4,),
             cli_light_docs=1, render_heavy_docs=1)


@dataclass
class Run:
    """State of one benchmark run: arguments, failures, trace and report."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes = field(default_factory=Sizes)
    out_dir: Path = ROOT / ".perfbench_out"
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    report: dict = field(default_factory=dict)     # the workload's named metrics
    slots: dict = field(default_factory=dict)      # end-to-end metric -> named metric
    digests: dict = field(default_factory=dict)
    tracer: object = None
    overhead: list = field(default_factory=list)   # (untraced s, traced s) per phase
    import_ms: list = field(default_factory=list)  # scaled, per set-up
    cores: list = field(default_factory=lambda: sorted(os.sched_getaffinity(0)))
    meter: SpeedMeter = field(default_factory=SpeedMeter)

    @property
    def clock(self):
        """Clock for timing work: perf_counter without the speed samples."""
        return self.meter.clock

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a False outcome counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def metric(self, name: str, value: float, unit: str, samples: int,
               slot: str | None = None) -> None:
        self.report[name] = {"value": value, "unit": unit, "samples": samples}
        if slot:
            self.slots[slot] = name

    # -- timing -------------------------------------------------------------

    def scaled(self, fn, *args, all_cores: bool = False):
        """(scaled seconds, result) of fn(*args), for work that runs child
        processes: the samples pause, so they take no time from the
        children, and three taken just before and three just after scale it.

        The run stays on its home core, where the samples run; with
        all_cores, fn and the processes it starts may use every core.
        """
        with self.meter.paused():
            refs = self.meter.probe(3)
            if all_cores:
                os.sched_setaffinity(0, set(self.cores))
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            finally:
                raw = time.perf_counter() - t0
                os.sched_setaffinity(0, {self.cores[0]})
            refs += self.meter.probe(3)
        return raw * REF_NOMINAL_S / statistics.median(refs), result

    # -- phases -------------------------------------------------------------

    def phase(self, op, budget_s: float, min_ops: int = 1, count: int = 0) -> list:
        """Seconds of op(k, tracer) for k = 0 .. K-1, each its median pass.

        Ops run in a closed loop after an untimed warm-up.  With count, the
        ops are a fixed list and K = count.  Otherwise the first pass runs
        until budget_s / Sizes.passes has gone by and min_ops ops are done,
        which fixes K.  Passes repeat the same K ops, at least Sizes.passes
        in all and more while budget_s lasts.  Passes spread over the run
        keep an op's time steady on a machine whose speed varies from second
        to second.  The median, not the best, of an op's scaled times: the
        scaling itself is noisy both ways, and the best pass picks its low
        outliers.

        A traced run times the loop without tracing for half the budget,
        then repeats exactly those ops and passes with the tracer installed;
        the ratio of the two is the tracing overhead.
        """
        for k in range(min(self.sizes.warmup_ops, count or min_ops)):
            op(k, None)
        if not self.trace:
            return self._passes(op, budget_s, min_ops, count, None, self.sizes.passes)[0]
        base, passes = self._passes(op, budget_s / 2, min_ops, count, None,
                                    self.sizes.passes)
        self.tracer.install()
        try:
            traced, _ = self._passes(op, 0.0, 0, len(base), self.tracer, passes)
        finally:
            self.tracer.uninstall()
        self.overhead.append((sum(base), sum(traced)))
        return traced

    def _passes(self, op, budget_s, min_ops, count, tracer, passes) -> tuple:
        """(median seconds per op, passes run)."""
        t_start = time.perf_counter()
        if count:
            runs = [self._loop(0.0, count, op, tracer)]
        else:
            runs = [self._loop(budget_s / passes, min_ops, op, tracer)]
        longest = time.perf_counter() - t_start
        # another pass only if even the longest so far would fit the budget
        while len(runs) < passes or time.perf_counter() - t_start + longest <= budget_s:
            t0 = time.perf_counter()
            runs.append(self._loop(0.0, len(runs[0]), op, tracer))
            longest = max(longest, time.perf_counter() - t0)
        return [statistics.median(times) for times in zip(*runs)], len(runs)

    def _loop(self, budget_s, min_ops, op, tracer) -> list:
        """Scaled seconds of op(k, tracer) for k = 0, 1, ...; an op returns
        the seconds of its timed part by Run.clock()."""
        timed = []
        t_end = time.perf_counter() + budget_s
        k = 0
        while k < min_ops or time.perf_counter() < t_end:
            w0 = time.perf_counter()
            raw = op(k, tracer)
            timed.append((raw, w0, time.perf_counter()))
            k += 1
        self.meter.settle()
        return [raw * self.meter.factor(w0, w1) for raw, w0, w1 in timed]

    def setup(self, prepare):
        """Median scaled seconds of (cold package import + prepare()); last
        state.  Each cold import is also kept for cli.import_ms, scaled like
        a cold check by a reference child run just before it."""
        times = []
        state = None

        def once():
            return cold_import_s(self), prepare()

        for _ in range(self.sizes.setup_repeats):
            with self.meter.paused():
                ref = reference_child_s(self)
            seconds, (import_s, state) = self.scaled(once)
            times.append(seconds)
            self.import_ms.append(import_s * REF_CHILD_NOMINAL_S / ref * 1000.0)
        return statistics.median(times), state


# ---------------------------------------------------------------------------
# child processes

def python_child(args: list) -> tuple:
    """(wall seconds, completed process) of the interpreter on args, against
    the checkout's sources; waits for the child to end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def cold_import_s(run: Run) -> float:
    """Seconds a fresh interpreter spends importing carousel.cli."""
    code = ("import time; t = time.perf_counter(); import carousel.cli; "
            "print(time.perf_counter() - t)")
    _, proc = python_child(["-c", code])
    if not run.check(proc.returncode == 0, f"cold import: {proc.stderr[-300:]}"):
        return float("nan")
    return float(proc.stdout.strip())


def expected_check_code(rec: dict) -> int:
    """Exit code of `carousel check` for a scene with this verify_scene record."""
    if rec["degenerate_reason"] in ("identical-bodies", "infinite-arcs", "tangential-zero"):
        return 3
    return {"holds": 0, "fails": 2}.get(rec["verdict"], 3)


def check_method(rec: dict) -> str:
    """`--method both` where verify_scene ran the constructive decider
    (it needs fewer common supporting lines than container vertices)."""
    return "both" if rec["constructive_ok"] is not None else "brute"


# A cold command is scaled by a reference child run just before it: a fresh
# interpreter importing numpy.  Starting a process and importing modules is
# kernel and file-system work that the in-process reference kernel does not
# track.  REF_CHILD_NOMINAL_S is roughly its time on the host named above.
REF_CHILD_NOMINAL_S = 0.12
REF_CHILD = ["-c", "import numpy"]


def reference_child_s(run: Run) -> float:
    """Wall seconds of the reference child; run it with the samples paused."""
    ref, proc = python_child(REF_CHILD)
    run.check(proc.returncode == 0, f"reference child: {proc.stderr[-300:]}")
    return ref


def cold_checks(run: Run, docs: list) -> list:
    """Per document, median scaled ms of one-at-a-time `python -m carousel check`.

    docs: (path, method, expected exit code); each runs once per pass.
    """
    out = run.out_dir / "cold.json"
    times = [[] for _ in docs]
    with run.meter.paused():
        for _ in range(run.sizes.cold_passes):
            for k, (path, method, code) in enumerate(docs):
                ref = reference_child_s(run)
                wall, proc = python_child(["-m", "carousel", "check", str(path),
                                           "--method", method, "--out", str(out)])
                run.check(proc.returncode == code,
                          f"cold check {Path(path).name}: exit {proc.returncode}, "
                          f"want {code} {proc.stderr[-300:]}")
                times[k].append(wall * REF_CHILD_NOMINAL_S / ref * 1000.0)
    return [statistics.median(t) for t in times]


# ---------------------------------------------------------------------------
# statistics and records

def quantile(values, q: float) -> float:
    """Quantile q in [0, 1], interpolating linearly between order statistics."""
    return float(np.quantile(values, q)) if len(values) else float("nan")


DIGEST_FIELDS = ("s", "csl_kind", "verdict", "i", "j", "constructive_case")


def decision(rec: dict) -> list:
    return [rec[k] for k in DIGEST_FIELDS]


def digest(items) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_info(seed: int) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "kept_back_seed": KEPT_BACK_SEED,
    }
