"""Benchmark of the affine-singular checkers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
``src/``.  One process, single-threaded, at most one CLI child at a time.

Workloads (see BENCHMARK.json for why each was chosen):

  annihilate   verify_singular at the distinguished level and at a seeded off
               level, and lowering_factor_check, on four determinant specs;
               structure tables are built during set-up.
  enveloping   verify_zhu_generator and verify_weyl_vanishing on the same
               specs, plus classify_sp6 with a seeded control set.
  cli          fresh ``python -m affine_singular.cli`` processes, one after
               another, each cached command first cold and then warm.

Every verdict is checked against an expectation computed here, not by the
library.  Passes repeat until the next one would end after --seconds.

End-to-end times are given at a reference speed (see calibrate.py): each
measured interval is scaled by how fast a fixed reference job ran just
before and after it.  Raw figures are printed in the human-readable lines.
The process, and so every CLI child, is pinned to one CPU, so the reference
runs on the core it calibrates.

With --trace 0 the end-to-end metrics are printed.  With --trace 1 one
untraced pass is followed by at least two traced ones, which give the
per-layer self times (raw seconds) and work counters; every counter must
repeat exactly across the traced passes.
--smoke swaps in the smallest case (C2 m=2 n=1) for the benchmark's own test.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path

from calibrate import IN_CHILD, Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"
TMP_ROOT = ROOT / ".perfbench-tmp"

# (kind, rank, m, n): the largest cases the library handles in seconds, one
# per shape of work: many terms (C4 n=3), many swaps (C5), kind A (A8), and
# a large table with a small vector (C6 n=1).
SPECS = [("C", 4, 4, 3), ("C", 5, 5, 2), ("A", 8, 4, 2), ("C", 6, 6, 1)]
SMOKE_SPECS = [("C", 2, 2, 1)]
# the off level is the distinguished level plus one of these
OFF_LEVEL_SHIFTS = [Fraction(s, 2) for s in (-4, -3, -2, -1, 1, 2, 3, 4)]
SETUP_REPEATS = 3
CLI_SETUP_REPEATS = 9
WARM_READS = 25  # in-process cache reads per operation, averaged
CHILD_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("op_ms.p50", "ms"), ("op_ms.p90", "ms"),
    ("peak_rss_mb", "MB"), ("cold_ms.p50", "ms"), ("warm_ms.p50", "ms"),
]
PER_LAYER = [
    ("liealg.build_s", "s"), ("liealg.dim", "count"), ("liealg.bracket_entries", "count"),
    ("determinants.expand_s", "s"), ("determinants.det_terms", "count"),
    ("determinants.state_terms", "count"),
    ("vacuum.straighten_s", "s"), ("vacuum.bracket_lookups", "count"),
    ("vacuum.residual_terms", "count"), ("vacuum.specialize_s", "s"),
    ("vacuum.specialized_terms", "count"),
    ("zhu.project_s", "s"), ("zhu.projected_terms", "count"), ("zhu.pbw_s", "s"),
    ("zhu.pbw_terms", "count"), ("zhu.bracket_lookups", "count"),
    ("weyl.image_s", "s"), ("weyl.products", "count"),
    ("category_o.closure_s", "s"), ("category_o.module_dim", "count"),
    ("category_o.ad_actions", "count"),
    ("linalg.reduce_s", "s"), ("linalg.reduce_calls", "count"), ("linalg.pivots", "count"),
    ("weights.freudenthal_s", "s"), ("weights.weights", "count"),
    ("cache.get_s", "s"), ("cache.put_s", "s"), ("cache.hits", "count"),
    ("cache.misses", "count"), ("cache.puts", "count"),
    ("serialize.json_s", "s"), ("serialize.json_calls", "count"),
    ("serialize.report_bytes", "bytes"), ("serialize.identical_reports", "count"),
    ("cli.import_s", "s"), ("cli.modules", "count"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
]

_TIMING = re.compile(r'"timing_ms": \d+')


# -- expectations, computed without the library ------------------------


def paper_level(kind: str, m: int, n: int) -> Fraction:
    """The level at which det^n of the m x m matrix is singular."""
    return Fraction(n) - Fraction(m + 1, 2) if kind == "C" else Fraction(n - m)


def lowest_root_at_mode_1(kind: str, rank: int) -> str:
    return "X[-2e1](1)" if kind == "C" else "X[e%d-e1](1)" % rank


def algebra_dim(kind: str, rank: int) -> int:
    return rank * (2 * rank + 1) if kind == "C" else rank * rank - 1


def label(kind, rank, m, n) -> str:
    return "%s%d m=%d n=%d" % (kind, rank, m, n)


def expect_pass(report) -> str | None:
    return None if report.verdict else "verdict is FAIL"


def expect_singular(level, report) -> str | None:
    text = str(level)
    if not report.verdict:
        return "not singular at the paper's level %s" % text
    if report.parameters.get("distinguished_level") != text:
        return "distinguished level %s, paper gives %s" % (
            report.parameters.get("distinguished_level"), text)
    return None


def expect_witness(operator, report) -> str | None:
    if report.verdict:
        return "passed off level"
    found = (report.witness or {}).get("operator")
    return None if found == operator else "witness operator %s, expected %s" % (found, operator)


def expect_image(m, report) -> str | None:
    word = "vanishes" if m >= 2 else "survives"
    if not report.verdict or not report.claim.startswith("oscillator image of det power " + word):
        return "expected the image to be %s: %s" % (word, report.claim)
    return None


def expect_classification(seed, dim, report) -> str | None:
    if not report.verdict:
        return "classification failed: %s" % report.witness
    if report.seed != seed or report.details["module_dimension"] != dim:
        return "seed %s, module dimension %s; expected %s, %s" % (
            report.seed, report.details["module_dimension"], seed, dim)
    return None


# -- one pass and its measurements ----------------------------------------


@dataclass
class Pass:
    wall_s: float = 0.0  # reference seconds, the sum over operations
    raw_wall_s: float = 0.0
    # reference seconds by operation name
    op_s: dict = field(default_factory=dict)
    cold_s: dict = field(default_factory=dict)
    warm_s: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    reports: list = field(default_factory=list)  # cold report text, in op order
    times: dict = field(default_factory=dict)  # traced passes: layer self times
    counts: dict = field(default_factory=dict)  # traced passes: work counters

    def fail(self, what: str, problem: str) -> None:
        self.failed += 1
        print("FAILED %s: %s" % (what, problem), file=sys.stderr)

    def add(self, raw: float, scale: float) -> None:
        self.wall_s += raw * scale
        self.raw_wall_s += raw

    def add_report_bytes(self) -> None:
        self.counts["serialize.report_bytes"] = sum(
            len(_TIMING.sub('"timing_ms": 0', text)) for text in self.reports)


def report_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def traced(fn):
    """Run fn() under a fresh tracer; returns (result, times, counts)."""
    import tracer as tracing

    trace = tracing.Tracer()
    with tracing.installed(trace):
        result = fn()
    counts = dict(trace.counts)
    counts["trace.spans"] = trace.spans
    return result, dict(trace.self_s), counts


@dataclass(frozen=True)
class Op:
    name: str
    run: object  # () -> VerificationReport
    check: object  # report -> problem text or None


class Library:
    """The annihilate and enveloping workloads: library calls in this process."""

    def __init__(self, clock: Clock, tmp: Path, specs, enveloping: bool, seed: int):
        self.clock = clock
        self.tmp = tmp
        self.specs = specs
        self.enveloping = enveloping
        self.seed = seed
        self.tables = sorted({(kind, rank) for kind, rank, _, _ in specs}
                             | ({("C", 3)} if enveloping else set()))
        self.passes = 0

    def setup(self) -> float:
        """Import the package, then build every structure table the ops use.

        The import is timed once; the table build is repeated and its median
        taken, since the build dominates and is what a library user pays once
        per session.
        """
        sys.path.insert(0, str(SRC))
        self.lib, raw, scale = self.clock.measure(partial(importlib.import_module, "affine_singular"))
        import_s = raw * scale
        importlib.import_module("affine_singular.cache")
        self.build = self.lib.liealg.build_algebra
        builds = []
        for _ in range(SETUP_REPEATS):
            self.build.cache_clear()
            _, raw, scale = self.clock.measure(self._build_tables)
            builds.append(raw * scale)
        self.ops = self._make_ops(random.Random(self.seed))
        return import_s + statistics.median(builds)

    def _build_tables(self) -> None:
        liealg = self.lib.liealg  # looked up per call, so a traced rebuild is seen
        for kind, rank in self.tables:
            liealg.build_algebra(kind, rank)

    def traced_setup(self):
        """Rebuild the tables under the tracer for the liealg layer figures."""
        self.build.cache_clear()
        _, times, counts = traced(self._build_tables)
        return times, counts

    def _make_ops(self, rng) -> list:
        lib = self.lib
        ops = []
        for kind, rank, m, n in self.specs:
            spec = lib.DeterminantSpec(kind, rank, m, n)
            name = label(kind, rank, m, n)
            if self.enveloping:
                ops.append(Op("zhu " + name, partial(lib.verify_zhu_generator, spec), expect_pass))
                ops.append(Op("weyl " + name, partial(lib.verify_weyl_vanishing, spec),
                              partial(expect_image, m)))
                continue
            level = paper_level(kind, m, n)
            off = level + rng.choice(OFF_LEVEL_SHIFTS)
            ops.append(Op("singular " + name, partial(lib.verify_singular, spec, level),
                          partial(expect_singular, level)))
            ops.append(Op("off-level %s k=%s" % (name, off), partial(lib.verify_singular, spec, off),
                          partial(expect_witness, lowest_root_at_mode_1(kind, rank))))
            ops.append(Op("factor " + name, partial(lib.lowering_factor_check, spec), expect_pass))
        if self.enveloping:
            classify_seed = rng.randrange(10 ** 6)
            dim = lib.weyl_dim(self.build("C", 3), (2, 2, 2))
            ops.append(Op("classify_sp6 seed=%d" % classify_seed,
                          partial(lib.classify_sp6, seed=classify_seed),
                          partial(expect_classification, classify_seed, dim)))
        return ops

    def run_pass(self, trace: bool) -> Pass:
        if not trace:
            return self._pass()
        result, times, counts = traced(self._pass)
        result.times, result.counts = times, counts
        result.add_report_bytes()
        return result

    def _pass(self) -> Pass:
        """Every op once, each through an empty cache (cold), then every
        cached payload read back (warm) and compared with what was stored."""
        cache = self.lib.cache
        self.passes += 1
        directory = str(self.tmp / ("cache-%d" % self.passes))
        result = Pass()
        stored = []

        def cold(op, key):
            cache.cache_get(directory, key)
            start = time.perf_counter()
            report = op.run()
            compute = time.perf_counter() - start
            obj = report.to_obj()
            cache.cache_put(directory, key, obj)
            return report, obj, compute

        def warm(key):
            for _ in range(WARM_READS):
                got, _ = cache.cache_get(directory, key)
            return got

        for op in self.ops:
            key = {"op": op.name}
            result.attempted += 1
            try:
                (report, obj, compute), raw, scale = self.clock.measure(partial(cold, op, key))
            except Exception:  # a crash is a failed operation; keep measuring the rest
                result.fail(op.name, traceback.format_exc())
                continue
            result.add(raw, scale)
            result.op_s[op.name] = compute * scale
            result.cold_s[op.name] = raw * scale
            problem = op.check(report)
            if problem:
                result.fail(op.name, problem)
            text = report_text(obj)
            result.reports.append(text)
            stored.append((op.name, key, text))
        for name, key, text in stored:
            got, raw, scale = self.clock.measure(partial(warm, key))
            result.warm_s[name] = raw * scale / WARM_READS
            if got is None or report_text(got) != text:
                result.fail(name, "warm payload differs from the cold payload")
        return result

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass(frozen=True)
class Command:
    name: str
    argv: list
    cache: str | None  # None, "cold" or "warm"
    check: object  # parsed JSON payload -> problem text or None


def check_alg(kind, rank, obj):
    dim = algebra_dim(kind, rank)
    if obj.get("dimension") != dim or len(obj.get("basis", ())) != dim:
        return "dimension %s, expected %d" % (obj.get("dimension"), dim)
    return None


def check_verdict(obj, level=None):
    if obj.get("verdict") is not True:
        return "verdict is FAIL"
    if level is not None and obj["parameters"].get("level") != str(level):
        return "level %s, paper gives %s" % (obj["parameters"].get("level"), level)
    return None


def check_classify(seed, dim, obj):
    problem = check_verdict(obj)
    if problem is None and (obj.get("seed") != seed or obj["details"]["module_dimension"] != dim):
        problem = "seed %s, module dimension %s; expected %s, %s" % (
            obj.get("seed"), obj["details"]["module_dimension"], seed, dim)
    return problem


def without_timing(obj) -> dict:
    return {k: v for k, v in obj.items() if k != "timing_ms"}


class Cli:
    """The cli workload: fresh interpreter per command, one at a time."""

    def __init__(self, clock: Clock, tmp: Path, smoke: bool, seed: int):
        self.clock = clock
        self.tmp = tmp
        self.smoke = smoke
        self.seed = seed
        self.passes = 0

    def _env(self, cache_dir: Path) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "AFFINE_SINGULAR_CACHE")}
        env["PYTHONPATH"] = str(SRC)
        env["AFFINE_SINGULAR_CACHE"] = str(cache_dir)  # never the user's cache
        return env

    def setup(self) -> float:
        """Median time to import the CLI, which every command pays before it
        starts work.  Timed in this process, dropping the package from
        sys.modules between repeats: on the machine the bounds were set on,
        child process times come in steps of about 50 ms, too coarse for an
        import.  Expectations are computed after."""
        sys.path.insert(0, str(SRC))
        clock = Clock()
        times = []
        for _ in range(CLI_SETUP_REPEATS):
            for name in [n for n in sys.modules if n.split(".")[0] == "affine_singular"]:
                del sys.modules[name]
            _, raw, scale = clock.measure(partial(importlib.import_module, "affine_singular.cli"))
            times.append(raw * scale)
        import affine_singular

        classify_seed = random.Random(self.seed).randrange(10 ** 6)
        dim = affine_singular.weyl_dim(affine_singular.build_algebra("C", 3), (2, 2, 2))
        self.commands = self._commands(classify_seed, dim)
        return statistics.median(times)

    def traced_setup(self):
        return {}, {}

    def _commands(self, classify_seed, dim) -> list:
        alg = [("C", 2)] if self.smoke else [("C", 6), ("A", 8)]
        verify, factor, project = (("C", 2, 2, 1),) * 3 if self.smoke else (
            ("C", 6, 6, 1), ("C", 4, 4, 2), ("C", 3, 3, 2))
        sized = lambda kind, rank, m, n: ["--type", kind, "--rank", str(rank), "-m", str(m), "-n", str(n)]
        cmds = [Command("alg info %s%d" % (kind, rank),
                        ["alg", "info", "--type", kind, "--rank", str(rank), "--json"], None,
                        partial(check_alg, kind, rank)) for kind, rank in alg]
        for mode in ("cold", "warm"):
            cmds.append(Command("singular verify %s %s" % (label(*verify), mode),
                                ["singular", "verify", *sized(*verify), "--json"], mode,
                                partial(check_verdict, level=paper_level(verify[0], *verify[2:]))))
        for mode in ("cold", "warm"):
            cmds.append(Command("singular factor %s %s" % (label(*factor), mode),
                                ["singular", "factor", *sized(*factor), "--json"], mode, check_verdict))
        cmds.append(Command("zhu project " + label(*project),
                            ["zhu", "project", *sized(*project), "--json"], None, check_verdict))
        cmds.append(Command("classify sp6 --seed %d" % classify_seed,
                            ["classify", "sp6", "--seed", str(classify_seed), "--json"], None,
                            partial(check_classify, classify_seed, dim)))
        return cmds

    def run_pass(self, trace: bool) -> Pass:
        self.passes += 1
        cache_dir = self.tmp / ("cache-%d" % self.passes)
        env = self._env(cache_dir)
        result = Pass()
        cold = {}
        for number, cmd in enumerate(self.commands):
            argv = cmd.argv + (["--cache-dir", str(cache_dir)] if cmd.cache else [])
            trace_file = self.tmp / ("trace-%d-%d.json" % (self.passes, number))
            prefix = [sys.executable, str(PROBE), str(trace_file)] if trace else [
                sys.executable, "-m", "affine_singular.cli"]
            result.attempted += 1
            proc, raw, scale = self.clock.measure(partial(
                subprocess.run, prefix + argv, env=env, cwd=self.tmp, capture_output=True,
                text=True, timeout=CHILD_TIMEOUT_S))
            result.add(raw, scale)
            result.op_s[cmd.name] = raw * scale
            if cmd.cache:
                getattr(result, cmd.cache + "_s")[cmd.name] = raw * scale
            if cmd.cache != "warm":
                result.reports.append(proc.stdout)
            problem = self._check(cmd, proc, cold)
            if problem:
                result.fail(cmd.name, problem)
            if trace:
                self._add_trace(result, trace_file)
        if trace:
            result.add_report_bytes()
        return result

    @staticmethod
    def _check(cmd, proc, cold) -> str | None:
        if proc.returncode != 0:
            return "exit code %d, expected 0: %s" % (proc.returncode, proc.stderr.strip())
        try:
            obj = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return "stdout is not JSON: %s" % exc
        problem = cmd.check(obj)
        if problem or cmd.cache is None:
            return problem
        key = tuple(cmd.argv)
        if cmd.cache == "cold":
            cold[key] = without_timing(obj)
        elif cold.get(key) != without_timing(obj):
            return "warm payload differs from the cold payload"
        return None

    @staticmethod
    def _add_trace(result: Pass, trace_file: Path) -> None:
        with open(trace_file) as handle:
            record = json.load(handle)
        trace_file.unlink()
        for key, value in record["self_s"].items():
            result.times[key] = result.times.get(key, 0.0) + value
        record["counts"]["trace.spans"] = record["spans"]
        for key, value in record["counts"].items():
            result.counts[key] = result.counts.get(key, 0) + value

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# -- measurement and reporting --------------------------------------------


def repeat(run_pass, seconds: float, minimum: int, start: float) -> list:
    """Passes until the next one, at the mean pace so far, would end more
    than `seconds` after `start`; at least `minimum`."""
    passes = []
    first = time.perf_counter()
    while True:
        passes.append(run_pass())
        now = time.perf_counter()
        pace = (now - first) / len(passes)
        if len(passes) >= minimum and now + pace - start > seconds:
            return passes


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_op(passes, attr) -> list:
    """Each operation's median over the passes."""
    samples = {}
    for p in passes:
        for name, seconds in getattr(p, attr).items():
            samples.setdefault(name, []).append(seconds)
    return [statistics.median(v) for v in samples.values()]


def end_to_end(setup_s, passes, peak_rss_mb, clock):
    """Latency percentiles are taken across operations, each operation's
    latency being its median over the passes: a pooled percentile falls
    between two single samples of different operations and swings with both."""
    op_s, cold, warm = (per_op(passes, attr) for attr in ("op_s", "cold_s", "warm_s"))
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_ms.p50": 1000 * statistics.median(op_s),
        "op_ms.p90": 1000 * percentile(op_s, 90),
        "peak_rss_mb": peak_rss_mb,
        "cold_ms.p50": 1000 * statistics.median(cold),
        "warm_ms.p50": 1000 * statistics.median(warm),
    }
    notes = ["%d passes; percentiles across %d operations (cold_ms %d, warm_ms %d), "
             "each the median of its passes" % (len(passes), len(op_s), len(cold), len(warm)),
             "reference job %.3f ms median (%.3f ms at the reference speed); raw wall_s %.4f s"
             % (1000 * statistics.median(clock.reference_s), 1000 * clock.ref_s,
                statistics.median(p.raw_wall_s for p in passes))]
    return values, notes, True


def per_layer(base, plain: Pass, passes):
    """Setup figures plus the traced passes: median times, exact counts."""
    base_times, base_counts = base
    values = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            values[name] = base_times.get(name, 0.0) + statistics.median(
                p.times.get(name, 0.0) for p in passes)
        else:
            values[name] = base_counts.get(name, 0) + passes[0].counts.get(name, 0)
    values["trace.overhead_s"] = statistics.median(p.wall_s for p in passes) - plain.wall_s
    values["serialize.identical_reports"] = sum(
        a == b for a, b in zip(passes[0].reports, passes[1].reports))
    notes = ["1 untraced and %d traced passes; times are medians of self time" % len(passes)]
    unstable = sorted(k for p in passes[1:] for k in set(p.counts) | set(passes[0].counts)
                      if p.counts.get(k) != passes[0].counts.get(k))
    if unstable:
        notes.append("counters differ between traced passes: %s" % ", ".join(sorted(set(unstable))))
    return values, notes, not unstable


def measure(workload, seconds: float, trace: bool):
    setup_s = workload.setup()
    start = time.perf_counter()
    if not trace:
        passes = repeat(partial(workload.run_pass, False), seconds, 1, start)
        return (passes,) + end_to_end(setup_s, passes, workload.peak_rss_mb(), workload.clock)
    plain = workload.run_pass(False)
    base = workload.traced_setup()
    passes = repeat(partial(workload.run_pass, True), seconds, 2, start)
    return ([plain] + passes,) + per_layer(base, plain, passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("annihilate", "enveloping", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the smallest case (C2 m=2 n=1) instead of the benchmark grid")
    args = parser.parse_args(argv)
    if not (SRC / "affine_singular" / "__init__.py").is_file():
        print("error: no package sources at %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2

    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        specs = SMOKE_SPECS if args.smoke else SPECS
        if args.workload == "cli":
            workload = Cli(Clock(IN_CHILD), tmp, args.smoke, args.seed)
        else:
            workload = Library(Clock(), tmp, specs, args.workload == "enveloping", args.seed)
        passes, values, notes, stable = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    for note in notes:
        print("  " + note)
    for name, value in values.items():
        print("  %-30s %16.6f %s" % (name, value, units[name]))
    print("  %-30s %16.6f (%d of %d operations)" % ("failed_frac", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0 and stable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
