"""domikit benchmark: one workload, one closed-loop client, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {lattice,network,binary} --seed N
                             --seconds S --trace {0,1}

The workload's operations run in passes, in the same interleaved order
every pass, until S seconds have gone and at least 100 operations have
run; a pass is never cut short.  Each operation starts after an untimed
gc.collect(), runs `domikit.cli.main` in-process with its output
captured (or a library call, for matroids), and has its output checked
against values computed by `oracle` before timing started.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics.  With --trace 1, untraced passes alternate with
passes under span-recording wrappers (see `tracing`) for twice S
seconds, and the JSON object holds the per-layer metrics, per pass, and
the tracing overhead.  Raw latencies and the span tree of one pass go
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100          # so that ten samples lie beyond the 90th percentile
SETUP_PER_PASS = 3     # set-up samples taken after each pass
SETUP_MIN = 15         # set-up samples per run, at least

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_units() -> dict[str, str]:
    units = {metric: "ms" for metric in tracing.SPANS.values()}
    units.update({metric: "count" for metric in tracing.CALLS.values()})
    units.update({metric: "count" for metric in tracing.COUNTS})
    units["network.cache_hit_ratio"] = "ratio"
    units["trace.overhead_pct"] = "%"
    return units


class SetupProbe:
    """Times the program's set-up in fresh interpreters: importing domikit
    and parsing every document once.

    A few samples are taken after every pass, so that they spread over
    the phases of the host as the operations do; the median is reported.
    The first child is an untimed warm-up, which also writes the bytecode
    cache.  The interpreter's own start is not part of a sample.
    """

    def __init__(self, docs: list[str]):
        self.cmd = [sys.executable, str(HERE / "setup_child.py"), str(SRC), *docs]
        self.times: list[float] = []
        self._child()

    def _child(self) -> float:
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.strip())

    def sample(self) -> None:
        self.times += [self._child() for _ in range(SETUP_PER_PASS)]

    def median(self) -> float:
        while len(self.times) < SETUP_MIN:
            self.times.append(self._child())
        return statistics.median(self.times)


def execute(op: workloads.Op, mods):
    if op.call is not None:
        return op.call(mods)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = mods.cli.main(op.argv)
    return code, out.getvalue()


class Loop:
    """Latencies and outcomes of the passes run so far."""

    def __init__(self):
        self.latencies: list[tuple[str, float]] = []
        self.passes = 0
        self.errors = 0          # raised or exited abnormally
        self.wrong = 0           # returned an output the oracle rejects
        self.reported: set[str] = set()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def record_failure(self, label: str, message: str) -> None:
        if label not in self.reported:
            self.reported.add(label)
            print(f"FAILED {label}: {message}", file=sys.stderr)


def run_op(op: workloads.Op, mods, loop: Loop, tracer=None) -> None:
    gc.collect()
    span = tracer.op(op.label) if tracer is not None else nullcontext()
    started = perf_counter()
    try:
        with span:
            result = execute(op, mods)
    except (Exception, SystemExit):   # keep running; the operation counts as failed
        loop.latencies.append((op.label, perf_counter() - started))
        loop.errors += 1
        loop.record_failure(op.label, traceback.format_exc(limit=3))
        return
    loop.latencies.append((op.label, perf_counter() - started))
    try:
        op.check(result)
    except oracle.CheckFailed as e:
        loop.wrong += 1
        loop.record_failure(op.label, str(e))


def run_pass(ops, mods, loop: Loop, tracer=None) -> None:
    if tracer is not None:
        tracer.begin_pass()
    for op in ops:
        run_op(op, mods, loop, tracer)
    loop.passes += 1


def run_passes(ops, mods, seconds: float, after_pass) -> Loop:
    """Untraced passes for `seconds`; `after_pass` runs between them."""
    loop = Loop()
    started = perf_counter()
    while loop.passes == 0 or perf_counter() - started < seconds or loop.attempted < MIN_OPS:
        run_pass(ops, mods, loop)
        after_pass()
    return loop


def run_traced(ops, mods, seconds: float) -> tuple[tracing.Tracer, Loop, Loop]:
    """Untraced and traced passes, alternating for twice `seconds`, so that
    both see the same phases of the host.  The tracer is removed before
    every untraced pass."""
    tracer = tracing.Tracer()
    untraced, traced = Loop(), Loop()
    started = perf_counter()
    while traced.passes == 0 or perf_counter() - started < 2 * seconds or traced.attempted < MIN_OPS:
        run_pass(ops, mods, untraced)
        tracer.install()
        try:
            run_pass(ops, mods, traced, tracer)
        finally:
            tracer.uninstall()
    return tracer, untraced, traced


def end_to_end(loop: Loop) -> dict[str, float]:
    times = [t for _, t in loop.latencies]
    return {
        "ops_per_s": (loop.attempted - loop.failed) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
    }


def per_layer(tracer: tracing.Tracer, traced: Loop, untraced: Loop) -> dict[str, float]:
    """Layer totals per pass; the overhead compares time per pass."""
    values = {k: v / traced.passes for k, v in tracer.layer_totals().items()}
    evaluations = values["network.evaluations"]
    values["network.cache_hit_ratio"] = (
        1.0 - values["network.max_flow_calls"] / evaluations if evaluations else 0.0)
    per_pass = [sum(t for _, t in loop.latencies) / loop.passes for loop in (traced, untraced)]
    values["trace.overhead_pct"] = (per_pass[0] / per_pass[1] - 1.0) * 100.0
    return values


def import_domikit():
    """domikit from this checkout's src/, and no other."""
    sys.path.insert(0, str(SRC))
    import domikit
    from domikit import cli, domination, matroid
    if Path(domikit.__file__).resolve().parent != SRC / "domikit":
        sys.exit(f"error: imported domikit from {domikit.__file__}, not from {SRC}")
    return SimpleNamespace(cli=cli, domination=domination, matroid=matroid)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "domikit" / "__init__.py").is_file():
        print(f"error: no domikit sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    docdir = Path(tempfile.mkdtemp(prefix=f"docs-{args.workload}-{args.seed}-", dir=OUT))
    try:
        workload = workloads.build(args.workload, args.seed, docdir)
        doc_files = sorted(str(p) for p in docdir.glob("*.json"))
        mods = import_domikit()
        if args.trace:
            tracer, untraced, traced = run_traced(workload.ops, mods, args.seconds)
            loops = [untraced, traced]
            values = per_layer(tracer, traced, untraced)
            units = layer_units()
            raw = {"untraced_latencies_s": untraced.latencies, "traced_latencies_s": traced.latencies}
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "passes": traced.passes,
                "per_layer_per_pass": values,
                "untraced_end_to_end": end_to_end(untraced),
                "traced_end_to_end": end_to_end(traced),
                "span_tree_of_last_pass": tracer.tree.to_dict(),
            }, indent=1))
        else:
            setup = SetupProbe(doc_files)
            untraced = run_passes(workload.ops, mods, args.seconds, after_pass=setup.sample)
            loops = [untraced]
            values = end_to_end(untraced)
            values["setup_s"] = setup.median()
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END
            raw = {"latencies_s": untraced.latencies, "setup_samples_s": setup.times}
        raw.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   passes=untraced.passes, metrics=values)
        (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(raw))
    finally:
        shutil.rmtree(docdir, ignore_errors=True)

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(f"{args.workload}: {untraced.passes} passes, {attempted} operations, {failed} failed",
          file=sys.stderr)
    print(json.dumps({
        "correct": all(loop.wrong == 0 for loop in loops),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
