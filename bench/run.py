"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload screen --seed 13 --seconds 25 --trace 0

Run from anywhere inside a source checkout: molfp is imported from the
checkout's ``src``, never from an installed copy.  The run repeats
whole rounds of the workload until the rounds have taken ``--seconds``
and it has done the workload's minimum number of rounds, then checks
the last round's outputs.  It sets its inputs up (the same ones each
time) for a short slice before the first round and after every round,
so that the set-ups span the run; ``setup_s`` is their median.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Times are corrected for host speed (see HostSpeed); the
``host:`` line before the result gives the reference-loop times and the
uncorrected end-to-end figures, to tell host drift apart from a program
change.

With ``--trace 1`` rounds alternate between traced and untraced; the
per-layer metrics come from the traced rounds, the spans go to
``bench/out/trace-<workload>-<seed>.json``, and a ``trace_overhead``
line compares traced with untraced end-to-end figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SLICE_S = 0.25  # each slice sets up at least once, and for this long
REFERENCE_MS = 20.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


def import_checkout():
    """Import molfp and the oracles from this checkout, or exit."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import molfp
        import tests.oracles  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import molfp and tests.oracles from {ROOT}: {exc}")
    if Path(molfp.__file__).resolve().parent != (ROOT / "src" / "molfp").resolve():
        sys.exit(f"bench: molfp was imported from {molfp.__file__}, not from {ROOT / 'src'}")


def reference_pass_ms() -> float:
    """Time of one pass of a fixed pure-Python loop, in ms."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(100_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    return (time.perf_counter() - t0) * 1e3


class HostSpeed:
    """Host slowness, sampled with the reference loop while a span runs.

    Shared hosts drift in speed by tens of percent over tens of seconds,
    and the reference loop drifts with molfp's own code.  The workloads
    call ``tick()`` between operations, outside their timed calls; it
    runs one reference pass when INTERVAL_S has passed since the last.
    The first pass of a process is discarded as a warm-up.
    ``factor()`` ends a span: the median reference time over the span,
    passes at both ends included, over REFERENCE_MS.  Dividing the span's
    times by it gives the times on a host that runs a pass in
    REFERENCE_MS.
    """

    INTERVAL_S = 0.5

    def __init__(self) -> None:
        self.passes: list[float] = []
        self._span: list[float] = []
        self._last = 0.0
        reference_pass_ms()
        self.tick(force=True)

    def tick(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= self.INTERVAL_S:
            ms = reference_pass_ms()
            self.passes.append(ms)
            self._span.append(ms)
            self._last = time.perf_counter()

    def factor(self) -> float:
        self.tick(force=True)
        factor = statistics.median(self._span) / REFERENCE_MS
        self._span = self._span[-1:]
        return factor


def summary(values: list[float]) -> dict[str, float]:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any waited-for child
    (the pool workers), in MB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def end_to_end(rounds, setups, corrected: bool = True) -> dict[str, float]:
    """End-to-end metrics from (round, host factor) and (setup seconds,
    host factor) pairs; ``corrected=False`` ignores the host factors."""

    def scale(factor: float) -> float:
        return factor if corrected else 1.0

    latencies = sorted(ms / scale(f) for r, f in rounds for ms in r.latencies_ms)
    return {
        "throughput_mol_s": statistics.median(r.molecules * scale(f) / r.seconds for r, f in rounds),
        "query_p50_ms": statistics.median(latencies),
        "query_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "setup_s": statistics.median(t / scale(f) for t, f in setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    import_checkout()

    from layers import install, layer_metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = OUT / f"{args.workload}-{args.seed}-run"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    tracer = Tracer() if args.trace else None

    host = HostSpeed()
    setups = []

    def setup_slice() -> None:
        """Set up for SETUP_SLICE_S, at least once; with tracing on, the
        first set-up of the run is traced."""
        slice_start = time.perf_counter()
        while True:
            traced = tracer is not None and not setups
            if traced:
                install(tracer)
            t0 = time.perf_counter()
            try:
                workload.setup(tracer if traced else None)
            finally:
                spent = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            setups.append((spent, host.factor()))
            if time.perf_counter() - slice_start >= SETUP_SLICE_S:
                return

    setup_slice()
    plain, traced_rounds = [], []
    round_seconds = 0.0
    while (
        round_seconds < run_seconds
        or len(plain) < workload.min_rounds
        or (tracer is not None and len(traced_rounds) < workload.min_rounds)
    ):
        round_start = time.perf_counter()
        if tracer is not None and len(traced_rounds) <= len(plain):
            install(tracer)
            try:
                with tracer.span("round"):
                    done = workload.run_round(host.tick, tracer)
            finally:
                tracer.uninstall()
            traced_rounds.append((done, host.factor()))
        else:
            done = workload.run_round(host.tick)
            plain.append((done, host.factor()))
        round_seconds += time.perf_counter() - round_start
        setup_slice()

    # The end-to-end figures, peak_rss_mb among them, are taken before
    # the checks, whose own data would otherwise raise the peak.
    plain_metrics = end_to_end(plain, setups)
    uncorrected = end_to_end(plain, setups, corrected=False)
    traced_metrics = end_to_end(traced_rounds, setups) if tracer is not None else None
    errors = workload.check()
    rounds = [r for r, _ in plain + traced_rounds]
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    if tracer is None:
        values = plain_metrics
        wanted = spec["end_to_end"]
    else:
        values = layer_metrics(
            tracer, workload.extra_layer_metrics(), statistics.median(f for _, f in traced_rounds)
        )
        wanted = spec["per_layer"]
        overhead = {
            name: round(traced_metrics[name] / plain_metrics[name] - 1, 4)
            for name in ("throughput_mol_s", "query_p50_ms", "query_p90_ms")
        }
        print("trace_overhead: " + json.dumps(overhead))
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(trace_file)
        print(f"trace_spans: {len(tracer.spans)} written to {trace_file}")
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        sys.exit(f"bench: metrics and BENCHMARK.json disagree on {sorted(missing)}")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    shutil.rmtree(workdir, ignore_errors=True)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print("host: " + json.dumps({
        "rounds": {"plain": len(plain), "traced": len(traced_rounds)},
        "reference_pass_ms": summary(host.passes),
        "uncorrected": uncorrected,
    }))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
