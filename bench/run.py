"""Benchmark entry point: one seeded workload, untraced or traced.

    python3 bench/run.py --workload jordanize --seed 1 --seconds 12 --trace 0

Run it from the repository root; it imports ``jordanable`` from ``src/``.
The workload's operations run back to back in this one process (a closed
loop with one client), in whole passes over the generated list, until they
have taken ``--seconds`` at reference speed (see ``PROBE_REF_S``).  Every
answer is checked by ``check.py`` outside the timed region.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run times every operation twice, untraced and
traced in alternating order, and writes its spans to ``bench/.work/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import check as ck  # noqa: E402  (bench/ is the script directory)
import gen  # noqa: E402
import tracer as tr  # noqa: E402

PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)
SETUP_RUNS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import jordanable.cli; "
              "jordanable.cli.build_parser()")
# On the 2-core host the benchmark was built on, CPU speed swings between
# states up to 2x apart, for seconds at a time (a shared physical core).
# Every latency is therefore reported at a fixed reference speed: it is
# multiplied by PROBE_REF_S over the mean duration of the speed probe run
# just before and just after it.  PROBE_REF_S is about the probe's duration
# in the host's fast state; it is a constant, so that runs and commits stay
# comparable.
PROBE_REF_S = 0.0015
END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
    "success_rate": "ratio", "peak_rss_mib": "MiB", "answer_bits_mean": "bits",
}


def probe() -> float:
    """Duration of a fixed exact-arithmetic task: a reading of the host's speed."""
    t0 = perf_counter()
    a = [[Fraction(1, i + j + 1) for j in range(9)] for i in range(8)]
    for c in range(8):
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(8):
            if r != c:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return perf_counter() - t0


def measure_setup() -> float:
    """Median time, at reference speed, for a fresh interpreter to import the
    CLI and build its parser."""
    cmd = [sys.executable, "-c", SETUP_CODE]

    def once() -> float:
        before = probe()
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True)
        dt = perf_counter() - t0
        return dt * PROBE_REF_S * 2 / (before + probe())

    once()  # the first import compiles the bytecode cache
    return statistics.median(once() for _ in range(SETUP_RUNS))


def load_library():
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("jordanable")
    if Path(lib.__file__).resolve().parent != SRC / "jordanable":
        raise ImportError(f"jordanable imported from {lib.__file__}, not from {SRC}")
    for name in tr.MODULES:  # the package does not import cli itself
        importlib.import_module(f"jordanable.{name}")
    return lib


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with >= 10 samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in PERCENTILES:
        rank = max(math.ceil(pct / 100 * n) - 1, 0)  # nearest-rank percentile
        if n - 1 - rank >= 10:
            return pct, ordered[rank]
    return 0.0, ordered[-1]


class Run:
    """Latencies, answers and failures of one measured loop.

    Each pass runs one list of operations; a pass either reuses the first
    list or asks the generator for fresh instances.  Repetitions of one
    operation must reproduce its first answer exactly, so each distinct
    answer is checked once.
    """

    def __init__(self, make_pass, fresh: bool):
        self.make_pass = make_pass
        self.fresh = fresh
        self.passes: list[list] = []
        self.last_probe = None
        self.raw_latency: list[float] = []  # measured seconds, for the report
        self.latency: list[float] = []  # untraced, at reference speed
        self.traced_latency: list[float] = []  # traced, at reference speed
        self.traced_scale: list[float] = []  # reference speed / host speed per traced op
        self.slot_latency: dict[int, list[float]] = {}
        self.answers: dict[int, list] = {}  # id(op) -> [op, answer, repetitions]
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, op, message: str, count: int = 1):
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(f"{op.kind} (dim {op.record['dim']}): {message}")

    def execute(self, slot: int, op, tracer=None):
        if self.last_probe is None:
            self.last_probe = probe()
        if tracer is not None:
            tracer.op_id = len(self.traced_latency)
            tracer.install()
        t0 = perf_counter()
        try:
            raw = op.run()
            error = None
        except Exception as exc:  # a failed operation is recorded, not fatal
            error = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.remove()
        after = probe()
        scale = PROBE_REF_S * 2 / (self.last_probe + after)
        self.last_probe = after
        if tracer is not None:
            self.traced_latency.append(dt * scale)
            self.traced_scale.append(scale)
        else:
            self.raw_latency.append(dt)
            self.latency.append(dt * scale)
            self.slot_latency.setdefault(slot, []).append(dt * scale)
        if error is None:
            try:
                answer = op.answer(raw)
            except Exception as exc:
                error = f"unreadable answer: {type(exc).__name__}: {exc}"
        seen = self.answers.get(id(op))
        if error is not None:
            self.fail(op, error)
        elif seen is None:
            self.answers[id(op)] = [op, answer, 1]
        elif answer == seen[1]:
            seen[2] += 1
        else:
            self.fail(op, "answer differs between repetitions")

    def loop(self, seconds: float, tracer=None):
        """Whole passes until the operations have taken `seconds` at reference speed.

        Counting reference-speed time keeps the number of operations, and so
        the percentile that op_tail_s can use, independent of the host's
        speed state; the wall-clock length of a run varies instead, up to
        2.5 x `seconds` between passes and 4 x `seconds` in all.
        """
        start = perf_counter()
        while (sum(self.latency) + sum(self.traced_latency) < seconds
               and perf_counter() - start < 2.5 * seconds):
            n = len(self.passes)
            ops = self.make_pass(n) if self.fresh or n == 0 else self.passes[0]
            self.passes.append(ops)
            for slot, op in enumerate(ops):
                if tracer is None:
                    self.execute(slot, op)
                else:  # pair each traced call with an untraced one, order alternating
                    order = (None, tracer) if (n + slot) % 2 == 0 else (tracer, None)
                    for t in order:
                        self.execute(slot, op, t)
                if perf_counter() - start > 4 * seconds:
                    return

    def check(self):
        """Check each distinct answer once; its repetitions matched it exactly."""
        for op, answer, repetitions in self.answers.values():
            try:
                op.check(answer)
            except Exception as exc:  # any checker error rejects the answer
                self.fail(op, f"{type(exc).__name__}: {exc}", repetitions)

    @property
    def attempted(self) -> int:
        return len(self.latency) + len(self.traced_latency)


def end_to_end(run: Run, setup_s: float) -> tuple[dict, str]:
    lat = run.latency
    pct, tail_s = tail(lat)
    beyond = sum(x > tail_s for x in lat)
    # a pass runs one operation per slot: its typical length is the sum of
    # the slots' median latencies, which a few slow or fast passes do not move
    typical_pass_s = sum(statistics.median(x) for x in run.slot_latency.values())
    # the largest numerator or denominator bit-length of each distinct answer
    bits = [ck.answer_bits(answer) for _op, answer, _n in run.answers.values()]
    values = {
        "ops_per_s": len(run.slot_latency) / typical_pass_s,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "setup_s": setup_s,
        "success_rate": 1 - run.failed / run.attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "answer_bits_mean": statistics.mean(bits) if bits else 0,
    }
    note = f"op_tail_s is p{pct:g} of {len(lat)} samples ({beyond} above it)"
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, note


def per_layer(run: Run, tracer: tr.Tracer) -> dict:
    overhead = sum(run.traced_latency) / sum(run.latency) - 1
    values = tr.layer_metrics(tracer.names, tracer.spans, len(run.traced_latency),
                              overhead, run.traced_scale)
    units = dict(tr.PER_LAYER)
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def print_report(run: Run, metrics: dict, note: str):
    """Per-slot table (dimension and bit-size against latency), then the metrics."""
    print(f"{'slot':>4} {'kind':<18}{'dim':>4}{'mp_deg':>7}{'entry_bits':>11}"
          f"{'coeff_bits':>11}{'runs':>6}{'median_s':>11}")
    for slot, op in enumerate(run.passes[0]):
        lat = run.slot_latency.get(slot, [])
        records = [ops[slot].record for ops in run.passes]
        entry_bits = max(r["entry_bits"] for r in records)
        coeff_bits = max(r["coeff_bits"] for r in records)
        med = statistics.median(lat) if lat else float("nan")
        print(f"{slot:>4} {op.kind:<18}{op.record['dim']:>4}{op.record['minpoly_deg']:>7}"
              f"{entry_bits:>11}{coeff_bits:>11}{len(lat):>6}{med:>11.5f}")
    print(f"passes: {len(run.passes)}, attempted: {run.attempted}, failed: {run.failed}")
    if run.raw_latency:
        print(f"measured seconds: {sum(run.raw_latency):.3f} in operations, "
              f"{sum(run.latency):.3f} at reference speed")
    for message in run.errors:
        print(f"FAILED {message}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if note:
        print(note)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "jordanable" / "__init__.py").is_file():
        print(f"error: no jordanable sources under {SRC}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup()
    lib = load_library()
    workdir = BENCH / ".work"
    workdir.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir))
    make_ops, fresh = gen.WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}-{args.seed}")

    def make_pass(n: int):
        pass_dir = inputs / f"pass{n}"
        pass_dir.mkdir()
        return make_ops(lib, rng, pass_dir)

    run = Run(make_pass, fresh)
    tracer = tr.Tracer() if args.trace else None
    try:
        run.loop(args.seconds, tracer)
        run.check()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if tracer is None:
        metrics, note = end_to_end(run, setup_s)
    else:
        if not tracer.originals_restored():
            raise RuntimeError("tracer left wrappers installed")
        tracer.write(workdir / f"trace-{args.workload}", run.traced_scale)
        metrics, note = per_layer(run, tracer), ""

    print_report(run, metrics, note)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
