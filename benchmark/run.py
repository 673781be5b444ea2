"""Run one workload of the axpo benchmark.

    python3 benchmark/run.py --workload train-axpo --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the ``end_to_end`` list of BENCHMARK.json, measured untraced; each
time is normalized by the speed of a host probe timed around it (see
``workloads.Probe``), and the wall times are kept beside it in the context.
With ``--trace 1`` they are its ``per_layer`` list, from a run that alternates
untraced and traced rounds, so the tracing overhead is measured in the same
run. The line before it holds the recorded context (machine, versions, log
digests). Results and spans are also written under ``.benchmark_out/``.
"""

import os
import sys
from time import perf_counter

START = perf_counter()

# All load comes from this one process: pin BLAS to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import axpo  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import STEP_PROBE, WORKLOADS, Recorder, make_workload  # noqa: E402

IMPORT_S = perf_counter() - START
IMPORT_PROBE = statistics.median(STEP_PROBE.time() for _ in range(5))
IMPORT_SPEED = STEP_PROBE.speed(IMPORT_PROBE, IMPORT_PROBE)

MIN_SETUPS = 3          # the fewest set-ups whose median setup_s reports
TRACED_MIN_ROUNDS = 4   # two untraced rounds for the overhead, two traced for the exact counts


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_rounds(workload, rec: Recorder, seconds: float, tracer) -> tuple[list[float], list[float], list[dict]]:
    """Run one round at a time, while another fits in `seconds`, and at least
    the minimum number.

    A fresh set-up comes before every `workload.rounds_per_setup` rounds, so
    the set-up samples spread over the run as the round samples do. A traced
    run traces every second round (never a set-up). Returns the normalized and
    the raw set-up times, and the exact counters of each traced round.
    """
    deadline = perf_counter() + seconds
    per_setup = workload.rounds_per_setup
    minimum = max(TRACED_MIN_ROUNDS if tracer else 1, (MIN_SETUPS - 1) * per_setup + 1)
    setup_times, setup_raw, round_counts = [], [], []
    cycle = 0.0
    index = 0
    while index < minimum or perf_counter() + cycle <= deadline:
        if index % per_setup == 0:
            if index:
                workload.teardown()
            probe = STEP_PROBE.time()
            begin = perf_counter()
            workload.setup(index)
            setup_raw.append(perf_counter() - begin)
            setup_times.append(setup_raw[-1] * STEP_PROBE.speed(probe, STEP_PROBE.time()))
        traced = tracer is not None and index % 2 == 1
        before = tracer.exact_counts() if traced else {}
        rec.tracing = traced
        probe = STEP_PROBE.time()
        start = perf_counter()
        workload.round(index)
        round_s = perf_counter() - start
        wall_ms = round_s * 1000.0 * STEP_PROBE.speed(probe, STEP_PROBE.time())
        rec.tracing = False
        rec.end_round(traced)
        (rec.traced_samples if traced else rec.samples)["round_ms"].append(wall_ms)
        if traced:
            after = tracer.exact_counts()
            round_counts.append({k: v - before.get(k, 0) for k, v in after.items()})
        index += 1
        # What the next round may take: this one, plus a set-up if one is due.
        cycle = round_s + (setup_raw[-1] if index % per_setup == 0 else 0.0)
    workload.teardown()
    return setup_times, setup_raw, round_counts


def median_of(samples: dict, name: str) -> float:
    if not samples.get(name):
        raise RuntimeError(f"no successful measurement of {name}")
    return statistics.median(samples[name])


def end_to_end(names: list[str], samples: dict, import_s: float, setup_times: list[float]) -> dict[str, float]:
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in names:
        if name not in values:
            values[name] = median_of(samples, name)
    return values


def per_layer(names: list[str], tracer: Tracer, rec: Recorder, workload, traced_rounds: int) -> dict:
    units = max(workload.units(tracer, traced_rounds), 1.0)
    self_s = tracer.self_seconds()
    counts = tracer.counts
    steps = tracer.durations("harness.train_step")
    tail_pct = math.floor(100.0 * (1.0 - 10.0 / len(steps))) if len(steps) >= 20 else 50
    untraced = median_of(rec.samples, workload.overhead_metric)
    traced = median_of(rec.traced_samples, workload.overhead_metric)
    values = {
        "resample.budget_use_ratio": counts["resample.continuations"] / counts["resample.cap"]
        if counts["resample.cap"] else 0.0,
        "resample.recovery_ratio": counts["resample.recovered"] / counts["resample.prefixes"]
        if counts["resample.prefixes"] else 0.0,
        "harness.train_step.p50_ms": 1000.0 * float(np.percentile(steps, 50)) if steps else 0.0,
        "harness.train_step.tail_ms": 1000.0 * float(np.percentile(steps, tail_pct)) if steps else 0.0,
        "harness.train_step.tail_pct": float(tail_pct),
        "harness.train_step.samples": float(len(steps)),
        "process.cpu_util": tracer.cpu_s / tracer.wall_s,
        # Root spans of the operations other than resume: time in no layer's span.
        "unattributed_ms": 1000.0 * sum(v for k, v in self_s.items() if k.startswith("op.")) / units,
        "tracing.overhead_ms": traced - untraced,
        "tracing.overhead_pct": 100.0 * (traced - untraced) / untraced,
    }
    for name in names:
        if name in values:
            continue
        if name.endswith(".self_ms"):
            values[name] = 1000.0 * self_s[name[: -len(".self_ms")]] / units
        else:
            values[name] = counts[name] / units
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(axpo.__file__).resolve().parents:
        raise SystemExit(f"axpo was imported from {axpo.__file__}, not from {src}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in metric_specs]

    out_dir = ROOT / ".benchmark_out"
    workdir = out_dir / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    rec = Recorder(tracer)
    try:
        workload = make_workload(args.workload, args.seed, workdir, rec)
        setup_times, setup_raw, round_counts = run_rounds(workload, rec, args.seconds, tracer)
        traced_rounds = len(round_counts)
        raw = {}
        if tracer is None:
            values = end_to_end(names, rec.samples, IMPORT_S * IMPORT_SPEED, setup_times)
            raw = end_to_end(names, rec.raw_samples, IMPORT_S, setup_raw)
        else:
            for counts in round_counts[1:]:
                rec.check("traced rounds repeat their counts exactly", counts == round_counts[0],
                          {k: (v, counts.get(k)) for k, v in round_counts[0].items()
                           if counts.get(k) != v})
            values = per_layer(names, tracer, rec, workload, traced_rounds)
            tracer.write(out_dir / "traces" / f"{args.workload}.jsonl")
        context = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": platform.machine(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "import_s": IMPORT_S,
            "import_speed": IMPORT_SPEED,
            "setup_s_samples": setup_times,
            "setup_s_raw_samples": setup_raw,
            "rounds": len(rec.samples["round_ms"]) + traced_rounds,
            "raw_end_to_end": raw,
            "samples": rec.samples,
            "raw_samples": rec.raw_samples,
            "traced_samples": rec.traced_samples,
            "traced_round_counts": round_counts,
            **workload.context(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1), encoding="utf-8"
    )
    for m in metric_specs:
        wall = f"   (wall {raw[m['name']]:.6g})" if m["unit"] in ("s", "ms") and raw else ""
        print(f"{m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}{wall}")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
