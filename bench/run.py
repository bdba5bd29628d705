"""Seeded end-to-end benchmark of the eyeball-jedi CLI.

Usage:
  python3 bench/run.py --workload world_all|deep_country|survey|all \\
      --seed N --seconds S --trace 0|1

For each workload it generates a seeded world (outside any timed region)
under .bench_work/, runs the workload's CLI command sequence for S seconds
(one fresh process per sample, see worker.py), checks every sample's
outputs against the generator's design, and prints one line per metric
and, last, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from spans around the program's public functions.
The exit code is 0 only when every sample passed its checks. See
bench/README.md for what each workload stresses and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from check import countries_in_scope  # noqa: E402
from world import WorldParams, generate  # noqa: E402

WORK = ROOT / ".bench_work"
WORKER_GRACE_S = 120  # time a worker may run past --seconds before it is killed
# Calibration-loop time that defines reference speed (fast state of a
# 2.0 GHz 2-vCPU VM). Reported times are wall seconds * REF_CAL_S / the
# loop's time measured in the same process around the sample.
REF_CAL_S = 0.0065


@dataclass(frozen=True)
class Workload:
    params: WorldParams
    commands: tuple[tuple[str, ...], ...]
    uncalled: frozenset[str]  # hooked functions this workload never reaches


_NO_PLAN = {"pipeline.build_plan", "pipeline.write_coverage_outputs", "pipeline.write_plan_outputs"}

WORKLOADS = {
    # Many countries, few runs each, router addresses that rarely repeat:
    # every country rescans every probe and run and logs each foreign run.
    "world_all": Workload(
        WorldParams(
            countries=16,
            networks=8,
            probes_per_as=(2, 3, 2),
            uncovered=1,
            runs_per_task=0.25,
            hops=(3, 8),
            router_pool=0,
            prefix_rows=2_000,
        ),
        (("analyze", "--all"), ("render", "--all")),
        frozenset(_NO_PLAN),
    ),
    # One country, about eight long runs per AS pair over a small router
    # pool, 10k-row tables: parsing, LPM and per-hop work dominate; no
    # per-country multiplier.
    "deep_country": Workload(
        WorldParams(
            countries=1,
            networks=16,
            probes_per_as=(2, 3),
            uncovered=1,
            runs_per_task=2.0,
            hops=(8, 15),
            router_pool=8,
            prefix_rows=10_000,
            noise_runs=20,
        ),
        (("analyze", "--country", "AA"),),
        frozenset(_NO_PLAN | {"matrix.load_matrix", "render.render_svg"}),
    ),
    # Many countries and probes, a geo table, no traceroutes: load,
    # geolocation and selection without any hop classification.
    "survey": Workload(
        WorldParams(
            countries=30,
            networks=10,
            probes_per_as=(2, 3, 3),
            uncovered=2,
            runs_per_task=0,
            hops=(0, 0),
            router_pool=0,
            prefix_rows=3_000,
        ),
        (("coverage", "--all"), ("plan", "--all")),
        frozenset(
            {
                "ingest.parse_traceroute_results",
                "ingest.parse_prefix_table",
                "paths.is_public_address",
                "paths.classify_traceroute",
                "paths.extract_as_path",
                "paths.classify_locality",
                "pipeline.gather_evidence",
                "pipeline.write_analysis_outputs",
                "matrix.build_matrix",
                "matrix.compute_metrics",
                "matrix.format_matrix",
                "matrix.load_matrix",
                "render.render_svg",
                "logging.warning",
            }
        ),
    ),
}

# metric name -> unit, as declared in BENCHMARK.json
UNITS = {
    m["name"]: m["unit"]
    for kind in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))[kind]
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, params: WorldParams | None = None) -> dict:
    """Generate the world, run the worker, and reduce its samples to metrics."""
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    world = generate(params or workload.params, seed)
    world.write_to(work / "inputs")
    commands = [list(cmd) for cmd in workload.commands]
    spec = {
        "commands": commands,
        "expected": world.expected,
        "uncalled": sorted(workload.uncalled),
        "matched_hops": sum(
            world.expected["matched_hops"].get(cc, 0) for cc in countries_in_scope(world.expected, commands)
        ),
    }
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")

    # its own process group, so the worker and its sample child stop together
    worker = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(work), str(seconds), "1" if trace else "0"],
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = worker.wait(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {name} worker still running after {seconds + WORKER_GRACE_S} s") from None
    finally:
        if worker.poll() is None:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
    if code != 0:
        raise SystemExit(f"error: {name} worker exited {code}")
    samples = json.loads((work / "result.json").read_text("utf-8"))["samples"]
    return summarize(samples, world.input_bytes, trace)


def _scaled(sample: dict, key: str) -> float:
    return sample[key] * REF_CAL_S / sample["cal_s"]


def summarize(samples: list[dict], input_bytes: int, trace: bool) -> dict:
    failed = [s for s in samples if s["problems"]]
    timed = [s for s in samples if "run_s" in s]
    plain = [s for s in timed if not s["traced"]]
    run_s = [_scaled(s, "run_s") for s in plain]
    if not run_s:
        raise SystemExit(f"error: no sample completed: {failed[-1]['problems'] if failed else samples}")
    if trace:
        traced = [s for s in timed if s["traced"]]
        metrics = {
            key: statistics.median(
                s["layers"][key] * (REF_CAL_S / s["cal_s"] if UNITS[key] in ("s", "us") else 1)
                for s in traced
            )
            for key in traced[0]["layers"]
        }
        metrics["trace.overhead_s"] = statistics.median(_scaled(s, "run_s") for s in traced) - statistics.median(run_s)
    else:
        median = statistics.median(run_s)
        metrics = {
            "run_s": median,
            "setup_s": statistics.median(_scaled(s, "setup_s") for s in plain),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
            "input_mb_per_s": input_bytes / 1e6 / median,
        }
    return {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "timed_samples": len(run_s),
        "run_s_p75": statistics.quantiles(run_s, n=4, method="inclusive")[2] if len(run_s) > 1 else run_s[0],
        "wall_run_s": statistics.median(s["run_s"] for s in plain),
        "wall_setup_s": statistics.median(s["setup_s"] for s in plain),
        "problems": [p for s in failed for p in s["problems"]][:20],
        "metrics": metrics,
    }


def report(name: str, result: dict) -> dict:
    """Print the human-readable lines and return the contract's JSON object."""
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in result["metrics"].items()}
    print(
        f"{name}: {result['attempted']} samples ({result['timed_samples']} timed untraced), "
        f"failure_ratio {result['failed'] / result['attempted']:.4f}, run_s p75 {result['run_s_p75']:.4f} s, "
        f"unscaled wall medians: run {result['wall_run_s']:.4f} s, setup {result['wall_setup_s']:.4f} s"
    )
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"{name} FAILED CHECK: {problem}", file=sys.stderr)
    return {k: result[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the worker cleanup
    if not (ROOT / "src" / "eyeball_jedi" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(report(name, result)), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
