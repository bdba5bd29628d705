"""Run one workload's command sequence repeatedly, one fresh process per sample.

Usage: python3 bench/worker.py WORK_DIR SECONDS TRACE

WORK_DIR holds inputs/ (the generated files and run.conf) and spec.json
(the commands and the generator's expectations). The worker imports the
program from the checkout's src/ once, then forks a child per sample: the
child calls cli.main for each command, which is what users run, times the
sequence (with a calibration loop around each command, outside the
timer), reads its own peak RSS, checks the outputs, and reports back
through a pipe. Forking keeps interpreter start-up out of the sample
without sharing any program state between samples.

Every sample is timed and checked; the first one also sets the reference
artifact hash. With TRACE 1, samples alternate untraced and traced, so the
tracing overhead is measured in the same run. Results go to
WORK_DIR/result.json.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from check import artifact_digest, check_outputs  # noqa: E402
from tracer import HOOKS, Tracer, check_hooks, time_setup  # noqa: E402

CAL_REPS = 5  # calibration loops per measurement; their median is used
PROGRAM_MODULES = ["cli", "ingest", "lpm", "paths", "pipeline", "matrix", "render", "selection", "coverage"]


def import_program():
    """The program from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "eyeball_jedi" / "cli.py").is_file():
        raise SystemExit(f"error: no program source under {src}")
    sys.path.insert(0, str(src))
    for name in PROGRAM_MODULES:
        importlib.import_module(f"eyeball_jedi.{name}")
    cli = sys.modules["eyeball_jedi.cli"]
    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's source")
    return cli


def calibrate() -> float:
    """Median time of a fixed interpreter-bound loop: the CPU's current speed.

    The host's speed drifts by up to 2x over tens of seconds (other tenants
    on the same cores), and a sample's CPU time drifts with it, so sample
    times are scaled by this loop's mean time before, between and after
    the sample's commands. Garbage collection is off so the program's
    leftover heap cannot slow the loop.
    """
    times = []
    gc.disable()
    for _ in range(CAL_REPS):
        start = time.perf_counter()
        table = {}
        for i in range(4000):
            key = f"{i & 255}.{(i >> 8) & 255}.{i % 7}.1"
            table[key] = int(key.split(".", 1)[0]) ^ i
        json.loads(json.dumps(sorted(table.items())))
        times.append(time.perf_counter() - start)
    gc.enable()
    return sorted(times)[CAL_REPS // 2]


def _redirect(fd: int, path: Path) -> None:
    target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(target, fd)
    os.close(target)


def _child(cli, work: Path, spec: dict, traced: bool) -> dict:
    out = work / "out"
    _redirect(1, work / "stdout.txt")
    _redirect(2, work / "stderr.txt")
    setup: list[float] = []
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    else:
        time_setup(setup.append)
    conf = str(work / "inputs" / "run.conf")
    codes = []
    cals = [calibrate()]
    run_s = 0.0
    for cmd in spec["commands"]:
        start = time.perf_counter()
        codes.append(cli.main([*cmd, "--config", conf, "--out", str(out)]))
        run_s += time.perf_counter() - start
        cals.append(calibrate())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.flush()
    sys.stderr.flush()

    stdout = (work / "stdout.txt").read_text("utf-8")
    stderr = (work / "stderr.txt").read_bytes()
    result = {
        "traced": traced,
        "run_s": run_s,
        "cal_s": sum(cals) / len(cals),
        "setup_s": tracer.total["pipeline.load_workspace"] if traced else sum(setup),
        "peak_rss_mb": peak_kb / 1024,
        "problems": check_outputs(spec["expected"], spec["commands"], out, stdout, codes),
        "digest": artifact_digest(out),
    }
    if traced:
        layers = layer_metrics(tracer, spec)
        layers["pipeline.output_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        layers["cli.stderr_lines"] = stderr.count(b"\n")
        layers["cli.stderr_bytes"] = len(stderr)
        result["layers"] = layers
        result["never_called"] = [h.name for h in HOOKS if h.name not in spec["uncalled"] and not tracer.calls[h.name]]
        tracer.write_spans(work / "spans.jsonl")
    return result


def layer_metrics(t: Tracer, spec: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sample (see bench/README.md)."""

    def per_call_us(name):
        return t.total[name] / t.calls[name] * 1e6 if t.calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    in_paths = {"paths.classify_traceroute", "paths.extract_as_path", "paths.classify_locality"}
    address_calls = t.calls_under("paths.is_public_address", in_paths) + t.calls_under("lpm.lookup", in_paths)
    return {
        "ingest.parse_traceroute_results.s": t.total["ingest.parse_traceroute_results"],
        "ingest.parse_traceroute_results.us_per_record": 1e6
        * ratio(t.total["ingest.parse_traceroute_results"], t.counters["ingest.parse_traceroute_results.records"]),
        "ingest.parse_prefix_table.s": t.total["ingest.parse_prefix_table"],
        "ingest.parse_geo_table.s": t.total["ingest.parse_geo_table"],
        "ingest.parse_probe_inventory.s": t.total["ingest.parse_probe_inventory"],
        "ingest.records": t.counters["ingest.records"],
        "lpm.add.calls": t.calls["lpm.add"],
        "lpm.lookup.calls": t.calls["lpm.lookup"],
        "lpm.lookup.us": per_call_us("lpm.lookup"),
        "lpm.lookup.hit_ratio": ratio(t.counters["lpm.lookup.hits"], t.calls["lpm.lookup"]),
        "paths.classify_traceroute.calls": t.calls["paths.classify_traceroute"],
        "paths.classify_traceroute.us": per_call_us("paths.classify_traceroute"),
        "paths.extract_as_path.us": per_call_us("paths.extract_as_path"),
        "paths.classify_locality.us": per_call_us("paths.classify_locality"),
        "paths.is_public_address.calls": t.calls["paths.is_public_address"],
        "paths.address_parses_per_hop": ratio(address_calls, spec["matched_hops"]),
        "selection.select_probes.s": t.total["selection.select_probes"],
        "coverage.select_dominant_networks.s": t.total["coverage.select_dominant_networks"],
        "coverage.compute_probe_coverage.s": t.total["coverage.compute_probe_coverage"],
        "pipeline.load_workspace.s": t.total["pipeline.load_workspace"],
        "pipeline.in_country_probes.calls": t.calls["pipeline.in_country_probes"],
        "pipeline.in_country_probes.s": t.total["pipeline.in_country_probes"],
        "pipeline.probe_geo_lookups": t.calls_under("lpm.lookup", {"pipeline.in_country_probes"}),
        "pipeline.gather_evidence.s": t.total["pipeline.gather_evidence"],
        "pipeline.gather_evidence.self_s": t.self_time["pipeline.gather_evidence"],
        "pipeline.traceroutes_scanned": t.counters["pipeline.traceroutes_scanned"],
        "pipeline.match_ratio": ratio(t.counters["pipeline.matched"], t.counters["pipeline.traceroutes_scanned"]),
        "pipeline.warnings": t.counters["pipeline.warnings"],
        "pipeline.build_plan.s": t.total["pipeline.build_plan"],
        "pipeline.write.s": sum(
            t.total[f"pipeline.write_{kind}_outputs"] for kind in ("coverage", "plan", "analysis")
        ),
        "matrix.build_matrix.s": t.total["matrix.build_matrix"],
        "matrix.compute_metrics.s": t.total["matrix.compute_metrics"],
        "matrix.format_matrix.s": t.total["matrix.format_matrix"],
        "matrix.load_matrix.s": t.total["matrix.load_matrix"],
        "render.render_svg.s": t.total["render.render_svg"],
        "cli.log_warning.s": t.total["logging.warning"],
    }


def run_sample(cli, work: Path, spec: dict, traced: bool) -> dict:
    shutil.rmtree(work / "out", ignore_errors=True)
    read_end, write_end = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_end)
            payload = _child(cli, work, spec, traced)
        except BaseException:
            code = 1
            payload = {"problems": [f"sample raised: {traceback.format_exc()}"]}
        try:
            with os.fdopen(write_end, "w", encoding="utf-8") as pipe:
                json.dump(payload, pipe)
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "r", encoding="utf-8") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    sample = json.loads(data) if data else {"problems": []}
    if os.waitstatus_to_exitcode(status) != 0:
        sample["problems"].append(f"sample process exited with status {os.waitstatus_to_exitcode(status)}")
    return sample


def run(work: Path, seconds: float, trace: bool) -> dict:
    spec = json.loads((work / "spec.json").read_text("utf-8"))
    cli = import_program()
    if trace:
        check_hooks()
    samples = []
    reference = None
    deadline = time.perf_counter() + seconds
    # at least one untraced (and with trace, one traced) sample
    while time.perf_counter() < deadline or len(samples) < (2 if trace else 1):
        traced = trace and len(samples) % 2 == 1
        sample = run_sample(cli, work, spec, traced)
        if "digest" in sample:
            reference = reference or sample["digest"]
            if sample["digest"] != reference:
                sample["problems"].append("artifacts differ from the first run's")
        samples.append(sample)
        if sample.get("never_called"):
            # the program stopped reaching a hooked function: its metrics would read 0
            raise SystemExit(f"error: hooked functions never called: {', '.join(sample['never_called'])}")
    return {"samples": samples}


def main(argv: list[str]) -> int:
    work, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    result = run(work, seconds, trace)
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
