"""Tests of the benchmark itself: seeded inputs, output checks, smoke runs.

Run with: python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from check import check_outputs  # noqa: E402
from tracer import Hook, HookMissing, resolve  # noqa: E402
from world import WorldParams, generate  # noqa: E402

SMALL = WorldParams(
    countries=3,
    networks=5,
    probes_per_as=(2, 3, 1),
    uncovered=1,
    runs_per_task=1.5,
    hops=(3, 9),
    router_pool=6,
    prefix_rows=400,
)
ANALYZE = [["analyze", "--all"], ["plan", "--all"]]


def small(name: str) -> WorldParams:
    """The workload's shape at a size that runs in well under a second."""
    params = run.WORKLOADS[name].params
    return replace(
        params,
        countries=min(params.countries, 3),
        networks=min(params.networks, 5),
        runs_per_task=min(params.runs_per_task, 1.0),
        prefix_rows=400,
        noise_runs=2,
    )


def test_same_seed_same_bytes_and_other_seed_other_bytes():
    first, again, other = generate(SMALL, 7), generate(SMALL, 7), generate(SMALL, 8)
    assert first.files == again.files
    assert first.expected == again.expected
    assert set(first.files) == set(other.files)
    differing = [name for name in first.files if first.files[name] != other.files[name]]
    assert "traceroutes.ndjson" in differing and "prefix2as.csv" in differing


def test_world_has_the_requested_shape():
    world = generate(SMALL, 3)
    lengths = {line.split(",")[0].split("/")[1] for line in world.files["prefix2as.csv"].splitlines()[1:]}
    assert {"16", "24"} <= lengths
    assert any(":" in line for line in world.files["geo.csv"].splitlines())
    runs = [json.loads(line) for line in world.files["traceroutes.ndjson"].splitlines()]
    assert any(r["af"] == 6 for r in runs)
    assert sum(world.expected["matched"].values()) < len(runs)  # noise runs are present
    assert len(world.files["prefix2as.csv"].splitlines()) == SMALL.prefix_rows + 1


@pytest.fixture
def analyzed(tmp_path):
    """A small world analyzed and planned by the real CLI, with its stdout."""
    from eyeball_jedi import cli

    world = generate(SMALL, 5)
    world.write_to(tmp_path / "inputs")
    out = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        codes = [cli.main([*cmd, "--config", str(tmp_path / "inputs" / "run.conf"), "--out", str(out)]) for cmd in ANALYZE]
    return world.expected, out, stdout.getvalue(), codes


def test_outputs_of_the_program_match_the_design(analyzed):
    expected, out, stdout, codes = analyzed
    assert check_outputs(expected, ANALYZE, out, stdout, codes) == []


def test_a_flipped_matrix_cell_is_reported(analyzed):
    expected, out, stdout, codes = analyzed
    path = out / f"matrix_{expected['countries'][0]}.json"
    matrix = json.loads(path.read_text())
    cell = matrix["cells"][0]
    cell["locality"] = "out_of_country" if cell["locality"] != "out_of_country" else "in_country"
    path.write_text(json.dumps(matrix))
    problems = check_outputs(expected, ANALYZE, out, stdout, codes)
    assert len(problems) == 1 and path.name in problems[0]


def test_a_wrong_matched_count_is_reported(analyzed):
    expected, out, stdout, codes = analyzed
    cc = expected["countries"][-1]
    n = expected["matched"][cc]
    wrong = stdout.replace(f"analyze: {cc} {n} traceroutes", f"analyze: {cc} {n + 1} traceroutes")
    problems = check_outputs(expected, ANALYZE, out, wrong, codes)
    assert len(problems) == 1 and "matched traceroutes" in problems[0]


def test_a_wrong_plan_or_exit_code_is_reported(analyzed):
    expected, out, stdout, codes = analyzed
    cc = expected["countries"][0]
    path = out / f"plan_{cc}.json"
    plan = json.loads(path.read_text())
    plan["tasks"].pop()
    path.write_text(json.dumps(plan))
    problems = check_outputs(expected, ANALYZE, out, stdout, [0, 3])
    assert any("exited 3" in p for p in problems)
    assert any(path.name in p for p in problems)


def test_a_missing_hook_fails_loudly():
    with pytest.raises(HookMissing):
        resolve(Hook("eyeball_jedi.pipeline", "no_such_function"))
    with pytest.raises(HookMissing):
        resolve(Hook("eyeball_jedi.lpm", "LpmTable.no_such_method"))


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_small_world_smoke_run(name):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = run.run_workload(name, 990, 0.3, False, params=small(name))
    assert untraced["failed"] == 0, untraced["problems"]
    assert set(untraced["metrics"]) == {m["name"] for m in benchmark["end_to_end"]}
    assert all(value > 0 for value in untraced["metrics"].values())
    traced = run.run_workload(name, 990, 0.3, True, params=small(name))
    assert traced["failed"] == 0, traced["problems"]
    assert set(traced["metrics"]) == {m["name"] for m in benchmark["per_layer"]}
