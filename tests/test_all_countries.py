"""Multi-country differential gate: an --all run against per-country runs.

Worlds come from topo.compose, which merges seeded single-country
topologies under distinct codes with disjoint ASNs, probe ids and address
blocks. Each country's artifacts in an --all run must equal those of a
--country run, its matrix cells must equal the topology's designed
verdicts, and the line order of the traceroute file must not matter.
golden_all/ pins the artifacts of one such world, as produced by the
single-country pipeline before --all shared its setup across countries.
"""

import json
import random

import pytest
import topo

from eyeball_jedi.cli import EXIT_INPUT, EXIT_OK, main

CODES = ("XA", "XB", "XC", "XD")
WORLDS = [(3001, 3007, 3013, 3020), (3031, 3042, 3053)]
GOLDEN_SEEDS = (3101, 3102, 3103, 3104)
PER_COUNTRY = ("matrix_{}.json", "metrics_{}.csv", "report_{}.txt", "probes_{}.json")
RUN_CONF = "".join(
    f"{key} = {name}\n"
    for key, name in [
        ("population", "population.csv"),
        ("country_users", "country_users.csv"),
        ("capitals", "capitals.csv"),
        ("probes", "probes.json"),
        ("traceroutes", "traceroutes.ndjson"),
        ("prefix2as", "prefix2as.csv"),
        ("geo", "geo.csv"),
    ]
)


def write_world(directory, world):
    directory.mkdir()
    world.write_to(directory)
    conf = directory / "run.conf"
    conf.write_text(RUN_CONF, encoding="utf-8")
    return conf


def run(command, conf, out, *scope):
    return main([command, "--config", str(conf), "--out", str(out), *scope])


def artifacts(out):
    """Every artifact except the run_<CC>.json sidecars, by file name."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.is_file() and not p.name.startswith("run_")
    }


def sidecar(out, cc):
    return json.loads((out / f"run_{cc}.json").read_text(encoding="utf-8"))


@pytest.fixture(params=WORLDS, ids=lambda seeds: f"{len(seeds)}-countries")
def world(request, tmp_path):
    composed = topo.compose(request.param, CODES[: len(request.param)])
    return composed, write_world(tmp_path / "world", composed)


def test_analyze_all_matches_each_country_run(world, tmp_path):
    composed, conf = world
    assert run("analyze", conf, tmp_path / "all", "--all") == EXIT_OK
    for cc in composed.topologies:
        assert run("analyze", conf, tmp_path / cc, "--country", cc) == EXIT_OK
        for pattern in PER_COUNTRY:
            name = pattern.format(cc)
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / cc / name).read_bytes(), name


def test_analyze_all_reproduces_designed_verdicts(world, tmp_path):
    composed, conf = world
    assert run("analyze", conf, tmp_path / "all", "--all") == EXIT_OK
    for cc, topology in composed.topologies.items():
        matrix = json.loads((tmp_path / "all" / f"matrix_{cc}.json").read_text(encoding="utf-8"))
        cells = {
            (c["src_asn"], c["dst_asn"]): (c["locality"], c["directness"])
            for c in matrix["cells"]
        }
        assert cells == topology.expected, cc


def test_all_sidecar_lists_only_its_own_runs(world, tmp_path):
    composed, conf = world
    assert run("analyze", conf, tmp_path / "all", "--all") == EXIT_OK
    for cc, topology in composed.topologies.items():
        assert run("analyze", conf, tmp_path / cc, "--country", cc) == EXIT_OK
        together, alone = sidecar(tmp_path / "all", cc), sidecar(tmp_path / cc, cc)
        assert together["matchedTraceroutes"] == alone["matchedTraceroutes"] == topology.matched_runs
        assert set(together["warnings"]) <= set(alone["warnings"])
        assert len(together["warnings"]) == topology.warning_count, cc


def test_run_outside_every_set_is_reported_by_every_country(world, tmp_path):
    composed, conf = world
    orphan = {
        "src_probe": 7, "dst_probe": 8, "src_asn": 64000, "dst_asn": 64001,
        "dst_addr": "60.0.0.1", "af": 4, "timestamp": 1600000000,
        "hops": [{"hop": 1, "results": [{"from": "60.0.0.1", "rtt": 1.0}]}],
    }
    with (conf.parent / "traceroutes.ndjson").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(orphan) + "\n")
    assert run("analyze", conf, tmp_path / "all", "--all") == EXIT_OK
    for cc in composed.topologies:
        assert "7>8@1600000000: AS pair (64000, 64001) outside the eyeball set" in sidecar(
            tmp_path / "all", cc
        )["warnings"]


@pytest.mark.parametrize("command", ["coverage", "plan"])
def test_coverage_and_plan_all_match_each_country_run(world, tmp_path, command):
    composed, conf = world
    assert run(command, conf, tmp_path / "all", "--all") == EXIT_OK
    together = artifacts(tmp_path / "all")
    world_rows = []
    for cc in composed.topologies:
        assert run(command, conf, tmp_path / cc, "--country", cc) == EXIT_OK
        alone = artifacts(tmp_path / cc)
        if command == "coverage":
            world_rows += alone.pop("coverage_world.csv").decode().splitlines()[1:]
        for name, data in alone.items():
            assert together[name] == data, name
    if command == "coverage":
        rows = together["coverage_world.csv"].decode().splitlines()[1:]
        assert rows == sorted(world_rows)


def test_traceroute_line_order_changes_no_artifact(world, tmp_path):
    composed, conf = world
    assert run("analyze", conf, tmp_path / "before", "--all") == EXIT_OK
    path = conf.parent / "traceroutes.ndjson"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(7).shuffle(lines)
    path.write_text("".join(lines), encoding="utf-8")
    assert run("analyze", conf, tmp_path / "after", "--all") == EXIT_OK
    assert artifacts(tmp_path / "after") == artifacts(tmp_path / "before")


@pytest.mark.parametrize("command", ["coverage", "plan", "analyze"])
def test_bad_country_fails_before_any_artifact(world, tmp_path, command, capsys):
    composed, conf = world
    second = sorted(composed.topologies)[1]
    population = conf.parent / "population.csv"
    lines = population.read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(f"{second},"))
    lines[row] = lines[row].rsplit(",", 1)[0] + ",99.0"
    population.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(command, conf, out, "--all") == EXIT_INPUT
    assert second in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_all_golden_artifacts(tmp_path, golden_dir):
    composed = topo.compose(GOLDEN_SEEDS, CODES)
    conf = write_world(tmp_path / "world", composed)
    out = tmp_path / "out"
    for command in ("coverage", "plan", "analyze", "render"):
        assert run(command, conf, out, "--all") == EXIT_OK, command
    assert artifacts(out) == artifacts(golden_dir.parent / "golden_all")
