"""Command-line behavior: happy paths, exit codes, overrides."""

import errno
import json
import logging
import math
from pathlib import Path

import pytest
import requests

from eyeball_jedi import pipeline
from eyeball_jedi.cli import EXIT_INPUT, EXIT_NO_DATA, EXIT_OK, main
from eyeball_jedi.fetch import HttpClient
from eyeball_jedi.ingest import (
    parse_probe_inventory,
    parse_traceroute_results,
    probe_from_dict,
    traceroute_from_dict,
)
from eyeball_jedi.model import EyeballNetwork, EyeballSet, GeoPoint, Probe
from eyeball_jedi.selection import ProbeSelection
from test_fetch import BASE, FakeSession, FreeLimiter, probe_obj, traceroute_obj

CAPITAL = GeoPoint(50.0, 8.0)


def make_probe(probe_id, asn, address):
    return Probe(
        id=probe_id,
        asn_v4=asn,
        location=CAPITAL,
        public_address_v4=address,
    )


def make_set(fraction_by_asn):
    nets = [
        EyeballNetwork.build(asn, f, 10_000_000)
        for asn, f in fraction_by_asn.items()
    ]
    return EyeballSet.from_networks("XX", 10_000_000, CAPITAL, nets)


def make_selection(probes_by_asn):
    return ProbeSelection(per_asn=probes_by_asn)


class TestBuildPlan:
    def test_two_networks_two_probes_each(self):
        es = make_set({65001: 0.6, 65002: 0.4})
        sel = make_selection(
            {
                65001: (make_probe(1, 65001, "20.1.0.1"), make_probe(2, 65001, "20.1.0.2")),
                65002: (make_probe(3, 65002, "20.2.0.1"), make_probe(4, 65002, "20.2.0.2")),
            }
        )
        tasks = pipeline.build_plan(es, sel)
        # self pairs give 2 tasks each, cross pairs 4 each
        assert len(tasks) == 12

    def test_single_probe_network_has_no_self_tasks(self):
        es = make_set({65001: 1.0})
        probe = make_probe(1, 65001, "20.1.0.1")
        tasks = pipeline.build_plan(es, make_selection({65001: (probe, probe)}))
        assert tasks == []

    def test_fixture_shape_gives_twenty_tasks(self):
        es = make_set({65001: 0.4, 65002: 0.25, 65003: 0.2})
        p = {
            65001: (make_probe(101, 65001, "20.1.0.1"), make_probe(102, 65001, "20.1.0.2")),
            65002: (make_probe(201, 65002, "20.2.0.1"), make_probe(202, 65002, "20.2.0.2")),
            65003: (make_probe(301, 65003, "20.3.0.1"), make_probe(301, 65003, "20.3.0.1")),
        }
        tasks = pipeline.build_plan(es, make_selection(p))
        assert len(tasks) == 20

    def test_task_dict_uses_camel_case_keys(self):
        es = make_set({65001: 0.6, 65002: 0.4})
        sel = make_selection(
            {
                65001: (make_probe(1, 65001, "20.1.0.1"), make_probe(1, 65001, "20.1.0.1")),
                65002: (make_probe(3, 65002, "20.2.0.1"), make_probe(3, 65002, "20.2.0.1")),
            }
        )
        task = pipeline.build_plan(es, sel)[0].to_dict()
        assert set(task) == {"srcAsn", "dstAsn", "srcProbe", "dstProbe", "dstAddress"}

    def test_targets_carry_destination_probe_address(self):
        es = make_set({65001: 0.6, 65002: 0.4})
        sel = make_selection(
            {
                65001: (make_probe(1, 65001, "20.1.0.1"), make_probe(1, 65001, "20.1.0.1")),
                65002: (make_probe(3, 65002, "20.2.0.9"), make_probe(3, 65002, "20.2.0.9")),
            }
        )
        tasks = pipeline.build_plan(es, sel)
        cross = [t for t in tasks if t.src_asn == 65001 and t.dst_asn == 65002]
        assert cross and all(t.dst_address == "20.2.0.9" for t in cross)


def write_conf(tmp_path, fixtures_dir, out_dir, **overrides):
    entries = {
        "population": fixtures_dir / "population.csv",
        "country_users": fixtures_dir / "country_users.csv",
        "capitals": fixtures_dir / "capitals.csv",
        "probes": fixtures_dir / "probes.json",
        "traceroutes": fixtures_dir / "traceroutes.ndjson",
        "prefix2as": fixtures_dir / "prefix2as.csv",
        "geo": fixtures_dir / "geo.csv",
        "out_dir": out_dir,
    }
    entries.update(overrides)
    text = "\n".join(f"{k} = {v}" for k, v in entries.items() if v is not None) + "\n"
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def out_dir(tmp_path):
    return tmp_path / "out"


@pytest.fixture
def conf(tmp_path, fixtures_dir, out_dir):
    return write_conf(tmp_path, fixtures_dir, out_dir)


class TestCoverageCommand:
    def test_writes_reports(self, conf, out_dir, capsys):
        assert main(["coverage", "--config", str(conf), "--all"]) == EXIT_OK
        assert (out_dir / "coverage_XX.json").is_file()
        assert (out_dir / "coverage_world.csv").is_file()
        assert "coverage: 1 countries" in capsys.readouterr().out

    def test_floor_override_shrinks_the_set(self, conf, out_dir):
        assert main(["coverage", "--config", str(conf), "--country", "XX", "--floor", "0.15"]) == EXIT_OK
        payload = json.loads((out_dir / "coverage_XX.json").read_text())
        assert [n["asn"] for n in payload["networks"]] == [65001, 65002, 65003]

    def test_cap_override_shrinks_the_set(self, conf, out_dir):
        assert main(["coverage", "--config", str(conf), "--country", "XX", "--cap", "0.66"]) == EXIT_OK
        payload = json.loads((out_dir / "coverage_XX.json").read_text())
        # 0.40 + 0.25 < cap, so 0.20 still enters as the cap crosser
        assert [n["asn"] for n in payload["networks"]] == [65001, 65002, 65003]

    def test_default_set_has_four_networks(self, conf, out_dir):
        assert main(["coverage", "--config", str(conf), "--country", "XX"]) == EXIT_OK
        payload = json.loads((out_dir / "coverage_XX.json").read_text())
        assert len(payload["networks"]) == 4


class TestPlanCommand:
    def test_writes_plan_and_selection(self, conf, out_dir, capsys):
        assert main(["plan", "--config", str(conf), "--country", "XX"]) == EXIT_OK
        plan = json.loads((out_dir / "plan_XX.json").read_text())
        assert plan["country"] == "XX"
        assert len(plan["tasks"]) == 20
        probes = json.loads((out_dir / "probes_XX.json").read_text())
        assert [e["asn"] for e in probes] == [65001, 65002, 65003]
        assert "plan: XX 20 tasks" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_full_run(self, conf, out_dir, capsys, caplog):
        with caplog.at_level(logging.WARNING):
            code = main(["analyze", "--config", str(conf), "--country", "XX"])
        assert code == EXIT_OK
        for name in ("matrix_XX.json", "metrics_XX.csv", "report_XX.txt", "run_XX.json", "probes_XX.json"):
            assert (out_dir / name).is_file(), name
        assert "analyze: XX 20 traceroutes matched" in capsys.readouterr().out
        sidecar = json.loads((out_dir / "run_XX.json").read_text())
        assert sidecar["country"] == "XX"
        assert sidecar["matchedTraceroutes"] == 20
        assert len(sidecar["warnings"]) == 5
        assert "generatedAt" in sidecar
        assert any("not an IPv4 run" in r.message for r in caplog.records)

    def test_zero_matches_exit_three(self, tmp_path, fixtures_dir, out_dir, capsys):
        lonely = tmp_path / "noise.ndjson"
        run = {
            "src_probe": 101,
            "dst_probe": 201,
            "src_asn": 65001,
            "dst_asn": 65002,
            "dst_addr": "20.2.0.9",
            "af": 6,
            "timestamp": 1700000000,
            "hops": [{"hop": 1, "results": [{"from": "20.2.0.9", "rtt": 3.0}]}],
        }
        lonely.write_text(json.dumps(run) + "\n", encoding="utf-8")
        conf = write_conf(tmp_path, fixtures_dir, out_dir, traceroutes=lonely)
        assert main(["analyze", "--config", str(conf), "--country", "XX"]) == EXIT_NO_DATA
        assert "no traceroutes matched" in capsys.readouterr().err


    def test_hopless_run_on_selected_pair_is_skipped(self, tmp_path, fixtures_dir, out_dir, capsys):
        lines = (fixtures_dir / "traceroutes.ndjson").read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        first["hops"] = []
        lines[0] = json.dumps(first)
        traceroutes = tmp_path / "traceroutes.ndjson"
        traceroutes.write_text("\n".join(lines) + "\n", encoding="utf-8")
        conf = write_conf(tmp_path, fixtures_dir, out_dir, traceroutes=traceroutes)
        assert main(["analyze", "--config", str(conf), "--country", "XX"]) == EXIT_OK
        assert "analyze: XX 19 traceroutes matched" in capsys.readouterr().out
        sidecar = json.loads((out_dir / "run_XX.json").read_text())
        assert sidecar["matchedTraceroutes"] == 19
        assert "101>102@1700000101: skipped, no hops" in sidecar["warnings"]


class TestRenderCommand:
    def test_renders_existing_matrix(self, conf, out_dir, golden_dir, capsys):
        out_dir.mkdir(parents=True)
        matrix_path = out_dir / "matrix_XX.json"
        matrix_path.write_bytes((golden_dir / "matrix_XX.json").read_bytes())
        assert main(["render", "--config", str(conf), "--country", "XX"]) == EXIT_OK
        svg = (out_dir / "matrix_XX.svg").read_text()
        assert svg.startswith('<?xml version="1.0"')
        assert "render:" in capsys.readouterr().out

    def test_all_scans_output_directory(self, conf, out_dir, golden_dir):
        out_dir.mkdir(parents=True)
        (out_dir / "matrix_XX.json").write_bytes((golden_dir / "matrix_XX.json").read_bytes())
        assert main(["render", "--config", str(conf), "--all"]) == EXIT_OK
        assert (out_dir / "matrix_XX.svg").is_file()

    def test_missing_matrix_is_an_input_error(self, conf, out_dir, capsys):
        assert main(["render", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert "matrix_XX.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"country": "XX", "cells": [', '{"country": "XX"}'])
    def test_corrupt_matrix_is_an_input_error(self, conf, out_dir, capsys, text):
        out_dir.mkdir(parents=True)
        (out_dir / "matrix_XX.json").write_text(text, encoding="utf-8")
        assert main(["render", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert "matrix_XX.json" in capsys.readouterr().err
        assert not (out_dir / "matrix_XX.svg").exists()

    def test_all_with_empty_directory(self, conf, out_dir, capsys):
        out_dir.mkdir(parents=True)
        assert main(["render", "--config", str(conf), "--all"]) == EXIT_INPUT
        assert "no matrix_" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"asn": 65001,', '"asn": 65001.5,'),
            ('"asn": 65001,', '"asn": "65001",'),
            ('"country_users": 10000000,', '"country_users": 1000.7,'),
            ('"estimated_users": 4000000', '"estimated_users": 1.9'),
            ('"src_asn": 65001,', '"src_asn": "65001",'),
            ('"area_weight": 0.16000000000000003,', '"area_weight": "0.16000000000000003",'),
            ('"country_users": 10000000,', '"country_users": 1e400,'),
            ('"latitude": 50.0,', '"latitude": true,'),
            (',\n      "evidence": []', ""),
        ],
        ids=[
            "float-asn",
            "string-asn",
            "float-country-users",
            "float-estimated-users",
            "string-src-asn",
            "string-area-weight",
            "overflowing-country-users",
            "bool-latitude",
            "missing-evidence",
        ],
    )
    def test_mistyped_matrix_value_exits_two(self, conf, out_dir, golden_dir, capsys, old, new):
        text = (golden_dir / "matrix_XX.json").read_text(encoding="utf-8")
        assert old in text
        out_dir.mkdir(parents=True)
        (out_dir / "matrix_XX.json").write_text(text.replace(old, new, 1), encoding="utf-8")
        assert main(["render", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {out_dir / 'matrix_XX.json'}: ")
        assert not (out_dir / "matrix_XX.svg").exists()

    def test_repeated_cell_exits_two(self, conf, out_dir, golden_dir, capsys):
        doc = json.loads((golden_dir / "matrix_XX.json").read_text(encoding="utf-8"))
        doc["cells"].append(doc["cells"][0])
        out_dir.mkdir(parents=True)
        (out_dir / "matrix_XX.json").write_text(json.dumps(doc), encoding="utf-8")
        assert main(["render", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert "repeated" in capsys.readouterr().err


class TestFetchCommand:
    def test_requires_base_url(self, conf, capsys):
        assert main(["fetch", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert "http_base_url" in capsys.readouterr().err

    def test_fetch_writes_files(self, tmp_path, fixtures_dir, out_dir, monkeypatch, capsys):
        probes_path = tmp_path / "fetched" / "probes.json"
        traces_path = tmp_path / "fetched" / "traces.ndjson"
        conf = write_conf(
            tmp_path,
            fixtures_dir,
            out_dir,
            probes=probes_path,
            traceroutes=traces_path,
            http_base_url="https://atlas.example.net/api",
            credential_env="ATLAS_TEST_KEY",
            measurement_ids="11,22",
        )
        monkeypatch.setenv("ATLAS_TEST_KEY", "k3y")
        seen = {}

        class StubClient:
            def __init__(self, rate_limit, api_key):
                seen["rate_limit"] = rate_limit
                seen["api_key"] = api_key

        def fake_inventory(base_url, country, client):
            seen["inventory"] = (base_url, country)
            return [probe_obj(7)]

        def fake_results(base_url, measurement_ids, client):
            seen["measurements"] = tuple(measurement_ids)
            return [], [RuntimeError("boom")]

        monkeypatch.setattr("eyeball_jedi.cli.HttpClient", StubClient)
        monkeypatch.setattr("eyeball_jedi.cli.fetch_probe_inventory", fake_inventory)
        monkeypatch.setattr("eyeball_jedi.cli.fetch_measurement_results", fake_results)

        assert main(["fetch", "--config", str(conf), "--country", "XX"]) == EXIT_OK
        assert seen["api_key"] == "k3y"
        assert seen["rate_limit"] == 4.0
        assert seen["inventory"] == ("https://atlas.example.net/api", "XX")
        assert seen["measurements"] == (11, 22)
        assert json.loads(probes_path.read_text())[0]["id"] == 7
        assert traces_path.read_text() == ""
        out = capsys.readouterr().out
        assert "fetch: 1 probes" in out
        assert "fetch: 0 traceroutes" in out

    def test_written_files_parse_to_what_the_server_sent(self, fetch_conf, monkeypatch):
        probes = [probe_obj(1), {**probe_obj(2), "asn_v6": 65020, "latitude": None}]
        runs = [traceroute_obj(timestamp=1700000001), traceroute_obj(timestamp=1700000002)]
        serve(monkeypatch, {
            f"{BASE}/probes?country=XX": {"results": probes, "next": None},
            f"{BASE}/measurements/11/results": runs[:1],
            f"{BASE}/measurements/22/results": runs[1:],
        })
        conf, probes_path, traces_path = fetch_conf(measurement_ids="11,22")
        assert main(["fetch", "--config", str(conf), "--country", "XX"]) == EXIT_OK
        assert json.loads(probes_path.read_text(encoding="utf-8")) == probes
        assert parse_probe_inventory(probes_path.read_bytes()) == [probe_from_dict(probes[0])]
        lines = traces_path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == runs
        assert parse_traceroute_results(traces_path.read_bytes()) == [traceroute_from_dict(r) for r in runs]

    @pytest.mark.parametrize(
        "bad",
        [{**probe_obj(2), "asn_v4": "abc"}, 5, {**probe_obj(1), "is_public": False}],
        ids=["bad-asn", "not-an-object", "repeated-id"],
    )
    def test_bad_server_object_exits_two(self, fetch_conf, monkeypatch, capsys, bad):
        serve(monkeypatch, {f"{BASE}/probes?country=XX": {"results": [probe_obj(1), bad], "next": None}})
        conf, probes_path, _ = fetch_conf()
        probes_path.parent.mkdir(parents=True)
        probes_path.write_text("previous\n", encoding="utf-8")
        assert main(["fetch", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")
        assert probes_path.read_text(encoding="utf-8") == "previous\n"

    def test_missing_traceroutes_path_fails_before_any_request(self, fetch_conf, monkeypatch, capsys):
        session = serve(monkeypatch, {f"{BASE}/probes?country=XX": {"results": [probe_obj(1)], "next": None}})
        conf, probes_path, _ = fetch_conf(measurement_ids="11", traceroutes=None)
        probes_path.parent.mkdir(parents=True)
        probes_path.write_bytes(b"[]\n")
        assert main(["fetch", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert "traceroutes path" in capsys.readouterr().err
        assert probes_path.read_bytes() == b"[]\n"
        assert session.requests == []

    @pytest.mark.parametrize("slow_url", [f"{BASE}/probes?country=XX", f"{BASE}/measurements/11/results"])
    def test_timeout_exits_two_and_writes_nothing(self, fetch_conf, monkeypatch, capsys, slow_url):
        session = serve(monkeypatch, {
            f"{BASE}/probes?country=XX": {"results": [probe_obj(1)], "next": None},
            f"{BASE}/measurements/11/results": [traceroute_obj()],
        })
        answer = session.get

        def get(url, headers=None, timeout=None):
            if url == slow_url:
                raise requests.exceptions.Timeout(f"read timed out after {timeout} s")
            return answer(url, headers=headers, timeout=timeout)

        session.get = get
        conf, probes_path, _ = fetch_conf(measurement_ids="11")
        assert main(["fetch", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert "timed out" in capsys.readouterr().err
        assert not probes_path.parent.exists()

    def test_no_file_is_written_before_both_fetches_return(self, fetch_conf, monkeypatch):
        serve(monkeypatch, {
            f"{BASE}/probes?country=XX": {"results": [probe_obj(1)], "next": None},
            f"{BASE}/measurements/11/results": [traceroute_obj()],
        })

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("eyeball_jedi.cli.fetch_measurement_results", interrupted)
        conf, probes_path, _ = fetch_conf(measurement_ids="11")
        with pytest.raises(KeyboardInterrupt):
            main(["fetch", "--config", str(conf), "--country", "XX"])
        assert not probes_path.parent.exists()


def serve(monkeypatch, routes):
    """Point fetch at a fake server answering routes; returns its session."""
    session = FakeSession(routes)
    monkeypatch.setattr(
        "eyeball_jedi.cli.HttpClient",
        lambda rate_limit, api_key: HttpClient(session=session, limiter=FreeLimiter()),
    )
    return session


@pytest.fixture
def fetch_conf(tmp_path, fixtures_dir, out_dir):
    """Builds a fetch config writing under tmp_path/fetched; returns (conf, probes, traces)."""
    probes_path = tmp_path / "fetched" / "probes.json"
    traces_path = tmp_path / "fetched" / "traces.ndjson"

    def build(**overrides):
        entries = {"probes": probes_path, "traceroutes": traces_path, "http_base_url": BASE}
        conf = write_conf(tmp_path, fixtures_dir, out_dir, **{**entries, **overrides})
        return conf, probes_path, traces_path

    return build


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["coverage", "--config", str(tmp_path / "nope.conf"), "--all"]) == EXIT_INPUT
        assert "config file not found" in capsys.readouterr().err

    def test_unknown_country(self, conf, capsys):
        assert main(["coverage", "--config", str(conf), "--country", "ZZ"]) == EXIT_INPUT
        assert "unknown country 'ZZ'" in capsys.readouterr().err

    def test_missing_required_input(self, tmp_path, fixtures_dir, out_dir, capsys):
        conf = write_conf(tmp_path, fixtures_dir, out_dir, traceroutes=None)
        assert main(["analyze", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert "traceroutes" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["coverage", "plan", "analyze"])
    def test_population_over_100_percent(self, tmp_path, fixtures_dir, out_dir, capsys, command):
        population = tmp_path / "population.csv"
        text = (fixtures_dir / "population.csv").read_text(encoding="utf-8")
        population.write_text(text.replace("XX,65001,40.0", "XX,65001,99.0"), encoding="utf-8")
        conf = write_conf(tmp_path, fixtures_dir, out_dir, population=population)
        assert main([command, "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "XX" in err and "100%" in err

    @pytest.mark.parametrize(
        "command, name",
        [
            ("coverage", "population"),
            ("plan", "population"),
            ("analyze", "population"),
            ("analyze", "traceroutes"),
        ],
    )
    def test_non_utf8_input(self, tmp_path, fixtures_dir, out_dir, capsys, command, name):
        source = fixtures_dir / ("population.csv" if name == "population" else "traceroutes.ndjson")
        broken = tmp_path / source.name
        broken.write_bytes(source.read_bytes() + b"\xff")
        conf = write_conf(tmp_path, fixtures_dir, out_dir, **{name: broken})
        assert main([command, "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert f"not UTF-8: byte offset {source.stat().st_size}" in capsys.readouterr().err

    def test_non_utf8_input_names_the_file(self, tmp_path, fixtures_dir, out_dir, capsys):
        broken = tmp_path / "population.csv"
        broken.write_bytes((fixtures_dir / "population.csv").read_bytes() + b"\xff")
        conf = write_conf(tmp_path, fixtures_dir, out_dir, population=broken)
        assert main(["coverage", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert f"error: population input {broken}: not UTF-8: byte offset" in capsys.readouterr().err

    def test_bad_prefix_row_names_the_file(self, tmp_path, fixtures_dir, out_dir, capsys):
        text = (fixtures_dir / "prefix2as.csv").read_text(encoding="utf-8")
        broken = tmp_path / "prefix2as.csv"
        broken.write_text(text + "20.9.0.0/33,65009\n", encoding="utf-8")
        conf = write_conf(tmp_path, fixtures_dir, out_dir, prefix2as=broken)
        assert main(["analyze", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        bad_line = text.count("\n") + 1
        assert f"error: prefix2as input {broken}: line {bad_line}: " in capsys.readouterr().err

    def test_infinite_number_in_a_run_exits_two(self, tmp_path, fixtures_dir, out_dir, capsys):
        text = (fixtures_dir / "traceroutes.ndjson").read_text(encoding="utf-8")
        first = text.splitlines()[0]
        broken = tmp_path / "traceroutes.ndjson"
        broken.write_text(text + json.dumps({**json.loads(first), "timestamp": math.inf}) + "\n", encoding="utf-8")
        conf = write_conf(tmp_path, fixtures_dir, out_dir, traceroutes=broken)
        assert main(["analyze", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        bad_line = text.count("\n") + 1
        assert f"error: traceroutes input {broken}: line {bad_line}: " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["probes", "traceroutes", "matrix"])
    def test_too_deep_json_exits_two(self, tmp_path, fixtures_dir, out_dir, capsys, name):
        deep = "[" * 5000 + "]" * 5000
        broken = tmp_path / "broken.json"
        overrides = {}
        if name == "probes":
            broken.write_text(deep, encoding="utf-8")
            overrides["probes"] = broken
            command, where = "coverage", f"probes input {broken}: nested too deeply"
        elif name == "traceroutes":
            text = (fixtures_dir / "traceroutes.ndjson").read_text(encoding="utf-8")
            broken.write_text(text + deep + "\n", encoding="utf-8")
            overrides["traceroutes"] = broken
            line = text.count("\n") + 1
            command, where = "analyze", f"traceroutes input {broken}: line {line}: nested too deeply"
        else:
            out_dir.mkdir(parents=True)
            (out_dir / "matrix_XX.json").write_text(deep, encoding="utf-8")
            command, where = "render", f"{out_dir / 'matrix_XX.json'}: nested too deeply"
        conf = write_conf(tmp_path, fixtures_dir, out_dir, **overrides)
        assert main([command, "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {where}\n"
        assert not out_dir.exists() or [p.name for p in out_dir.iterdir()] in ([], ["matrix_XX.json"])

    def test_bad_cap_override(self, conf, capsys):
        assert main(["coverage", "--config", str(conf), "--all", "--cap", "1.5"]) == EXIT_INPUT
        assert "cumulative_cap" in capsys.readouterr().err

    def test_country_and_all_conflict(self, conf):
        with pytest.raises(SystemExit) as exc_info:
            main(["coverage", "--config", str(conf), "--country", "XX", "--all"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize(
        "command, flag",
        [("render", "--cap"), ("render", "--floor"), ("fetch", "--cap"), ("fetch", "--out")],
    )
    def test_flag_the_command_does_not_read_is_a_usage_error(self, conf, command, flag):
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--config", str(conf), "--all", flag, "0.5"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("command", ["coverage", "plan", "analyze"])
    @pytest.mark.parametrize("geo", [None, "geo_typo.csv"])
    def test_geo_is_required(self, tmp_path, fixtures_dir, out_dir, capsys, command, geo):
        conf = write_conf(tmp_path, fixtures_dir, out_dir, geo=geo and fixtures_dir / geo)
        assert main([command, "--config", str(conf), "--all"]) == EXIT_INPUT
        assert "input 'geo'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_country_flag_is_case_insensitive(self, conf, out_dir):
        assert main(["coverage", "--config", str(conf), "--country", "xx"]) == EXIT_OK
        assert (out_dir / "coverage_XX.json").is_file()


class _HalfWriter:
    """A file that takes half of what it is given, then fails as a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def fill_disk(monkeypatch):
    """From now on every file opened for writing fails halfway."""
    real_open = Path.open

    def open_(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return _HalfWriter(fh) if "w" in mode else fh

    monkeypatch.setattr(Path, "open", open_)


class TestInterruptedWrites:
    def test_no_truncated_artifact_is_left(self, conf, out_dir, monkeypatch, capsys):
        fill_disk(monkeypatch)
        assert main(["plan", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert "No space left on device" in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_previous_artifacts_survive(self, conf, out_dir, monkeypatch):
        assert main(["plan", "--config", str(conf), "--country", "XX"]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        fill_disk(monkeypatch)
        assert main(["plan", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_previous_svg_survives_render(self, conf, out_dir, golden_dir, monkeypatch, capsys):
        out_dir.mkdir(parents=True)
        (out_dir / "matrix_XX.json").write_bytes((golden_dir / "matrix_XX.json").read_bytes())
        assert main(["render", "--config", str(conf), "--country", "XX"]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        fill_disk(monkeypatch)
        assert main(["render", "--config", str(conf), "--country", "XX"]) == EXIT_INPUT
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
