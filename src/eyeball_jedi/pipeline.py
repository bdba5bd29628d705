"""Orchestration from parsed inputs to per-country output artifacts.

This module owns the glue: which probes count as in-country, which
ordered AS pairs become measurement tasks, which traceroutes are
admissible evidence for which cell, and the exact bytes of every
artifact written under the output directory. Every command loads the
inputs once and builds all countries' scopes before it writes anything;
commands in cli.py are short loops over those scopes.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .config import RunConfig
from .coverage import (
    CoverageReport,
    compute_probe_coverage,
    coverage_world_report,
    format_coverage_report,
    format_world_csv,
    select_dominant_networks,
)
from .errors import ConfigError, IngestError
from .ingest import (
    PopulationEstimateRow,
    parse_capitals,
    parse_country_users,
    parse_geo_table,
    parse_population_estimates,
    parse_prefix_table,
    parse_probe_inventory,
    parse_traceroute_results,
)
from .lpm import LpmTable
from .matrix import (
    build_matrix,
    compute_metrics,
    format_matrix,
    format_metrics_csv,
    summarize,
)
from .model import (
    EyeballMatrix,
    EyeballSet,
    GeoPoint,
    MetricsSummary,
    PathClassification,
    Probe,
    Traceroute,
)
from .paths import HopResolver, classify_traceroute
from .selection import ProbeSelection, format_selection, select_probes

log = logging.getLogger(__name__)


@dataclass
class Workspace:
    """Parsed inputs shared by every country in a run."""

    population: list[PopulationEstimateRow]
    users: dict[str, int]
    capitals: dict[str, GeoPoint]
    probes: list[Probe]
    prefix_table: LpmTable | None = None
    geo_table: LpmTable | None = None
    traceroutes: list[Traceroute] = field(default_factory=list)


def load_workspace(config: RunConfig, with_traceroutes: bool = False) -> Workspace:
    """Parse the inputs; traceroutes come with both tables they are read against."""
    config.require_inputs("population", "country_users", "capitals", "probes")
    ws = Workspace(
        population=_parse(config, "population", parse_population_estimates),
        users=_parse(config, "country_users", parse_country_users),
        capitals=_parse(config, "capitals", parse_capitals),
        probes=_parse(config, "probes", parse_probe_inventory),
    )
    if with_traceroutes:
        config.require_inputs("prefix2as", "geo", "traceroutes")
        ws.prefix_table = _parse(config, "prefix2as", parse_prefix_table)
        ws.geo_table = _parse(config, "geo", parse_geo_table)
        ws.traceroutes = _parse(config, "traceroutes", parse_traceroute_results)
    elif config.geo is not None and config.geo.is_file():
        # Optional for coverage/plan: used to keep only in-country probes.
        ws.geo_table = _parse(config, "geo", parse_geo_table)
    return ws


def _parse(config: RunConfig, key: str, parser):
    """Parse the input under a config key; a parse error names the key and the file."""
    path = getattr(config, key)
    try:
        return parser(path.read_bytes())
    except IngestError as exc:
        exc.args = (f"{key} input {path}: {exc}",)
        raise


def in_country_probes(ws: Workspace, countries: list[str]) -> dict[str, list[Probe]]:
    """The probes located in each of the countries.

    Each probe's public address is geolocated once when a geo table is
    loaded. Without one, AS membership is the only signal we have, so
    every probe goes to every country and the per-AS filters downstream do
    the rest.
    """
    if ws.geo_table is None:
        return {country: ws.probes for country in countries}
    located: dict[str, list[Probe]] = {country: [] for country in countries}
    for probe in ws.probes:
        country = ws.geo_table.lookup(probe.public_address_v4)
        if country in located:
            located[country].append(probe)
    return located


@dataclass(frozen=True)
class CountryScope:
    """A country's networks and probes: what every command starts from."""

    country: str
    eyeball_set: EyeballSet
    coverage: CoverageReport
    selection: ProbeSelection


def build_scopes(config: RunConfig, ws: Workspace) -> list[CountryScope]:
    """The scope of the configured country, or of every country in the inputs.

    All scopes are built before anything is written, so an unknown country
    or population shares over 100% in any country fail the whole run.
    """
    rows: dict[str, list[PopulationEstimateRow]] = {}
    for row in ws.population:
        rows.setdefault(row.country, []).append(row)
    countries = sorted(rows.keys() & ws.users.keys() & ws.capitals.keys())
    if config.country is not None:
        if config.country not in countries:
            raise ConfigError(
                f"unknown country {config.country!r}: not present in population, "
                "user-count and capital inputs"
            )
        countries = [config.country]
    probes = in_country_probes(ws, countries)
    scopes = []
    for country in countries:
        try:
            eyeball_set = select_dominant_networks(
                rows[country],
                ws.users[country],
                ws.capitals[country],
                cumulative_cap=config.cumulative_cap,
                per_as_floor=config.per_as_floor,
            )
        except ValueError as exc:
            raise IngestError(f"population input for {country}: {exc}") from exc
        coverage = compute_probe_coverage(eyeball_set, probes[country])
        selection = select_probes(eyeball_set, probes[country])
        scopes.append(CountryScope(country, eyeball_set, coverage, selection))
    return scopes


def runs_by_country(
    scopes: list[CountryScope], traceroutes: list[Traceroute]
) -> dict[str, list[Traceroute]]:
    """Hand each run, in file order, to the countries it concerns.

    A run concerns the countries whose eyeball sets hold its source or
    destination AS. A run that no set holds goes to every country, so
    each of them reports it as skipped.
    """
    owners: dict[int, list[str]] = {}
    for scope in scopes:
        for asn in scope.eyeball_set.asns:
            owners.setdefault(asn, []).append(scope.country)
    runs: dict[str, list[Traceroute]] = {scope.country: [] for scope in scopes}
    for tr in traceroutes:
        concerned = dict.fromkeys(owners.get(tr.src_asn, []) + owners.get(tr.dst_asn, []))
        for country in concerned or runs:
            runs[country].append(tr)
    return runs


@dataclass(frozen=True)
class PlanTask:
    src_asn: int
    dst_asn: int
    src_probe: int
    dst_probe: int
    dst_address: str

    def to_dict(self) -> dict:
        return {
            "srcAsn": self.src_asn,
            "dstAsn": self.dst_asn,
            "srcProbe": self.src_probe,
            "dstProbe": self.dst_probe,
            "dstAddress": self.dst_address,
        }


def build_plan(eyeball_set: EyeballSet, selection: ProbeSelection) -> list[PlanTask]:
    """Enumerate measurement tasks for every ordered covered pair.

    Each pair contributes up to four tasks (closest/farthest on both
    sides). Duplicate probe pairs collapse and a probe never targets
    itself, so single-probe networks yield no diagonal task.
    """
    covered = [n.asn for n in eyeball_set.networks if n.asn in selection.per_asn]
    tasks: list[PlanTask] = []
    for src_asn in covered:
        src_close, src_far = selection.per_asn[src_asn]
        src_probes = [src_close] if src_close.id == src_far.id else [src_close, src_far]
        for dst_asn in covered:
            dst_close, dst_far = selection.per_asn[dst_asn]
            dst_probes = [dst_close] if dst_close.id == dst_far.id else [dst_close, dst_far]
            seen: set[tuple[int, int]] = set()
            for src in src_probes:
                for dst in dst_probes:
                    if src.id == dst.id or (src.id, dst.id) in seen:
                        continue
                    seen.add((src.id, dst.id))
                    tasks.append(
                        PlanTask(src_asn, dst_asn, src.id, dst.id, dst.public_address_v4)
                    )
    return tasks


def format_plan(country: str, tasks: list[PlanTask]) -> str:
    payload = {"country": country, "tasks": [t.to_dict() for t in tasks]}
    return json.dumps(payload, indent=2) + "\n"


def gather_evidence(
    scope: CountryScope,
    traceroutes: list[Traceroute],
    prefix_table: LpmTable,
    geo_table: LpmTable,
) -> tuple[dict[tuple[int, int], list[tuple[str, PathClassification]]], list[str], int]:
    """Match traceroutes to the selection and classify each admissible one.

    Returns per-pair evidence sorted by measurement id, human-readable
    warnings for everything skipped, and the count of matched runs. Each
    distinct hop address is resolved once for the whole call.
    """
    resolver = HopResolver(prefix_table, geo_table)
    member_asns = scope.eyeball_set.asns
    selection = scope.selection
    evidence: dict[tuple[int, int], list[tuple[str, PathClassification]]] = {}
    warnings: list[str] = []
    matched = 0
    for tr in traceroutes:
        if tr.address_family != 4:
            warnings.append(f"{tr.measurement_id}: skipped, not an IPv4 run")
            continue
        pair = (tr.src_asn, tr.dst_asn)
        if tr.src_asn not in member_asns or tr.dst_asn not in member_asns:
            warnings.append(f"{tr.measurement_id}: AS pair {pair} outside the eyeball set")
            continue
        if tr.src_asn not in selection.per_asn or tr.dst_asn not in selection.per_asn:
            warnings.append(f"{tr.measurement_id}: AS pair {pair} has no probe coverage")
            continue
        if (
            tr.src_probe_id not in selection.probe_ids(tr.src_asn)
            or tr.dst_probe_id not in selection.probe_ids(tr.dst_asn)
        ):
            warnings.append(
                f"{tr.measurement_id}: probes {tr.src_probe_id}->{tr.dst_probe_id} "
                "are not the selected pair"
            )
            continue
        if not tr.hops:
            warnings.append(f"{tr.measurement_id}: skipped, no hops")
            continue
        cls = classify_traceroute(tr, resolver, scope.country)
        evidence.setdefault(pair, []).append((tr.measurement_id, cls))
        matched += 1
    for runs in evidence.values():
        runs.sort(key=lambda item: item[0])
    return evidence, warnings, matched


@dataclass
class CountryAnalysis:
    scope: CountryScope
    matrix: EyeballMatrix
    metrics: MetricsSummary
    report_text: str
    warnings: list[str]
    matched_traceroutes: int
    generated_at: float


def analyze_country(
    scope: CountryScope, traceroutes: list[Traceroute], ws: Workspace
) -> CountryAnalysis:
    evidence, warnings, matched = gather_evidence(
        scope, traceroutes, ws.prefix_table, ws.geo_table
    )
    matrix = build_matrix(scope.eyeball_set, scope.selection, evidence)
    metrics = compute_metrics(matrix)
    report_text = "\n".join(summarize(matrix, metrics)) + "\n"
    return CountryAnalysis(
        scope, matrix, metrics, report_text, warnings, matched, generated_at=time.time()
    )


def _write(path: Path, text: str) -> None:
    """Write through a temp file in the same directory, then rename it over path.

    An interrupted write leaves the previous artifact, or none, but never
    a truncated one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    log.info("wrote %s", path)


def write_coverage_outputs(out_dir: Path, reports: list[CoverageReport]) -> None:
    for report in reports:
        _write(out_dir / f"coverage_{report.eyeball_set.country}.json", format_coverage_report(report))
    _write(out_dir / "coverage_world.csv", format_world_csv(coverage_world_report(reports)))


def write_plan_outputs(out_dir: Path, scope: CountryScope, tasks: list[PlanTask]) -> None:
    cc = scope.country
    _write(out_dir / f"probes_{cc}.json", format_selection(scope.selection, scope.eyeball_set))
    _write(out_dir / f"plan_{cc}.json", format_plan(cc, tasks))


def write_analysis_outputs(out_dir: Path, result: CountryAnalysis) -> None:
    scope, cc = result.scope, result.scope.country
    _write(out_dir / f"probes_{cc}.json", format_selection(scope.selection, scope.eyeball_set))
    _write(out_dir / f"matrix_{cc}.json", format_matrix(result.matrix))
    _write(out_dir / f"metrics_{cc}.csv", format_metrics_csv(result.metrics))
    _write(out_dir / f"report_{cc}.txt", result.report_text)
    sidecar = {
        "country": cc,
        "generatedAt": result.generated_at,
        "matchedTraceroutes": result.matched_traceroutes,
        "warnings": result.warnings,
    }
    _write(out_dir / f"run_{cc}.json", json.dumps(sidecar, indent=2) + "\n")
