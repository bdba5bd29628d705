"""Command-line entry point.

Each subcommand takes only the flags it reads:

  eyeball-jedi coverage --config run.conf --all [--out DIR] [--cap F] [--floor F]
  eyeball-jedi plan     --config run.conf --country DE [--out DIR] [--cap F] [--floor F]
  eyeball-jedi analyze  --config run.conf --country DE [--out DIR] [--cap F] [--floor F]
  eyeball-jedi render   --config run.conf --country DE [--out DIR]
  eyeball-jedi fetch    --config run.conf --country DE

Exit codes: 0 success, 2 bad configuration or unreadable/invalid inputs,
3 analyze matched zero traceroutes against the probe selection.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Sequence

from . import pipeline
from .config import RunConfig, apply_overrides, load_config
from .errors import ConfigError, EmptyInput, HttpError, IngestError, PaginationLoop
from .fetch import HttpClient, fetch_measurement_results, fetch_probe_inventory
from .matrix import load_matrix
from .render import render_svg

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_DATA = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eyeball-jedi",
        description="Country-level eyeball connectivity: coverage, plans, matrices.",
    )
    parser.set_defaults(out=None, cap=None, floor=None)
    common = argparse.ArgumentParser(add_help=False)
    scope = common.add_mutually_exclusive_group()
    scope.add_argument("--country", metavar="CC", help="two-letter country code")
    scope.add_argument("--all", action="store_true", help="every country present in the inputs")
    common.add_argument("--config", metavar="PATH", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="DIR", help="output directory")
    thresholds = argparse.ArgumentParser(add_help=False)
    thresholds.add_argument("--cap", type=float, metavar="F", help="cumulative user-share cap")
    thresholds.add_argument("--floor", type=float, metavar="F", help="per-AS user-share floor")
    selecting = [common, out, thresholds]
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, parents in [
        ("coverage", "report probe coverage of each country's eyeball networks", selecting),
        ("plan", "emit traceroute measurement plans for covered networks", selecting),
        ("analyze", "classify traceroutes into per-country matrices and metrics", selecting),
        ("render", "draw matrix_<CC>.json files as SVG heatmaps", [common, out]),
        ("fetch", "download probe inventory and measurement results", [common]),
    ]:
        sub.add_parser(name, help=help_text, parents=parents)
    return parser


def cmd_coverage(config: RunConfig) -> int:
    scopes = pipeline.build_scopes(config, pipeline.load_workspace(config))
    pipeline.write_coverage_outputs(config.out_dir, [scope.coverage for scope in scopes])
    print(f"coverage: {len(scopes)} countries -> {config.out_dir}")
    return EXIT_OK


def cmd_plan(config: RunConfig) -> int:
    for scope in pipeline.build_scopes(config, pipeline.load_workspace(config)):
        tasks = pipeline.build_plan(scope.eyeball_set, scope.selection)
        pipeline.write_plan_outputs(config.out_dir, scope, tasks)
        print(f"plan: {scope.country} {len(tasks)} tasks -> {config.out_dir}")
    return EXIT_OK


def cmd_analyze(config: RunConfig) -> int:
    ws = pipeline.load_workspace(config, with_traceroutes=True)
    scopes = pipeline.build_scopes(config, ws)
    runs = pipeline.runs_by_country(scopes, ws.traceroutes)
    total_matched = 0
    for scope in scopes:
        result = pipeline.analyze_country(scope, runs[scope.country], ws)
        for warning in result.warnings:
            log.warning("%s: %s", scope.country, warning)
        pipeline.write_analysis_outputs(config.out_dir, result)
        total_matched += result.matched_traceroutes
        print(f"analyze: {scope.country} {result.matched_traceroutes} traceroutes matched")
    if total_matched == 0:
        print("error: no traceroutes matched any probe selection", file=sys.stderr)
        return EXIT_NO_DATA
    return EXIT_OK


def cmd_render(config: RunConfig) -> int:
    if config.country is not None:
        matrix_paths = [config.out_dir / f"matrix_{config.country}.json"]
        missing = [p for p in matrix_paths if not p.is_file()]
        if missing:
            print(f"error: matrix file not found: {missing[0]}", file=sys.stderr)
            return EXIT_INPUT
    else:
        matrix_paths = sorted(config.out_dir.glob("matrix_*.json"))
        if not matrix_paths:
            print(f"error: no matrix_*.json under {config.out_dir}", file=sys.stderr)
            return EXIT_INPUT
    for path in matrix_paths:
        try:
            matrix = load_matrix(path.read_bytes())
        except IngestError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        svg_path = path.with_suffix(".svg")
        pipeline._write(svg_path, render_svg(matrix))
        print(f"render: {svg_path}")
    return EXIT_OK


def cmd_fetch(config: RunConfig) -> int:
    if not config.http_base_url:
        raise ConfigError("fetch requires http_base_url in the config")
    if config.probes is None:
        raise ConfigError("fetch requires a probes path in the config to write to")
    if config.measurement_ids and config.traceroutes is None:
        raise ConfigError("fetch requires a traceroutes path to store results")
    client = HttpClient(rate_limit=config.rate_limit, api_key=config.api_key())
    probes = fetch_probe_inventory(config.http_base_url, config.country, client=client)
    if config.measurement_ids:
        results, failures = fetch_measurement_results(
            config.http_base_url, list(config.measurement_ids), client=client
        )
    pipeline._write(config.probes, json.dumps(probes, indent=2) + "\n")
    print(f"fetch: {len(probes)} probes -> {config.probes}")
    if config.measurement_ids:
        pipeline._write(
            config.traceroutes,
            "".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in results),
        )
        print(f"fetch: {len(results)} traceroutes -> {config.traceroutes}")
        for failure in failures:
            log.warning("measurement fetch failed: %s", failure)
    return EXIT_OK


_COMMANDS = {
    "coverage": cmd_coverage,
    "plan": cmd_plan,
    "analyze": cmd_analyze,
    "render": cmd_render,
    "fetch": cmd_fetch,
}


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(Path(args.config))
        config = apply_overrides(
            config,
            country=args.country,
            all_countries=args.all,
            out_dir=args.out,
            cumulative_cap=args.cap,
            per_as_floor=args.floor,
        )
        config.validate_thresholds()
        return _COMMANDS[args.command](config)
    except (ConfigError, IngestError, EmptyInput, OSError, HttpError, PaginationLoop) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
