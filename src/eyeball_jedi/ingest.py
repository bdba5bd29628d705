"""Parsers for every external dataset the pipeline consumes.

All formats are project-defined flat files (see README): CSV tables for
population shares, country user counts, prefix-to-AS and prefix-to-country
mappings and capitals, a JSON array for the probe inventory, and
newline-delimited JSON for traceroute results.

Each parser raises on the first bad record by default. Passing a list as
``errors`` switches it to collect mode: record-level problems are appended
to that list and parsing continues (structural problems such as a bad
header still raise). Input that is not UTF-8 is an IngestError naming the
first bad byte. probe_from_dict and traceroute_from_dict check one object
each and raise only IngestError, so fetch validates server objects with
them too.
"""

from __future__ import annotations

import io
import ipaddress
import json
import logging
import math
from csv import reader as csv_reader
from dataclasses import dataclass

from .errors import (
    DuplicateCountry,
    HopOrderError,
    IngestError,
    InvalidAsn,
    InvalidCidr,
    InvalidCountry,
    JsonSyntaxError,
    MalformedHeader,
    MissingField,
    RowParseError,
)
from .lpm import LpmTable
from .model import GeoPoint, Probe, Traceroute, check_asn, check_country_code

log = logging.getLogger(__name__)

GEO_UNKNOWN = "??"


@dataclass(frozen=True)
class PopulationEstimateRow:
    country: str
    asn: int
    fraction_percent: float


@dataclass(frozen=True)
class CountryUsersRow:
    country: str
    internet_users: int


def _text(data: str | bytes) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"not UTF-8: byte offset {exc.start}") from exc


def _report(err: IngestError, errors: list[IngestError] | None) -> None:
    if errors is None:
        raise err
    errors.append(err)


def _csv_rows(text: str, header: str, n_fields: int, errors):
    """Yield (line_number, fields) for each record after a validated header."""
    lines = list(csv_reader(io.StringIO(text)))
    raw_lines = text.splitlines()
    if not raw_lines or raw_lines[0].strip() != header:
        got = raw_lines[0].strip() if raw_lines else "<empty file>"
        raise MalformedHeader(f"expected header {header!r}, got {got!r}", line=1)
    for lineno, fields in enumerate(lines[1:], start=2):
        if not fields:
            continue
        if len(fields) != n_fields:
            _report(RowParseError(f"expected {n_fields} fields, got {len(fields)}", line=lineno), errors)
            continue
        yield lineno, [f.strip() for f in fields]


def _parse_fraction_percent(raw: str) -> float:
    value = float(raw)
    if math.isnan(value) or not 0.0 <= value <= 100.0:
        raise ValueError(f"fraction_percent out of [0,100]: {raw}")
    return value


def parse_population_estimates(
    data: str | bytes, errors: list[IngestError] | None = None
) -> list[PopulationEstimateRow]:
    """Read per-(country, AS) user-population shares, in percent.

    Repeated (country, asn) keys are collapsed keeping the last occurrence,
    with a warning: daily snapshots may revise earlier rows.
    """
    collected: dict[tuple[str, int], PopulationEstimateRow] = {}
    for lineno, (country, asn_raw, frac_raw) in _csv_rows(
        _text(data), "country,asn,fraction_percent", 3, errors
    ):
        try:
            row = PopulationEstimateRow(
                country=check_country_code(country),
                asn=check_asn(int(asn_raw)),
                fraction_percent=_parse_fraction_percent(frac_raw),
            )
        except ValueError as exc:
            _report(RowParseError(str(exc), line=lineno), errors)
            continue
        key = (row.country, row.asn)
        if key in collected:
            log.warning("population row for %s AS%d repeated; keeping the later row", *key)
        collected[key] = row
    return list(collected.values())


def parse_country_users(
    data: str | bytes, errors: list[IngestError] | None = None
) -> dict[str, int]:
    """Read Internet-user counts per country into a {country: users} mapping."""
    users: dict[str, int] = {}
    for lineno, (country, count_raw) in _csv_rows(
        _text(data), "country,internet_users", 2, errors
    ):
        try:
            row = CountryUsersRow(country=check_country_code(country), internet_users=int(count_raw))
            if row.internet_users < 0:
                raise ValueError(f"internet_users must be non-negative: {count_raw}")
        except ValueError as exc:
            _report(RowParseError(str(exc), line=lineno), errors)
            continue
        if row.country in users:
            _report(DuplicateCountry(f"country {row.country} listed twice", line=lineno), errors)
            continue
        users[row.country] = row.internet_users
    return users


def probe_from_dict(obj: dict) -> Probe:
    """Build a Probe from one inventory object; missing optionals stay absent.

    asn_v6 is checked but not kept: the analysis reads only IPv4 fields.
    """
    if not isinstance(obj, dict):
        raise RowParseError(f"probe entry is not an object: {obj!r}")
    if "id" not in obj:
        raise MissingField("probe object missing 'id'")
    try:
        probe_id = int(obj["id"])
        for required in ("is_public", "status"):
            if required not in obj:
                raise MissingField(f"probe {probe_id} missing '{required}'")
        lat = obj.get("latitude")
        lon = obj.get("longitude")
        location = GeoPoint(float(lat), float(lon)) if lat is not None and lon is not None else None
        address = obj.get("address_v4")
        if address is not None:
            address = str(ipaddress.IPv4Address(address))
        asn_v4 = check_asn(int(obj["asn_v4"])) if obj.get("asn_v4") is not None else None
        if obj.get("asn_v6") is not None:
            check_asn(int(obj["asn_v6"]))
        return Probe(
            id=probe_id,
            asn_v4=asn_v4,
            location=location,
            public_address_v4=address,
            is_public=bool(obj["is_public"]),
            is_connected=obj["status"] == "Connected",
        )
    except (TypeError, ValueError) as exc:
        raise RowParseError(str(exc)) from exc


def parse_probe_inventory(
    data: str | bytes, errors: list[IngestError] | None = None
) -> list[Probe]:
    """Read the probe inventory (JSON array of probe objects)."""
    try:
        raw = json.loads(_text(data))
    except json.JSONDecodeError as exc:
        raise JsonSyntaxError(exc.msg, line=exc.lineno) from exc
    if not isinstance(raw, list):
        raise JsonSyntaxError("probe inventory must be a JSON array")
    probes = []
    for obj in raw:
        try:
            probes.append(probe_from_dict(obj))
        except IngestError as exc:
            _report(exc, errors)
    return probes


def traceroute_from_dict(obj: dict, line: int | None = None) -> Traceroute:
    """Build a Traceroute from one result object (one NDJSON line).

    Hop indices must increase and every reply must be {"x": ...} or
    {"from": ..., "rtt": ...} with rtt absent, null or a number that is not
    negative; each hop keeps the address of its first reply that is not a
    timeout, or None.
    """
    if not isinstance(obj, dict):
        raise RowParseError(f"traceroute entry is not an object: {obj!r}", line=line)
    for required in ("src_probe", "dst_probe", "src_asn", "dst_asn", "dst_addr", "af", "timestamp", "hops"):
        if required not in obj:
            raise MissingField(f"traceroute missing '{required}'", line=line)
    try:
        hops = []
        last_index = 0
        for hop_obj in obj["hops"]:
            if "hop" not in hop_obj or "results" not in hop_obj:
                raise RowParseError("hop object needs 'hop' and 'results'", line=line)
            index = int(hop_obj["hop"])
            if index <= last_index:
                raise HopOrderError(f"hop index {index} after {last_index}", line=line)
            last_index = index
            first = None
            for res in hop_obj["results"]:
                if "x" in res:
                    continue
                if "from" not in res:
                    raise RowParseError(f"unrecognized hop result: {res!r}", line=line)
                rtt = res.get("rtt")
                if rtt is not None and float(rtt) < 0:
                    raise RowParseError(f"negative rtt: {float(rtt)}", line=line)
                if first is None:
                    first = str(res["from"])
            hops.append(first)
        return Traceroute(
            src_probe_id=int(obj["src_probe"]),
            dst_probe_id=int(obj["dst_probe"]),
            src_asn=check_asn(int(obj["src_asn"])),
            dst_asn=check_asn(int(obj["dst_asn"])),
            dst_address=str(obj["dst_addr"]),
            address_family=int(obj["af"]),
            timestamp=int(obj["timestamp"]),
            hops=tuple(hops),
        )
    except (TypeError, ValueError) as exc:
        raise RowParseError(str(exc), line=line) from exc


def parse_traceroute_results(
    data: str | bytes, errors: list[IngestError] | None = None
) -> list[Traceroute]:
    """Read newline-delimited JSON traceroute results."""
    traceroutes = []
    for lineno, line in enumerate(_text(data).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            _report(JsonSyntaxError(exc.msg, line=lineno), errors)
            continue
        try:
            traceroutes.append(traceroute_from_dict(obj, line=lineno))
        except IngestError as exc:
            _report(exc, errors)
    return traceroutes


def parse_prefix_table(
    data: str | bytes, errors: list[IngestError] | None = None
) -> LpmTable:
    """Read prefix,origin_asn rows into a longest-prefix-match table."""
    table = LpmTable()
    for lineno, (prefix, asn_raw) in _csv_rows(_text(data), "prefix,origin_asn", 2, errors):
        try:
            network = ipaddress.ip_network(prefix, strict=False)
        except ValueError as exc:
            _report(InvalidCidr(str(exc), line=lineno), errors)
            continue
        try:
            asn = check_asn(int(asn_raw))
        except ValueError as exc:
            _report(InvalidAsn(str(exc), line=lineno), errors)
            continue
        table.add(network, asn)
    return table


def parse_geo_table(
    data: str | bytes, errors: list[IngestError] | None = None
) -> LpmTable:
    """Read prefix,country rows; '??' marks explicitly unknown geolocation."""
    table = LpmTable()
    for lineno, (prefix, country) in _csv_rows(_text(data), "prefix,country", 2, errors):
        try:
            network = ipaddress.ip_network(prefix, strict=False)
        except ValueError as exc:
            _report(InvalidCidr(str(exc), line=lineno), errors)
            continue
        if country == GEO_UNKNOWN:
            table.add(network, None)
            continue
        try:
            table.add(network, check_country_code(country))
        except ValueError as exc:
            _report(InvalidCountry(str(exc), line=lineno), errors)
    return table


def parse_capitals(
    data: str | bytes, errors: list[IngestError] | None = None
) -> dict[str, GeoPoint]:
    """Read capital coordinates per country."""
    capitals: dict[str, GeoPoint] = {}
    for lineno, (country, lat_raw, lon_raw) in _csv_rows(
        _text(data), "country,latitude,longitude", 3, errors
    ):
        try:
            code = check_country_code(country)
            point = GeoPoint(float(lat_raw), float(lon_raw))
        except ValueError as exc:
            _report(RowParseError(str(exc), line=lineno), errors)
            continue
        if code in capitals:
            _report(DuplicateCountry(f"country {code} listed twice", line=lineno), errors)
            continue
        capitals[code] = point
    return capitals

