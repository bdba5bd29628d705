"""Parsers for every external dataset the pipeline consumes.

All formats are project-defined flat files (see README): CSV tables for
population shares, country user counts, prefix-to-AS and prefix-to-country
mappings and capitals, a JSON array for the probe inventory, and
newline-delimited JSON for traceroute results.

Each parser raises an IngestError on the first bad record, naming its
1-based line where the format has lines; input that is not UTF-8 is an
IngestError naming the first bad byte. probe_from_dict and
traceroute_from_dict check one object each and raise only IngestError, so
fetch validates server objects with them too.
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


def _text(data: str | bytes) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"not UTF-8: byte offset {exc.start}") from exc


def _csv_rows(text: str, header: str, n_fields: int):
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
            raise RowParseError(f"expected {n_fields} fields, got {len(fields)}", line=lineno)
        yield lineno, [f.strip() for f in fields]


def _parse_fraction_percent(raw: str) -> float:
    value = float(raw)
    if math.isnan(value) or not 0.0 <= value <= 100.0:
        raise ValueError(f"fraction_percent out of [0,100]: {raw}")
    return value


def parse_population_estimates(data: str | bytes) -> list[PopulationEstimateRow]:
    """Read per-(country, AS) user-population shares, in percent.

    Repeated (country, asn) keys are collapsed keeping the last occurrence,
    with a warning: daily snapshots may revise earlier rows.
    """
    collected: dict[tuple[str, int], PopulationEstimateRow] = {}
    for lineno, (country, asn_raw, frac_raw) in _csv_rows(
        _text(data), "country,asn,fraction_percent", 3
    ):
        try:
            row = PopulationEstimateRow(
                country=check_country_code(country),
                asn=check_asn(int(asn_raw)),
                fraction_percent=_parse_fraction_percent(frac_raw),
            )
        except ValueError as exc:
            raise RowParseError(str(exc), line=lineno) from exc
        key = (row.country, row.asn)
        if key in collected:
            log.warning("population row for %s AS%d repeated; keeping the later row", *key)
        collected[key] = row
    return list(collected.values())


def parse_country_users(data: str | bytes) -> dict[str, int]:
    """Read Internet-user counts per country into a {country: users} mapping."""
    users: dict[str, int] = {}
    for lineno, (country, count_raw) in _csv_rows(_text(data), "country,internet_users", 2):
        try:
            code = check_country_code(country)
            count = int(count_raw)
            if count < 0:
                raise ValueError(f"internet_users must be non-negative: {count_raw}")
        except ValueError as exc:
            raise RowParseError(str(exc), line=lineno) from exc
        if code in users:
            raise DuplicateCountry(f"country {code} listed twice", line=lineno)
        users[code] = count
    return users


def _json_int(obj: dict, key: str) -> int:
    """obj[key] when it is a JSON integer; a bool or a float is not one."""
    value = obj[key]
    if type(value) is not int:
        raise ValueError(f"{key} is not an integer: {value!r}")
    return value


def probe_from_dict(obj: dict) -> Probe:
    """Build a Probe from one inventory object; missing optionals stay absent.

    asn_v6 is checked but not kept: the analysis reads only IPv4 fields.
    """
    if not isinstance(obj, dict):
        raise RowParseError(f"probe entry is not an object: {obj!r}")
    if "id" not in obj:
        raise MissingField("probe object missing 'id'")
    try:
        probe_id = _json_int(obj, "id")
        for required in ("is_public", "status"):
            if required not in obj:
                raise MissingField(f"probe {probe_id} missing '{required}'")
        if type(obj["is_public"]) is not bool:
            raise ValueError(f"is_public is not a boolean: {obj['is_public']!r}")
        lat = obj.get("latitude")
        lon = obj.get("longitude")
        for coordinate in (lat, lon):
            if coordinate is not None and type(coordinate) not in (int, float):
                raise ValueError(f"coordinate is not a number: {coordinate!r}")
        location = GeoPoint(float(lat), float(lon)) if lat is not None and lon is not None else None
        address = obj.get("address_v4")
        if address is not None:
            if type(address) is not str:
                raise ValueError(f"address_v4 is not a string: {address!r}")
            address = str(ipaddress.IPv4Address(address))
        asn_v4 = check_asn(obj["asn_v4"]) if obj.get("asn_v4") is not None else None
        if obj.get("asn_v6") is not None:
            check_asn(obj["asn_v6"])
        return Probe(
            id=probe_id,
            asn_v4=asn_v4,
            location=location,
            public_address_v4=address,
            is_public=obj["is_public"],
            is_connected=obj["status"] == "Connected",
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise RowParseError(str(exc)) from exc


def parse_probe_inventory(data: str | bytes) -> list[Probe]:
    """Read the probe inventory (JSON array of probe objects)."""
    try:
        raw = json.loads(_text(data))
    except json.JSONDecodeError as exc:
        raise JsonSyntaxError(exc.msg, line=exc.lineno) from exc
    if not isinstance(raw, list):
        raise JsonSyntaxError("probe inventory must be a JSON array")
    return [probe_from_dict(obj) for obj in raw]


def traceroute_from_dict(obj: dict, line: int | None = None) -> Traceroute:
    """Build a Traceroute from one result object (one NDJSON line).

    Hop indices must be JSON integers that increase, and each hop's
    results must be an array of {"x": ...} or {"from": ..., "rtt": ...}
    objects with rtt absent, null or a finite number that is not negative;
    each hop keeps the address of its first reply that is not a timeout, or
    None.
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
            index = hop_obj["hop"]
            if type(index) is not int:
                raise RowParseError(f"hop index is not an integer: {index!r}", line=line)
            if index <= last_index:
                raise HopOrderError(f"hop index {index} after {last_index}", line=line)
            last_index = index
            results = hop_obj["results"]
            if type(results) is not list:
                raise RowParseError(f"hop results are not an array: {results!r}", line=line)
            first = None
            for res in results:
                if type(res) is not dict or ("x" not in res and "from" not in res):
                    raise RowParseError(f"unrecognized hop result: {res!r}", line=line)
                if "x" in res:
                    continue
                rtt = res.get("rtt")
                if rtt is not None:
                    if not (type(rtt) is int or type(rtt) is float and math.isfinite(rtt)):
                        raise RowParseError(f"rtt is not a finite number: {rtt!r}", line=line)
                    if rtt < 0:
                        raise RowParseError(f"negative rtt: {float(rtt)}", line=line)
                address = res["from"]
                if type(address) is not str:
                    raise RowParseError(f"hop address is not a string: {address!r}", line=line)
                if first is None:
                    first = address
            hops.append(first)
        if type(obj["dst_addr"]) is not str:
            raise RowParseError(f"dst_addr is not a string: {obj['dst_addr']!r}", line=line)
        return Traceroute(
            src_probe_id=_json_int(obj, "src_probe"),
            dst_probe_id=_json_int(obj, "dst_probe"),
            src_asn=obj["src_asn"],
            dst_asn=obj["dst_asn"],
            address_family=_json_int(obj, "af"),
            timestamp=_json_int(obj, "timestamp"),
            hops=tuple(hops),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise RowParseError(str(exc), line=line) from exc


def parse_traceroute_results(data: str | bytes) -> list[Traceroute]:
    """Read newline-delimited JSON traceroute results."""
    traceroutes = []
    for lineno, line in enumerate(_text(data).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JsonSyntaxError(exc.msg, line=lineno) from exc
        traceroutes.append(traceroute_from_dict(obj, line=lineno))
    return traceroutes


def parse_prefix_table(data: str | bytes) -> LpmTable:
    """Read prefix,origin_asn rows into a longest-prefix-match table."""
    table = LpmTable()
    for lineno, (prefix, asn_raw) in _csv_rows(_text(data), "prefix,origin_asn", 2):
        try:
            network = ipaddress.ip_network(prefix, strict=False)
        except ValueError as exc:
            raise InvalidCidr(str(exc), line=lineno) from exc
        try:
            asn = check_asn(int(asn_raw))
        except ValueError as exc:
            raise InvalidAsn(str(exc), line=lineno) from exc
        table.add(network, asn)
    return table


def parse_geo_table(data: str | bytes) -> LpmTable:
    """Read prefix,country rows; '??' marks explicitly unknown geolocation."""
    table = LpmTable()
    for lineno, (prefix, country) in _csv_rows(_text(data), "prefix,country", 2):
        try:
            network = ipaddress.ip_network(prefix, strict=False)
        except ValueError as exc:
            raise InvalidCidr(str(exc), line=lineno) from exc
        if country == GEO_UNKNOWN:
            table.add(network, None)
            continue
        try:
            table.add(network, check_country_code(country))
        except ValueError as exc:
            raise InvalidCountry(str(exc), line=lineno) from exc
    return table


def parse_capitals(data: str | bytes) -> dict[str, GeoPoint]:
    """Read capital coordinates per country."""
    capitals: dict[str, GeoPoint] = {}
    for lineno, (country, lat_raw, lon_raw) in _csv_rows(
        _text(data), "country,latitude,longitude", 3
    ):
        try:
            code = check_country_code(country)
            point = GeoPoint(float(lat_raw), float(lon_raw))
        except ValueError as exc:
            raise RowParseError(str(exc), line=lineno) from exc
        if code in capitals:
            raise DuplicateCountry(f"country {code} listed twice", line=lineno)
        capitals[code] = point
    return capitals

