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

JSON is decoded by load_json and its values are checked by JSON type with
_json and _json_number, never converted from another type; the matrix
reader (matrix.load_matrix) uses the same three.
"""

from __future__ import annotations

import io
import ipaddress
import json
import logging
import math
import reprlib
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


_JSON_TYPES = {int: "an integer", bool: "a boolean", str: "a string", list: "an array"}


def _json(obj: dict, key: str, kind: type):
    """obj[key] when its JSON type is kind: a bool is not an integer, a float not one either."""
    value = obj[key]
    if type(value) is not kind:
        raise ValueError(f"{key} is not {_JSON_TYPES[kind]}: {reprlib.repr(value)}")
    return value


def _json_number(obj: dict, key: str) -> float:
    """obj[key] when it is a finite JSON number; a bool is not one."""
    value = obj[key]
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{key} is not a finite number: {reprlib.repr(value)}")
    return float(value)


def load_json(data: str | bytes, line: int | None = None):
    """Decode one JSON document; line numbers an NDJSON line.

    Bad syntax, nesting too deep for the decoder and an integer literal too
    long to convert are each a JsonSyntaxError.
    """
    try:
        return json.loads(_text(data))
    except json.JSONDecodeError as exc:
        raise JsonSyntaxError(exc.msg, line=line or exc.lineno) from exc
    except RecursionError as exc:
        raise JsonSyntaxError("nested too deeply", line=line) from exc
    except ValueError as exc:
        raise JsonSyntaxError(str(exc), line=line) from exc


def probe_from_dict(obj: dict) -> Probe | None:
    """Check one inventory object; the Probe if it is usable, else None.

    A usable probe is public, "Connected", located, and has an asn_v4 and
    an address_v4. asn_v6 is checked but not kept: the analysis reads only
    IPv4 fields.
    """
    if not isinstance(obj, dict):
        raise RowParseError(f"probe entry is not an object: {reprlib.repr(obj)}")
    if "id" not in obj:
        raise MissingField("probe object missing 'id'")
    try:
        probe_id = _json(obj, "id", int)
        for required in ("is_public", "status"):
            if required not in obj:
                raise MissingField(f"probe {probe_id} missing '{required}'")
        is_public = _json(obj, "is_public", bool)
        connected = _json(obj, "status", str) == "Connected"
        lat = _json_number(obj, "latitude") if obj.get("latitude") is not None else None
        lon = _json_number(obj, "longitude") if obj.get("longitude") is not None else None
        asn_v4 = check_asn(_json(obj, "asn_v4", int)) if obj.get("asn_v4") is not None else None
        if obj.get("asn_v6") is not None:
            check_asn(_json(obj, "asn_v6", int))
        address = obj.get("address_v4")
        if address is not None:
            address = str(ipaddress.IPv4Address(_json(obj, "address_v4", str)))
        if not (is_public and connected) or None in (lat, lon, asn_v4, address):
            return None
        return Probe(probe_id, asn_v4, GeoPoint(lat, lon), address)
    except (TypeError, ValueError, OverflowError) as exc:
        raise RowParseError(str(exc)) from exc


def usable_probes(objs: list, seen: set[int]) -> list[Probe]:
    """Check every probe object and keep the usable probes.

    An id may appear once: seen holds the ids already read, including
    those of unusable probes, and gains every id checked here.
    """
    probes = []
    for obj in objs:
        probe = probe_from_dict(obj)
        if obj["id"] in seen:
            raise RowParseError(f"probe id {obj['id']} repeated")
        seen.add(obj["id"])
        if probe is not None:
            probes.append(probe)
    return probes


def parse_probe_inventory(data: str | bytes) -> list[Probe]:
    """Read the probe inventory (JSON array of probe objects); keep the usable probes."""
    raw = load_json(data)
    if not isinstance(raw, list):
        raise JsonSyntaxError("probe inventory must be a JSON array")
    return usable_probes(raw, set())


def traceroute_from_dict(obj: dict, line: int | None = None) -> Traceroute:
    """Build a Traceroute from one result object (one NDJSON line).

    hops must be an array whose hop indices are JSON integers that
    increase, and each hop's results an array of {"x": ...} or
    {"from": ..., "rtt": ...} objects with rtt absent, null or a finite
    number that is not negative; each hop keeps the address of its first
    reply that is not a timeout, or None.
    """
    if not isinstance(obj, dict):
        raise RowParseError(f"traceroute entry is not an object: {reprlib.repr(obj)}", line=line)
    for required in ("src_probe", "dst_probe", "src_asn", "dst_asn", "dst_addr", "af", "timestamp", "hops"):
        if required not in obj:
            raise MissingField(f"traceroute missing '{required}'", line=line)
    try:
        hops = []
        last_index = 0
        for hop_obj in _json(obj, "hops", list):
            if "hop" not in hop_obj or "results" not in hop_obj:
                raise RowParseError("hop object needs 'hop' and 'results'", line=line)
            index = hop_obj["hop"]
            if type(index) is not int:
                raise RowParseError(f"hop index is not an integer: {reprlib.repr(index)}", line=line)
            if index <= last_index:
                raise HopOrderError(f"hop index {index} after {last_index}", line=line)
            last_index = index
            results = hop_obj["results"]
            if type(results) is not list:
                raise RowParseError(f"hop results are not an array: {reprlib.repr(results)}", line=line)
            first = None
            for res in results:
                if type(res) is not dict or ("x" not in res and "from" not in res):
                    raise RowParseError(f"unrecognized hop result: {reprlib.repr(res)}", line=line)
                if "x" in res:
                    continue
                rtt = res.get("rtt")
                if rtt is not None:
                    if not (type(rtt) is int or type(rtt) is float and math.isfinite(rtt)):
                        raise RowParseError(f"rtt is not a finite number: {reprlib.repr(rtt)}", line=line)
                    if rtt < 0:
                        raise RowParseError(f"negative rtt: {float(rtt)}", line=line)
                address = res["from"]
                if type(address) is not str:
                    raise RowParseError(f"hop address is not a string: {reprlib.repr(address)}", line=line)
                if first is None:
                    first = address
            hops.append(first)
        _json(obj, "dst_addr", str)
        return Traceroute(
            src_probe_id=_json(obj, "src_probe", int),
            dst_probe_id=_json(obj, "dst_probe", int),
            src_asn=_json(obj, "src_asn", int),
            dst_asn=_json(obj, "dst_asn", int),
            address_family=_json(obj, "af", int),
            timestamp=_json(obj, "timestamp", int),
            hops=tuple(hops),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise RowParseError(str(exc), line=line) from exc


def parse_traceroute_results(data: str | bytes) -> list[Traceroute]:
    """Read newline-delimited JSON traceroute results.

    Lines end at "\n" only: a "\r" before it is JSON whitespace, and any
    other line separator (U+2028, U+0085, ...) may stand inside a string.
    """
    traceroutes = []
    for lineno, line in enumerate(_text(data).split("\n"), start=1):
        if not line.strip():
            continue
        traceroutes.append(traceroute_from_dict(load_json(line, lineno), line=lineno))
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

