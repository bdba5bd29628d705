"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the dumb way (linear scans, plain
double loops, a different distance formula) so agreement with the package
is meaningful. Frozen constants were computed from these oracles before
the package code existed.
"""

from __future__ import annotations

import ipaddress
import math

# law-of-cosines distance Paris (48.8566, 2.3522) -> London (51.5074, -0.1278)
PARIS_LONDON_KM = 343.556060341059
# equatorial antipodes: half the circumference of a 6371.0 km sphere
ANTIPODAL_KM = 20015.086796020572
# 1 - 0.845**2 in IEEE doubles
UNEXAMINED_0845 = 0.2859750000000001
# two-network split with noCoverage area exactly 0.181:
# covered fraction c = sqrt(0.845**2 - 0.181), uncovered u = 0.845 - c
COVERED_FRACTION_181 = 0.7300856114182773
UNCOVERED_FRACTION_181 = 0.11491438858172265


def law_of_cosines_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance via the spherical law of cosines."""
    p1, l1 = math.radians(lat1), math.radians(lon1)
    p2, l2 = math.radians(lat2), math.radians(lon2)
    central = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(l1 - l2)
    return 6371.0 * math.acos(max(-1.0, min(1.0, central)))


def parsed_entries(entries: list[tuple[str, object]]):
    """Pre-parse prefixes to (version, network int, mask int, length, value)."""
    out = []
    for prefix, value in entries:
        net = ipaddress.ip_network(prefix, strict=False)
        out.append((net.version, int(net.network_address), int(net.netmask), net.prefixlen, value))
    return out


def linear_lpm_parsed(parsed, address: str):
    """Most specific matching prefix by scanning every pre-parsed entry."""
    addr = ipaddress.ip_address(address)
    addr_int, version = int(addr), addr.version
    best = None
    best_len = -1
    for ver, net_int, mask, plen, value in parsed:
        if ver == version and (addr_int & mask) == net_int and plen > best_len:
            best, best_len = value, plen
    return best, best_len if best_len >= 0 else None


def linear_lpm(entries: list[tuple[str, object]], address: str):
    """Most specific matching prefix by scanning every entry."""
    return linear_lpm_parsed(parsed_entries(entries), address)


def fixpoint_normalize(elements: list, marker=None) -> list:
    """AS-path normalization by whole passes repeated until nothing changes.

    Each pass collapses adjacent equal elements, then deletes the first
    marker that sits between two equal AS numbers.
    """
    changed = True
    while changed:
        changed = False
        out = []
        for elem in elements:
            if out and out[-1] == elem:
                changed = True
                continue
            out.append(elem)
        for i in range(1, len(out) - 1):
            if out[i] is marker and out[i - 1] is not marker and out[i - 1] == out[i + 1]:
                del out[i]
                changed = True
                break
        elements = out
    return elements


def reference_as_path(tr, prefix_table, marker=None) -> tuple:
    """AS path of a run with per-hop parsing: each hop is checked and looked up on its own.

    The package's extract_as_path before hop resolution was shared,
    normalized by fixpoint_normalize.
    """
    elements = [tr.src_asn]
    for address in tr.hops:
        if address is None:
            elements.append(marker)
            continue
        if not _is_global(address):
            continue
        elements.append(prefix_table.lookup(address))
    if elements[-1] != tr.dst_asn:
        elements.append(tr.dst_asn)
    return tuple(fixpoint_normalize(elements, marker=marker))


def reference_locality(tr, geo_table, country: str) -> str:
    """Locality value of a run from hop geolocations, each hop parsed on its own.

    One of "in_country", "out_of_country" or "undetermined": the package's
    classify_locality before hop resolution was shared.
    """
    saw_inside = False
    for address in tr.hops:
        if address is None or not _is_global(address):
            continue
        hop_country = geo_table.lookup(address)
        if hop_country is None:
            continue
        if hop_country != country:
            return "out_of_country"
        saw_inside = True
    return "in_country" if saw_inside else "undetermined"


def _is_global(address: str) -> bool:
    try:
        return ipaddress.ip_address(address).is_global
    except ValueError:
        return False


def metrics_double_loop(fractions: list[float], cells: dict) -> dict[str, float]:
    """Recompute category areas by enumerating all n*n pairs directly.

    cells maps (i, j) index pairs to (locality string, directness string).
    Plain accumulation, no compensated summation.
    """
    areas = {
        "in_country": 0.0,
        "out_of_country": 0.0,
        "inconsistent": 0.0,
        "undetermined": 0.0,
        "no_coverage": 0.0,
        "indirect": 0.0,
    }
    n = len(fractions)
    for i in range(n):
        for j in range(n):
            weight = fractions[i] * fractions[j]
            locality, directness = cells[(i, j)]
            areas[locality] += weight
            if directness == "indirect":
                areas["indirect"] += weight
    covered = 0.0
    for f in fractions:
        covered += f
    areas["unexamined"] = 1.0 - covered * covered
    return areas
