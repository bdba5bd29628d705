"""Per-traceroute analysis: AS-path extraction and path classification.

Hop handling follows one rule everywhere: a hop is represented by the
address of its first non-timeout response. Private/reserved addresses (any
address that is not globally routable) carry no inter-domain or geographic
meaning and are dropped outright. HopResolver applies the rule once per
hop; both labels read what it returns.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyTraceroute
from .lpm import LpmTable
from .model import (
    CellVerdict,
    Directness,
    DirectnessVerdict,
    Locality,
    LocalityVerdict,
    PathClassification,
    Traceroute,
)


#: Placeholder for a hop whose AS is unknown: an unmapped address (what
#: LpmTable.lookup returns for it) or a hop with no response at all.
UNKNOWN_HOP = None

#: A kept hop: (AS number or UNKNOWN_HOP, country code or None).
ResolvedHop = tuple[int | None, str | None]

#: A hop with no response at all: neither its AS nor its country is known.
NO_RESPONSE: ResolvedHop = (UNKNOWN_HOP, None)

_UNSEEN = object()


def is_public_address(address: str | ipaddress.IPv4Address | ipaddress.IPv6Address) -> bool:
    """Whether address is globally routable: ipaddress's is_global.

    A parsed address is read as is; a string is parsed first, and a string
    that is no address at all is not public.
    """
    if isinstance(address, str):
        try:
            address = ipaddress.ip_address(address)
        except ValueError:
            return False
    return address.is_global


class HopResolver:
    """Hop addresses -> (AS, country) through the prefix and geo tables.

    Each distinct address string is parsed, checked and looked up once,
    then memoized, so one resolver serves one country's runs and the memo
    holds only their addresses.
    """

    def __init__(self, prefix_table: LpmTable, geo_table: LpmTable):
        self.prefix_table = prefix_table
        self.geo_table = geo_table
        self._memo: dict[str, ResolvedHop | None] = {}

    def resolve(self, address: str) -> ResolvedHop | None:
        """(AS, country) of a global address; None drops a non-global or invalid one."""
        try:
            parsed = ipaddress.ip_address(address)
        except ValueError:
            return None
        if not is_public_address(parsed):
            return None
        return self.prefix_table.lookup(parsed), self.geo_table.lookup(parsed)

    def hops(self, tr: Traceroute) -> list[ResolvedHop]:
        """The run's kept hops in order; a hop with no response is NO_RESPONSE."""
        memo = self._memo
        kept = []
        for address in tr.hops:
            if address is None:
                kept.append(NO_RESPONSE)
                continue
            resolved = memo.get(address, _UNSEEN)
            if resolved is _UNSEEN:
                resolved = memo[address] = self.resolve(address)
            if resolved is not None:
                kept.append(resolved)
        return kept


@dataclass(frozen=True)
class AsPath:
    """AS-level path: AS numbers and unknown-hop markers, duplicates collapsed.

    Invariants: no two adjacent equal AS numbers, no two adjacent markers,
    and no marker sandwiched between two equal AS numbers (such a gap is
    attributed to the surrounding AS and removed).
    """

    sequence: tuple

    def __post_init__(self):
        object.__setattr__(self, "sequence", tuple(self.sequence))

    def has_unknown(self) -> bool:
        return UNKNOWN_HOP in self.sequence

    def asn_elements(self) -> list[int]:
        return [e for e in self.sequence if e is not UNKNOWN_HOP]


def extract_as_path(tr: Traceroute, hops: list[ResolvedHop]) -> AsPath:
    """Derive the AS-level path of a traceroute from its resolved hops.

    hops is HopResolver.hops(tr): non-global addresses are already gone,
    and a responding but unmapped address, or a hop with no response at
    all, carries the unknown-hop marker. The source AS is prepended and
    the destination AS appended when not already terminal.
    """
    if not tr.hops:
        raise EmptyTraceroute(f"traceroute {tr.measurement_id} has no hops")
    elements: list = [tr.src_asn]
    elements.extend(asn for asn, _ in hops)
    if elements[-1] != tr.dst_asn:
        elements.append(tr.dst_asn)
    return normalize_path(elements)


def classify_locality(hops: list[ResolvedHop], country: str) -> Locality:
    """In/out-of-country from the geolocations of a run's resolved hops.

    A single hop geolocated abroad witnesses the path leaving the country;
    absent that, any hop geolocated inside means the path stayed in; with
    no geolocatable hops at all the traceroute says nothing.
    """
    saw_inside = False
    for _, hop_country in hops:
        if hop_country is None:
            continue
        if hop_country != country:
            return Locality.OUT_OF_COUNTRY
        saw_inside = True
    return Locality.IN_COUNTRY if saw_inside else Locality.UNDETERMINED


def classify_directness(path: AsPath, src_asn: int, dst_asn: int) -> Directness:
    """Direct, indirect (any third AS on the path), or undetermined.

    An unknown-hop marker between different ASes may hide an intermediary,
    so it blocks a Direct verdict without proving Indirect.
    """
    endpoints = {src_asn, dst_asn}
    if any(asn not in endpoints for asn in path.asn_elements()):
        return Directness.INDIRECT
    if path.has_unknown():
        return Directness.UNDETERMINED
    return Directness.DIRECT


def classify_traceroute(tr: Traceroute, resolver: HopResolver, country: str) -> PathClassification:
    hops = resolver.hops(tr)
    path = extract_as_path(tr, hops)
    return PathClassification(
        locality=classify_locality(hops, country),
        directness=classify_directness(path, tr.src_asn, tr.dst_asn),
    )


def classify_pair(
    src_asn: int,
    dst_asn: int,
    area_weight: float,
    evidence: Iterable[tuple[str, PathClassification]],
    covered: bool,
) -> CellVerdict:
    """Aggregate per-traceroute labels into one cell verdict.

    Undetermined labels abstain: the verdict is the consensus of the
    determined labels on each dimension, Inconsistent/Mixed when they
    disagree, and Undetermined/NotApplicable when nothing weighed in.
    """
    evidence = tuple(evidence)
    if not covered:
        if evidence:
            raise ValueError("uncovered pairs cannot carry evidence")
        return CellVerdict(
            src_asn,
            dst_asn,
            LocalityVerdict.NO_COVERAGE,
            DirectnessVerdict.NOT_APPLICABLE,
            area_weight,
        )
    localities = {cls.locality for _, cls in evidence} - {Locality.UNDETERMINED}
    if not localities:
        locality = LocalityVerdict.UNDETERMINED
    elif localities == {Locality.IN_COUNTRY}:
        locality = LocalityVerdict.IN_COUNTRY
    elif localities == {Locality.OUT_OF_COUNTRY}:
        locality = LocalityVerdict.OUT_OF_COUNTRY
    else:
        locality = LocalityVerdict.INCONSISTENT
    directs = {cls.directness for _, cls in evidence} - {Directness.UNDETERMINED}
    if not directs:
        directness = DirectnessVerdict.NOT_APPLICABLE
    elif directs == {Directness.DIRECT}:
        directness = DirectnessVerdict.DIRECT
    elif directs == {Directness.INDIRECT}:
        directness = DirectnessVerdict.INDIRECT
    else:
        directness = DirectnessVerdict.MIXED
    return CellVerdict(src_asn, dst_asn, locality, directness, area_weight, evidence)


def normalize_path(elements: Iterable) -> AsPath:
    """Build an AsPath from raw elements in one pass over an output stack.

    An element equal to the top of the stack is dropped; an AS number that
    follows a marker which follows that same AS drops the marker and
    itself (the gap belongs to the surrounding AS); anything else is pushed.
    """
    out: list = []
    for elem in elements:
        if out and out[-1] == elem:
            continue
        if out[-2:] == [elem, UNKNOWN_HOP]:
            out.pop()
            continue
        out.append(elem)
    return AsPath(tuple(out))
