"""Shared domain types for the eyeball-connectivity pipeline.

Everything here is an immutable value object with its invariants checked at
construction time; there is no I/O in this module. Country codes and AS
numbers are kept as plain ``str``/``int`` validated at the boundaries via
:func:`check_country_code` and :func:`check_asn` rather than wrapped in
dedicated classes.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

ASN_MAX = 2**32 - 1

#: |sum(userFraction) - coveredFraction| allowed on an EyeballSet.
COVERED_FRACTION_TOL = 1e-9
#: |srcFraction * dstFraction - areaWeight| allowed on a matrix cell.
AREA_WEIGHT_TOL = 1e-12
#: slack allowed when the six area categories are summed against 1.
AREA_PARTITION_TOL = 1e-9

_COUNTRY_RE = re.compile(r"^[A-Z]{2}$")


def check_country_code(code: str) -> str:
    """Validate a two-letter uppercase ISO 3166-1 alpha-2 style code."""
    if not isinstance(code, str) or not _COUNTRY_RE.match(code):
        raise ValueError(f"invalid country code: {code!r}")
    return code


def check_asn(value: int) -> int:
    """Validate an AS number (1 .. 2^32-1)."""
    if not isinstance(value, int) or isinstance(value, bool) or not 0 < value <= ASN_MAX:
        raise ValueError(f"invalid AS number: {value!r}")
    return value


@dataclass(frozen=True)
class GeoPoint:
    latitude: float
    longitude: float

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude}")

    def to_dict(self) -> dict[str, float]:
        return {"latitude": self.latitude, "longitude": self.longitude}


@dataclass(frozen=True)
class EyeballNetwork:
    """One user-facing AS of a country with its share of that country's users."""

    asn: int
    user_fraction: float
    estimated_users: int

    def __post_init__(self):
        check_asn(self.asn)
        if not 0.0 <= self.user_fraction <= 1.0:
            raise ValueError(f"user_fraction out of [0,1]: {self.user_fraction}")
        if self.estimated_users < 0:
            raise ValueError("estimated_users must be non-negative")

    @classmethod
    def build(cls, asn: int, user_fraction: float, country_users: int) -> "EyeballNetwork":
        """Derive estimated_users as floor(fraction * country users)."""
        return cls(
            asn=asn,
            user_fraction=user_fraction,
            estimated_users=math.floor(user_fraction * country_users),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "asn": self.asn,
            "user_fraction": self.user_fraction,
            "estimated_users": self.estimated_users,
        }


@dataclass(frozen=True)
class EyeballSet:
    """The dominant eyeball networks of one country, in matrix order.

    Networks are ordered by descending user_fraction with ties broken by
    ascending AS number; covered_fraction must equal the sum of the member
    fractions to within COVERED_FRACTION_TOL.
    """

    country: str
    country_users: int
    capital: GeoPoint
    networks: tuple[EyeballNetwork, ...]
    covered_fraction: float

    def __post_init__(self):
        check_country_code(self.country)
        if self.country_users < 0:
            raise ValueError("country_users must be non-negative")
        object.__setattr__(self, "networks", tuple(self.networks))
        seen = set()
        for net in self.networks:
            if net.asn in seen:
                raise ValueError(f"duplicate AS number in set: {net.asn}")
            seen.add(net.asn)
        for a, b in zip(self.networks, self.networks[1:]):
            if (a.user_fraction, -a.asn) < (b.user_fraction, -b.asn):
                raise ValueError(
                    f"networks not ordered by descending fraction / ascending asn at AS{b.asn}"
                )
        total = math.fsum(n.user_fraction for n in self.networks)
        if abs(total - self.covered_fraction) > COVERED_FRACTION_TOL:
            raise ValueError(
                f"covered_fraction {self.covered_fraction} != sum of fractions {total}"
            )
        if not 0.0 <= self.covered_fraction <= 1.0 + COVERED_FRACTION_TOL:
            raise ValueError(f"covered_fraction out of [0,1]: {self.covered_fraction}")

    @classmethod
    def from_networks(
        cls,
        country: str,
        country_users: int,
        capital: GeoPoint,
        networks: Iterable[EyeballNetwork],
    ) -> "EyeballSet":
        """Sort networks into canonical order and derive covered_fraction."""
        ordered = tuple(sorted(networks, key=lambda n: (-n.user_fraction, n.asn)))
        return cls(
            country=country,
            country_users=country_users,
            capital=capital,
            networks=ordered,
            covered_fraction=math.fsum(n.user_fraction for n in ordered),
        )

    @property
    def asns(self) -> tuple[int, ...]:
        return tuple(n.asn for n in self.networks)

    def to_dict(self) -> dict[str, Any]:
        return {
            "country": self.country,
            "country_users": self.country_users,
            "capital": self.capital.to_dict(),
            "covered_fraction": self.covered_fraction,
            "networks": [n.to_dict() for n in self.networks],
        }


@dataclass(frozen=True)
class Probe:
    """A usable IPv4 vantage point: public, connected, located and addressed."""

    id: int
    asn_v4: int
    location: GeoPoint
    public_address_v4: str


@dataclass(frozen=True)
class Traceroute:
    """One run's envelope and, per hop, its first responding address (None: no answer)."""

    src_probe_id: int
    dst_probe_id: int
    src_asn: int
    dst_asn: int
    address_family: int
    timestamp: int
    hops: tuple[str | None, ...]

    def __post_init__(self):
        check_asn(self.src_asn)
        check_asn(self.dst_asn)
        if self.address_family not in (4, 6):
            raise ValueError(f"address_family must be 4 or 6: {self.address_family}")
        object.__setattr__(self, "hops", tuple(self.hops))

    @property
    def measurement_id(self) -> str:
        """Stable identifier used when a traceroute is cited as cell evidence."""
        return f"{self.src_probe_id}>{self.dst_probe_id}@{self.timestamp}"


class Locality(str, enum.Enum):
    IN_COUNTRY = "in_country"
    OUT_OF_COUNTRY = "out_of_country"
    UNDETERMINED = "undetermined"


class Directness(str, enum.Enum):
    DIRECT = "direct"
    INDIRECT = "indirect"
    UNDETERMINED = "undetermined"


class LocalityVerdict(str, enum.Enum):
    IN_COUNTRY = "in_country"
    OUT_OF_COUNTRY = "out_of_country"
    INCONSISTENT = "inconsistent"
    NO_COVERAGE = "no_coverage"
    UNDETERMINED = "undetermined"


class DirectnessVerdict(str, enum.Enum):
    DIRECT = "direct"
    INDIRECT = "indirect"
    MIXED = "mixed"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class PathClassification:
    """Per-traceroute labels; the two dimensions are independent."""

    locality: Locality
    directness: Directness

    def to_dict(self) -> dict[str, str]:
        return {"locality": self.locality.value, "directness": self.directness.value}


@dataclass(frozen=True)
class CellVerdict:
    """Aggregated verdict for one ordered (source AS, destination AS) pair."""

    src_asn: int
    dst_asn: int
    locality: LocalityVerdict
    directness: DirectnessVerdict
    area_weight: float
    evidence: tuple[tuple[str, PathClassification], ...] = ()

    def __post_init__(self):
        check_asn(self.src_asn)
        check_asn(self.dst_asn)
        if not 0.0 <= self.area_weight <= 1.0:
            raise ValueError(f"area_weight out of [0,1]: {self.area_weight}")
        object.__setattr__(self, "evidence", tuple(self.evidence))
        if self.locality is LocalityVerdict.NO_COVERAGE:
            if self.directness is not DirectnessVerdict.NOT_APPLICABLE:
                raise ValueError("NoCoverage cells must have directness NotApplicable")
            if self.evidence:
                raise ValueError("NoCoverage cells must carry no evidence")

    def to_dict(self) -> dict[str, Any]:
        return {
            "src_asn": self.src_asn,
            "dst_asn": self.dst_asn,
            "locality": self.locality.value,
            "directness": self.directness.value,
            "area_weight": self.area_weight,
            "evidence": [
                {"measurement": mid, **cls.to_dict()} for mid, cls in self.evidence
            ],
        }


@dataclass(frozen=True)
class EyeballMatrix:
    """Square AS-to-AS verdict grid over every ordered pair of member networks."""

    eyeball_set: EyeballSet
    cells: Mapping[tuple[int, int], CellVerdict]

    def __post_init__(self):
        object.__setattr__(self, "cells", dict(self.cells))
        asns = self.eyeball_set.asns
        expected = {(s, d) for s in asns for d in asns}
        got = set(self.cells)
        if got != expected:
            missing = expected - got
            extra = got - expected
            raise ValueError(
                f"matrix must cover exactly n^2 ordered pairs; missing={sorted(missing)[:3]} extra={sorted(extra)[:3]}"
            )
        fraction = {n.asn: n.user_fraction for n in self.eyeball_set.networks}
        for (s, d), cell in self.cells.items():
            if (cell.src_asn, cell.dst_asn) != (s, d):
                raise ValueError(f"cell keyed {(s, d)} names pair {(cell.src_asn, cell.dst_asn)}")
            want = fraction[s] * fraction[d]
            if abs(cell.area_weight - want) > AREA_WEIGHT_TOL:
                raise ValueError(
                    f"cell {(s, d)} area_weight {cell.area_weight} != {want}"
                )

    def cell(self, src_asn: int, dst_asn: int) -> CellVerdict:
        return self.cells[(src_asn, dst_asn)]

    def ordered_cells(self) -> list[CellVerdict]:
        """Cells in row-major matrix order (source major, destination minor)."""
        asns = self.eyeball_set.asns
        return [self.cells[(s, d)] for s in asns for d in asns]

    def to_dict(self) -> dict[str, Any]:
        """JSON form: the eyeball set's fields plus the cells in row-major order."""
        d = self.eyeball_set.to_dict()
        d["cells"] = [c.to_dict() for c in self.ordered_cells()]
        return d


@dataclass(frozen=True)
class MetricsSummary:
    """Area shares of the matrix; the six locality buckets partition 1."""

    in_country_area: float
    out_of_country_area: float
    no_coverage_area: float
    inconsistent_area: float
    undetermined_area: float
    unexamined_area: float
    indirect_area: float

    def __post_init__(self):
        parts = (
            self.in_country_area,
            self.out_of_country_area,
            self.no_coverage_area,
            self.inconsistent_area,
            self.undetermined_area,
            self.unexamined_area,
        )
        for p in parts + (self.indirect_area,):
            if not -AREA_PARTITION_TOL <= p <= 1.0 + AREA_PARTITION_TOL:
                raise ValueError(f"area out of [0,1]: {p}")
        total = math.fsum(parts)
        if abs(total - 1.0) > AREA_PARTITION_TOL:
            raise ValueError(f"area categories sum to {total}, not 1")
        measured = math.fsum(
            (
                self.in_country_area,
                self.out_of_country_area,
                self.inconsistent_area,
                self.undetermined_area,
            )
        )
        if self.indirect_area > measured + AREA_PARTITION_TOL:
            raise ValueError("indirect_area exceeds the measured (non-NoCoverage) area")

    def as_rows(self) -> list[tuple[str, float]]:
        """(category, area) pairs in reporting order."""
        return [
            ("in_country", self.in_country_area),
            ("out_of_country", self.out_of_country_area),
            ("inconsistent", self.inconsistent_area),
            ("undetermined", self.undetermined_area),
            ("no_coverage", self.no_coverage_area),
            ("unexamined", self.unexamined_area),
            ("indirect", self.indirect_area),
        ]
