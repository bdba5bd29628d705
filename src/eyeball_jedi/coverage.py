"""Dominant-network selection and probe-coverage accounting for one country.

A country's eyeball set is the descending-fraction prefix of its networks,
admitting each network while the cumulative fraction of those already
admitted is still below the cap (so the network crossing the cap is the
last one in) and stopping outright at the first network whose own share is
below the per-AS floor.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyInput
from .ingest import PopulationEstimateRow
from .model import EyeballNetwork, EyeballSet, GeoPoint, Probe

DEFAULT_CUMULATIVE_CAP = 0.95
DEFAULT_PER_AS_FLOOR = 0.01

#: covered_user_fraction quintile edges for the world-map color buckets
BUCKET_EDGES = (0.2, 0.4, 0.6, 0.8)


@dataclass(frozen=True)
class CoverageReport:
    eyeball_set: EyeballSet
    probe_counts: dict[int, int]  # covered asn -> probes in it
    covered_user_fraction: float

    def to_dict(self) -> dict:
        return {
            "country": self.eyeball_set.country,
            "country_users": self.eyeball_set.country_users,
            "capital": self.eyeball_set.capital.to_dict(),
            "covered_fraction": self.eyeball_set.covered_fraction,
            "covered_user_fraction": self.covered_user_fraction,
            "networks": [
                {
                    **net.to_dict(),
                    "covered": net.asn in self.probe_counts,
                    "probe_count": self.probe_counts.get(net.asn, 0),
                }
                for net in self.eyeball_set.networks
            ],
        }


def check_thresholds(cumulative_cap: float, per_as_floor: float) -> None:
    """Raise ValueError unless both selection thresholds lie in (0,1]."""
    if not 0.0 < cumulative_cap <= 1.0:
        raise ValueError(f"cumulative_cap out of (0,1]: {cumulative_cap}")
    if not 0.0 < per_as_floor <= 1.0:
        raise ValueError(f"per_as_floor out of (0,1]: {per_as_floor}")


def select_dominant_networks(
    rows: Iterable[PopulationEstimateRow],
    country_users: int,
    capital: GeoPoint,
    cumulative_cap: float = DEFAULT_CUMULATIVE_CAP,
    per_as_floor: float = DEFAULT_PER_AS_FLOOR,
) -> EyeballSet:
    """Pick the country's dominant eyeball networks as an EyeballSet.

    Candidates are ranked by descending user fraction (ties by ascending AS
    number). Fractions arrive as percentages and are converted to [0,1]
    here, exactly once. Raises EmptyInput when no rows are given and
    ValueError for mixed-country rows, out-of-range thresholds, or candidate
    fractions summing above 1.
    """
    rows = list(rows)
    if not rows:
        raise EmptyInput("no population rows for selection")
    check_thresholds(cumulative_cap, per_as_floor)
    country = rows[0].country
    if any(r.country != country for r in rows):
        raise ValueError("selection rows span multiple countries")
    if math.fsum(r.fraction_percent for r in rows) > 100.0 + 1e-6:
        raise ValueError("population fractions for one country exceed 100%")

    candidates = sorted(rows, key=lambda r: (-r.fraction_percent, r.asn))
    admitted: list[EyeballNetwork] = []
    cumulative = 0.0
    for row in candidates:
        fraction = row.fraction_percent / 100.0
        if fraction < per_as_floor:
            break
        if cumulative >= cumulative_cap:
            break
        admitted.append(EyeballNetwork.build(row.asn, fraction, country_users))
        cumulative += fraction
    return EyeballSet.from_networks(country, country_users, capital, admitted)


def compute_probe_coverage(eyeball_set: EyeballSet, probes: Iterable[Probe]) -> CoverageReport:
    """Count the probes in each of the set's networks that has any."""
    counts = Counter(probe.asn_v4 for probe in probes)
    covered = [net for net in eyeball_set.networks if counts[net.asn] > 0]
    return CoverageReport(
        eyeball_set=eyeball_set,
        probe_counts={net.asn: counts[net.asn] for net in covered},
        covered_user_fraction=math.fsum(net.user_fraction for net in covered),
    )


def coverage_bucket(covered_user_fraction: float) -> int:
    """Fixed quintile bucket 1..5 of the covered-user fraction."""
    bucket = 1
    for edge in BUCKET_EDGES:
        if covered_user_fraction >= edge:
            bucket += 1
    return bucket


def coverage_world_report(reports: Iterable[CoverageReport]) -> list[tuple[str, float, int]]:
    """(country, covered_user_fraction, bucket) rows sorted by country code."""
    return [
        (r.eyeball_set.country, r.covered_user_fraction, coverage_bucket(r.covered_user_fraction))
        for r in sorted(reports, key=lambda r: r.eyeball_set.country)
    ]


def format_coverage_report(report: CoverageReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def format_world_csv(rows: list[tuple[str, float, int]]) -> str:
    out = ["country,covered_fraction,bucket"]
    out += [f"{country},{fraction:.4f},{bucket}" for country, fraction, bucket in rows]
    return "\n".join(out) + "\n"
