"""Per-network probe selection relative to the country capital.

For every eyeball network with at least one usable probe we keep two
vantage points: the probe closest to the capital and the one farthest from
it. Distance is great-circle on a 6371 km sphere; ranking only needs
relative distances, so no ellipsoid model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import EyeballSet, GeoPoint, Probe

EARTH_RADIUS_KM = 6371.0


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in kilometers."""
    lat1, lat2 = math.radians(a.latitude), math.radians(b.latitude)
    dlat = lat2 - lat1
    dlon = math.radians(b.longitude - a.longitude)
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


@dataclass(frozen=True)
class ProbeSelection:
    per_asn: Mapping[int, tuple[Probe, Probe]]  # asn -> (closest, farthest)

    def __post_init__(self):
        object.__setattr__(self, "per_asn", dict(self.per_asn))

    def probe_ids(self, asn: int) -> set[int]:
        pair = self.per_asn.get(asn)
        if pair is None:
            return set()
        return {pair[0].id, pair[1].id}


def select_probes(eyeball_set: EyeballSet, probes: Iterable[Probe]) -> ProbeSelection:
    """Pick the (closest, farthest) probe pair per member network.

    Only probes whose asn_v4 is a member network count; callers are
    expected to have filtered the list to probes located in the target
    country. Ties on distance go to the lower probe id, for both roles, so
    the result is independent of input order. Networks with no usable probe
    are simply absent from the result.
    """
    capital = eyeball_set.capital
    member_asns = set(eyeball_set.asns)
    by_asn: dict[int, list[tuple[float, Probe]]] = {}
    for probe in probes:
        if probe.asn_v4 not in member_asns:
            continue
        by_asn.setdefault(probe.asn_v4, []).append((haversine_km(probe.location, capital), probe))
    per_asn = {}
    for asn, candidates in by_asn.items():
        closest = min(candidates, key=lambda c: (c[0], c[1].id))[1]
        farthest = max(candidates, key=lambda c: (c[0], -c[1].id))[1]
        per_asn[asn] = (closest, farthest)
    return ProbeSelection(per_asn=per_asn)


def format_selection(selection: ProbeSelection, eyeball_set: EyeballSet) -> str:
    """probes_<CC>.json body: one entry per covered network, in matrix order."""
    entries = [
        {
            "asn": asn,
            "closest_probe": selection.per_asn[asn][0].id,
            "farthest_probe": selection.per_asn[asn][1].id,
        }
        for asn in eyeball_set.asns
        if asn in selection.per_asn
    ]
    return json.dumps(entries, indent=2) + "\n"
