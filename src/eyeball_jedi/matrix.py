"""AS-to-AS matrix assembly and area-weighted summary metrics.

Cell areas are products of the two networks' user fractions, normalized so
the whole country's ordered user pairs have area 1. The part of that unit
square not spanned by selected networks is the unexamined share,
1 - (covered fraction)^2; diagonal cells (intra-AS user pairs) take part in
every sum.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping, Sequence

from .errors import MalformedMatrix, UnknownAsnInVerdicts
from .ingest import _json, _json_number, load_json
from .model import (
    CellVerdict,
    Directness,
    DirectnessVerdict,
    EyeballMatrix,
    EyeballNetwork,
    EyeballSet,
    GeoPoint,
    Locality,
    LocalityVerdict,
    MetricsSummary,
    PathClassification,
)
from .paths import classify_pair
from .selection import ProbeSelection


def build_matrix(
    eyeball_set: EyeballSet,
    selection: ProbeSelection,
    evidence: Mapping[tuple[int, int], Sequence[tuple[str, PathClassification]]],
) -> EyeballMatrix:
    """Assemble the full n x n matrix from per-pair run evidence.

    Every ordered pair whose two networks both have selected probes is
    classified from its evidence, Undetermined when it has none. Every
    pair touching a network without probes becomes a NoCoverage cell.
    Evidence naming any other pair is refused.
    """
    fraction = {n.asn: n.user_fraction for n in eyeball_set.networks}
    covered = set(selection.per_asn)
    for s, d in evidence:
        if s not in fraction or d not in fraction or s not in covered or d not in covered:
            raise UnknownAsnInVerdicts(f"verdict for pair ({s}, {d}) outside covered matrix pairs")
    cells = {}
    for s in eyeball_set.asns:
        for d in eyeball_set.asns:
            weight = fraction[s] * fraction[d]
            if s in covered and d in covered:
                cells[(s, d)] = classify_pair(s, d, weight, evidence.get((s, d), ()))
            else:
                cells[(s, d)] = CellVerdict(
                    s, d, LocalityVerdict.NO_COVERAGE, DirectnessVerdict.NOT_APPLICABLE, weight
                )
    return EyeballMatrix(eyeball_set=eyeball_set, cells=cells)


def compute_metrics(matrix: EyeballMatrix) -> MetricsSummary:
    """Sum cell areas per locality verdict and derive the unexamined share."""
    buckets: dict[LocalityVerdict, list[float]] = {v: [] for v in LocalityVerdict}
    indirect: list[float] = []
    for cell in matrix.cells.values():
        buckets[cell.locality].append(cell.area_weight)
        if cell.directness is DirectnessVerdict.INDIRECT:
            indirect.append(cell.area_weight)
    covered = matrix.eyeball_set.covered_fraction
    return MetricsSummary(
        in_country_area=math.fsum(buckets[LocalityVerdict.IN_COUNTRY]),
        out_of_country_area=math.fsum(buckets[LocalityVerdict.OUT_OF_COUNTRY]),
        no_coverage_area=math.fsum(buckets[LocalityVerdict.NO_COVERAGE]),
        inconsistent_area=math.fsum(buckets[LocalityVerdict.INCONSISTENT]),
        undetermined_area=math.fsum(buckets[LocalityVerdict.UNDETERMINED]),
        unexamined_area=1.0 - covered * covered,
        indirect_area=math.fsum(indirect),
    )


def mixed_area(matrix: EyeballMatrix) -> float:
    """Area of cells whose probes disagreed on directness (reported apart)."""
    return math.fsum(
        c.area_weight for c in matrix.cells.values() if c.directness is DirectnessVerdict.MIXED
    )


_REPORT_LABELS = {
    "in_country": "in-country",
    "out_of_country": "out-of-country",
    "inconsistent": "inconsistent",
    "undetermined": "undetermined",
    "no_coverage": "no-coverage",
    "unexamined": "unexamined",
    "indirect": "indirect",
}


def summarize(matrix: EyeballMatrix, metrics: MetricsSummary) -> list[str]:
    """Human-readable report: one percentage line per category, then the
    locality asymmetries between mirrored cells."""
    lines = [
        f"{_REPORT_LABELS[name]}: {100.0 * area:.1f}%"
        for name, area in metrics.as_rows()
    ]
    lines.append(f"mixed: {100.0 * mixed_area(matrix):.1f}%")
    asns = matrix.eyeball_set.asns
    asymmetries = []
    for i, src in enumerate(asns):
        for dst in asns[i + 1 :]:
            fwd = matrix.cell(src, dst)
            rev = matrix.cell(dst, src)
            if fwd.locality is not rev.locality:
                asymmetries.append(
                    f"asymmetry: AS{src}->AS{dst} {fwd.locality.value} / "
                    f"AS{dst}->AS{src} {rev.locality.value}"
                )
    if asymmetries:
        lines.extend(asymmetries)
    else:
        lines.append("asymmetries: none")
    return lines


def eyeball_set_fields(eyeball_set: EyeballSet) -> dict[str, Any]:
    """The eyeball set's keys, which matrix_<CC>.json and coverage_<CC>.json share."""
    capital = eyeball_set.capital
    return {
        "country": eyeball_set.country,
        "country_users": eyeball_set.country_users,
        "capital": {"latitude": capital.latitude, "longitude": capital.longitude},
        "covered_fraction": eyeball_set.covered_fraction,
        "networks": [
            {"asn": n.asn, "user_fraction": n.user_fraction, "estimated_users": n.estimated_users}
            for n in eyeball_set.networks
        ],
    }


def format_matrix(matrix: EyeballMatrix) -> str:
    """matrix_<CC>.json body: the eyeball set's fields, then the cells row-major."""
    doc = eyeball_set_fields(matrix.eyeball_set)
    asns = matrix.eyeball_set.asns
    doc["cells"] = [
        {
            "src_asn": cell.src_asn,
            "dst_asn": cell.dst_asn,
            "locality": cell.locality.value,
            "directness": cell.directness.value,
            "area_weight": cell.area_weight,
            "evidence": [
                {"measurement": mid, "locality": cls.locality.value, "directness": cls.directness.value}
                for mid, cls in cell.evidence
            ],
        }
        for cell in (matrix.cells[(s, d)] for s in asns for d in asns)
    ]
    return json.dumps(doc, indent=2) + "\n"


def load_matrix(text: str | bytes) -> EyeballMatrix:
    """Read a format_matrix document; raise an IngestError if it is not one.

    Every key that format_matrix writes is required, with the JSON type it
    writes; nothing is converted, and a cell may appear once.
    """
    doc = load_json(text)
    try:
        capital = doc["capital"]
        networks = [
            EyeballNetwork(
                _json(n, "asn", int), _json_number(n, "user_fraction"), _json(n, "estimated_users", int)
            )
            for n in _json(doc, "networks", list)
        ]
        eyeball_set = EyeballSet(
            _json(doc, "country", str),
            _json(doc, "country_users", int),
            GeoPoint(_json_number(capital, "latitude"), _json_number(capital, "longitude")),
            networks,
            _json_number(doc, "covered_fraction"),
        )
        cells = {}
        for c in _json(doc, "cells", list):
            evidence = [
                (
                    _json(e, "measurement", str),
                    PathClassification(
                        Locality(_json(e, "locality", str)), Directness(_json(e, "directness", str))
                    ),
                )
                for e in _json(c, "evidence", list)
            ]
            cell = CellVerdict(
                _json(c, "src_asn", int),
                _json(c, "dst_asn", int),
                LocalityVerdict(_json(c, "locality", str)),
                DirectnessVerdict(_json(c, "directness", str)),
                _json_number(c, "area_weight"),
                evidence,
            )
            if (cell.src_asn, cell.dst_asn) in cells:
                raise ValueError(f"cell {(cell.src_asn, cell.dst_asn)} repeated")
            cells[(cell.src_asn, cell.dst_asn)] = cell
        return EyeballMatrix(eyeball_set, cells)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedMatrix(f"not a matrix document: {exc!r}") from exc


def format_metrics_csv(metrics: MetricsSummary) -> str:
    out = ["category,area_fraction"]
    out += [f"{name},{area:.4f}" for name, area in metrics.as_rows()]
    return "\n".join(out) + "\n"
