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
from typing import Mapping

from .errors import JsonSyntaxError, MalformedMatrix, UnknownAsnInVerdicts
from .model import (
    CellVerdict,
    DirectnessVerdict,
    EyeballMatrix,
    EyeballSet,
    LocalityVerdict,
    MetricsSummary,
)
from .paths import classify_pair
from .selection import ProbeSelection


def build_matrix(
    eyeball_set: EyeballSet,
    selection: ProbeSelection,
    verdicts: Mapping[tuple[int, int], CellVerdict],
    generated_at: float = 0.0,
) -> EyeballMatrix:
    """Assemble the full n x n matrix from per-pair verdicts.

    Verdicts are expected for the ordered pairs whose two networks both have
    selected probes; a covered pair left without a verdict falls back to
    Undetermined. Every pair touching a network without probes becomes a
    NoCoverage cell. A verdict naming any other pair is refused.
    """
    fraction = {n.asn: n.user_fraction for n in eyeball_set.networks}
    covered = set(selection.per_asn)
    for s, d in verdicts:
        if s not in fraction or d not in fraction or s not in covered or d not in covered:
            raise UnknownAsnInVerdicts(f"verdict for pair ({s}, {d}) outside covered matrix pairs")
    cells = {}
    for s in eyeball_set.asns:
        for d in eyeball_set.asns:
            weight = fraction[s] * fraction[d]
            if (s, d) in verdicts:
                cells[(s, d)] = verdicts[(s, d)]
            elif s in covered and d in covered:
                cells[(s, d)] = classify_pair(s, d, weight, (), covered=True)
            else:
                cells[(s, d)] = classify_pair(s, d, weight, (), covered=False)
    return EyeballMatrix(eyeball_set=eyeball_set, cells=cells, generated_at=generated_at)


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


def format_matrix(matrix: EyeballMatrix) -> str:
    """matrix_<CC>.json body; excludes generated_at so output is reproducible."""
    return json.dumps(matrix.to_dict(), indent=2) + "\n"


def load_matrix(text: str | bytes) -> EyeballMatrix:
    """Read a format_matrix document; raise an IngestError if it is not one."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return EyeballMatrix.from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise JsonSyntaxError(exc.msg, line=exc.lineno) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedMatrix(f"not a matrix document: {exc!r}") from exc


def format_metrics_csv(metrics: MetricsSummary) -> str:
    out = ["category,area_fraction"]
    out += [f"{name},{area:.4f}" for name, area in metrics.as_rows()]
    return "\n".join(out) + "\n"
