"""Matrix assembly, area metrics, report text, and serialization."""

import json
import math

import pytest
from oracles import (
    COVERED_FRACTION_181,
    UNCOVERED_FRACTION_181,
    UNEXAMINED_0845,
)

from eyeball_jedi.errors import UnknownAsnInVerdicts
from eyeball_jedi.matrix import (
    build_matrix,
    compute_metrics,
    format_matrix,
    format_metrics_csv,
    load_matrix,
    mixed_area,
    summarize,
)
from eyeball_jedi.model import (
    Directness,
    DirectnessVerdict,
    EyeballNetwork,
    EyeballSet,
    GeoPoint,
    Locality,
    LocalityVerdict,
    PathClassification,
    Probe,
)
from eyeball_jedi.selection import ProbeSelection

CAPITAL = GeoPoint(50.0, 8.0)

IN_DIRECT = PathClassification(Locality.IN_COUNTRY, Directness.DIRECT)
IN_INDIRECT = PathClassification(Locality.IN_COUNTRY, Directness.INDIRECT)
OUT_DIRECT = PathClassification(Locality.OUT_OF_COUNTRY, Directness.DIRECT)


def make_set(fractions, country="XX", first_asn=65001):
    nets = [
        EyeballNetwork.build(first_asn + i, country, f, 10_000_000)
        for i, f in enumerate(fractions)
    ]
    return EyeballSet.from_networks(country, 10_000_000, CAPITAL, nets)


def make_selection(eyeball_set, covered_asns=None):
    """Selection with one dummy probe pair per covered network."""
    asns = eyeball_set.asns if covered_asns is None else covered_asns
    per_asn = {}
    for i, asn in enumerate(asns):
        probe = Probe(
            id=100 + i,
            asn_v4=asn,
            location=CAPITAL,
            public_address_v4="20.1.0.1",
            is_public=True,
            is_connected=True,
        )
        per_asn[asn] = (probe, probe)
    return ProbeSelection(per_asn=per_asn)


class TestBuildMatrix:
    def test_two_networks_make_four_cells(self):
        es = make_set([0.6, 0.4])
        matrix = build_matrix(es, make_selection(es), {})
        assert len(matrix.cells) == 4
        assert set(matrix.cells) == {(s, d) for s in es.asns for d in es.asns}

    def test_sixteen_networks_make_256_cells(self):
        es = make_set([0.05] * 16)
        matrix = build_matrix(es, make_selection(es), {})
        assert len(matrix.cells) == 256

    def test_verdicts_are_inserted(self):
        es = make_set([0.6, 0.4])
        matrix = build_matrix(es, make_selection(es), {(65001, 65002): [("m1", IN_DIRECT)]})
        cell = matrix.cell(65001, 65002)
        assert cell.locality is LocalityVerdict.IN_COUNTRY
        assert cell.directness is DirectnessVerdict.DIRECT
        assert cell.evidence == (("m1", IN_DIRECT),)

    def test_covered_pairs_without_verdict_fall_back_to_undetermined(self):
        es = make_set([0.6, 0.4])
        matrix = build_matrix(es, make_selection(es), {})
        cell = matrix.cell(65001, 65002)
        assert cell.locality is LocalityVerdict.UNDETERMINED
        assert cell.directness is DirectnessVerdict.NOT_APPLICABLE

    def test_uncovered_network_yields_no_coverage_row_and_column(self):
        es = make_set([0.6, 0.4])
        matrix = build_matrix(es, make_selection(es, covered_asns=[65001]), {})
        no_cov = [p for p, c in matrix.cells.items() if c.locality is LocalityVerdict.NO_COVERAGE]
        assert sorted(no_cov) == [(65001, 65002), (65002, 65001), (65002, 65002)]

    def test_uncovered_pair_is_no_coverage(self):
        es = make_set([0.6, 0.4])
        selection = make_selection(es, covered_asns=[65001])
        cell = build_matrix(es, selection, {}).cell(65001, 65002)
        assert cell.locality is LocalityVerdict.NO_COVERAGE
        assert cell.directness is DirectnessVerdict.NOT_APPLICABLE
        assert cell.evidence == ()
        assert cell.area_weight == pytest.approx(0.24)
        with pytest.raises(UnknownAsnInVerdicts):
            build_matrix(es, selection, {(65001, 65002): [("m1", IN_DIRECT)]})

    def test_area_weights_are_fraction_products(self):
        es = make_set([0.6, 0.4])
        matrix = build_matrix(es, make_selection(es), {})
        assert matrix.cell(65001, 65001).area_weight == pytest.approx(0.36)
        assert matrix.cell(65001, 65002).area_weight == pytest.approx(0.24)
        assert matrix.cell(65002, 65002).area_weight == pytest.approx(0.16)

    def test_verdict_for_foreign_asn_rejected(self):
        es = make_set([0.6, 0.4])
        with pytest.raises(UnknownAsnInVerdicts, match="64999"):
            build_matrix(es, make_selection(es), {(64999, 65001): [("m1", IN_DIRECT)]})

    def test_verdict_for_uncovered_member_rejected(self):
        es = make_set([0.6, 0.4])
        with pytest.raises(UnknownAsnInVerdicts):
            build_matrix(
                es, make_selection(es, covered_asns=[65001]), {(65002, 65001): [("m1", IN_DIRECT)]}
            )


class TestComputeMetrics:
    def test_single_full_network_all_in_country(self):
        es = make_set([1.0])
        matrix = build_matrix(es, make_selection(es), {(65001, 65001): [("m1", IN_DIRECT)]})
        metrics = compute_metrics(matrix)
        assert metrics.in_country_area == 1.0
        assert metrics.unexamined_area == 0.0
        assert metrics.no_coverage_area == 0.0

    def test_sixteen_network_unexamined_share(self):
        thousandths = [210, 100, 90, 80, 70, 60, 50, 40, 30, 25, 20, 20, 15, 15, 10, 10]
        es = make_set([t / 1000.0 for t in thousandths])
        assert es.covered_fraction == 0.845
        matrix = build_matrix(es, make_selection(es), {})
        metrics = compute_metrics(matrix)
        assert metrics.unexamined_area == UNEXAMINED_0845

    def test_no_coverage_identity_fixture(self):
        # one covered and one uncovered member chosen so the no-coverage
        # band holds 18.1% of the square
        es = make_set([COVERED_FRACTION_181, UNCOVERED_FRACTION_181])
        matrix = build_matrix(es, make_selection(es, covered_asns=[65001]), {})
        metrics = compute_metrics(matrix)
        assert abs(metrics.no_coverage_area - 0.181) < 1e-12
        parts = [
            metrics.in_country_area,
            metrics.out_of_country_area,
            metrics.no_coverage_area,
            metrics.inconsistent_area,
            metrics.undetermined_area,
            metrics.unexamined_area,
        ]
        assert abs(math.fsum(parts) - 1.0) < 1e-9

    def test_categories_partition_unity(self):
        es = make_set([0.5, 0.3, 0.1])
        evidence = {
            (65001, 65001): [("1", IN_DIRECT)],
            (65001, 65002): [("2", OUT_DIRECT)],
            (65002, 65001): [("3", IN_DIRECT), ("4", OUT_DIRECT)],
        }
        matrix = build_matrix(es, make_selection(es, covered_asns=[65001, 65002]), evidence)
        metrics = compute_metrics(matrix)
        total = math.fsum(
            [
                metrics.in_country_area,
                metrics.out_of_country_area,
                metrics.no_coverage_area,
                metrics.inconsistent_area,
                metrics.undetermined_area,
                metrics.unexamined_area,
            ]
        )
        assert abs(total - 1.0) < 1e-9
        assert metrics.inconsistent_area == pytest.approx(0.15)

    def test_indirect_counts_consensus_only(self):
        es = make_set([0.6, 0.4])
        evidence = {
            (65001, 65002): [("1", IN_INDIRECT)],
            (65002, 65001): [("2", IN_INDIRECT), ("3", IN_DIRECT)],
        }
        matrix = build_matrix(es, make_selection(es), evidence)
        metrics = compute_metrics(matrix)
        # only the unanimous indirect cell counts; the split cell is mixed
        assert metrics.indirect_area == pytest.approx(0.24)
        assert mixed_area(matrix) == pytest.approx(0.24)

    def test_diagonal_participates(self):
        es = make_set([0.6, 0.4])
        evidence = {
            (65001, 65001): [("1", IN_DIRECT)],
        }
        matrix = build_matrix(es, make_selection(es), evidence)
        metrics = compute_metrics(matrix)
        assert metrics.in_country_area == pytest.approx(0.36)

    def test_relabeling_asns_leaves_metrics_unchanged(self):
        for first_asn in (65001, 64512, 2000):
            es = make_set([0.5, 0.3], first_asn=first_asn)
            a, b = es.asns
            evidence = {
                (a, b): [("1", IN_DIRECT)],
                (b, a): [("2", OUT_DIRECT)],
            }
            matrix = build_matrix(es, make_selection(es), evidence)
            metrics = compute_metrics(matrix)
            assert metrics.in_country_area == pytest.approx(0.15)
            assert metrics.out_of_country_area == pytest.approx(0.15)
            assert metrics.unexamined_area == pytest.approx(1 - 0.64)


class TestSummarize:
    def test_category_lines_and_no_asymmetries(self):
        es = make_set([1.0])
        matrix = build_matrix(es, make_selection(es), {(65001, 65001): [("m1", IN_DIRECT)]})
        lines = summarize(matrix, compute_metrics(matrix))
        assert lines[0] == "in-country: 100.0%"
        assert "unexamined: 0.0%" in lines
        assert "mixed: 0.0%" in lines
        assert lines[-1] == "asymmetries: none"

    def test_asymmetry_line_format(self):
        es = make_set([0.6, 0.4])
        evidence = {
            (65001, 65002): [("1", IN_DIRECT)],
            (65002, 65001): [("2", OUT_DIRECT)],
        }
        matrix = build_matrix(es, make_selection(es), evidence)
        lines = summarize(matrix, compute_metrics(matrix))
        assert (
            "asymmetry: AS65001->AS65002 in_country / AS65002->AS65001 out_of_country"
            in lines
        )

    def test_symmetric_matrix_reports_none(self):
        es = make_set([0.6, 0.4])
        evidence = {
            (65001, 65002): [("1", IN_DIRECT)],
            (65002, 65001): [("2", IN_INDIRECT)],
        }
        matrix = build_matrix(es, make_selection(es), evidence)
        lines = summarize(matrix, compute_metrics(matrix))
        assert lines[-1] == "asymmetries: none"

    def test_percentages_rounded_to_one_decimal(self):
        es = make_set([0.5])
        matrix = build_matrix(es, make_selection(es), {})
        lines = summarize(matrix, compute_metrics(matrix))
        assert "undetermined: 25.0%" in lines
        assert "unexamined: 75.0%" in lines


class TestFormatting:
    def test_metrics_csv_layout(self):
        es = make_set([0.6, 0.4])
        matrix = build_matrix(es, make_selection(es), {(65001, 65001): [("1", IN_DIRECT)]})
        text = format_metrics_csv(compute_metrics(matrix))
        lines = text.splitlines()
        assert lines[0] == "category,area_fraction"
        assert lines[1] == "in_country,0.3600"
        assert lines[6] == "unexamined,0.0000"
        assert lines[7] == "indirect,0.0000"
        assert text.endswith("\n")

    def test_matrix_json_round_trip(self):
        es = make_set([0.6, 0.4])
        evidence = {
            (65001, 65002): [("11>22@1700000000", IN_DIRECT)],
        }
        matrix = build_matrix(es, make_selection(es), evidence)
        text = format_matrix(matrix)
        loaded = load_matrix(text)
        assert loaded.cells == matrix.cells
        assert loaded.eyeball_set == matrix.eyeball_set

    def test_matrix_json_excludes_timestamp(self):
        es = make_set([1.0])
        matrix = build_matrix(es, make_selection(es), {})
        payload = json.loads(format_matrix(matrix))
        assert "generated_at" not in payload
        assert "generatedAt" not in payload

    def test_matrix_json_row_major_cells(self):
        es = make_set([0.5, 0.3, 0.2])
        matrix = build_matrix(es, make_selection(es), {})
        payload = json.loads(format_matrix(matrix))
        pairs = [(c["src_asn"], c["dst_asn"]) for c in payload["cells"]]
        expected = [(s, d) for s in es.asns for d in es.asns]
        assert pairs == expected

    def test_load_matrix_accepts_bytes(self):
        es = make_set([1.0])
        matrix = build_matrix(es, make_selection(es), {})
        assert load_matrix(format_matrix(matrix).encode()) == matrix
