import math
import random

import pytest

from eyeball_jedi.coverage import (
    compute_probe_coverage,
    coverage_bucket,
    coverage_world_report,
    format_world_csv,
    select_dominant_networks,
)
from eyeball_jedi.errors import EmptyInput
from eyeball_jedi.ingest import PopulationEstimateRow
from eyeball_jedi.model import GeoPoint, Probe

CAPITAL = GeoPoint(50.0, 8.0)


def rows(percents, country="XX", first_asn=65001):
    return [
        PopulationEstimateRow(country, first_asn + i, pct)
        for i, pct in enumerate(percents)
    ]


def probe(pid, asn):
    return Probe(id=pid, asn_v4=asn, location=CAPITAL, public_address_v4="20.1.0.1")


class TestSelectDominantNetworks:
    def test_three_networks_all_admitted(self):
        es = select_dominant_networks(rows([50.0, 30.0, 20.0]), 1_000_000, CAPITAL)
        assert len(es.networks) == 3
        assert es.covered_fraction == 1.0

    def test_two_networks_all_admitted(self):
        # cumulative before the second network is 0.60 < 0.95, so it joins
        es = select_dominant_networks(rows([60.0, 40.0]), 1_000_000, CAPITAL)
        assert es.asns == (65001, 65002)
        assert es.covered_fraction == 1.0

    def test_cap_crossing_network_included_then_stop(self):
        # 40 + 25 + 20 + 11 = 96: the 11% network crosses the 95% cap and is
        # kept; the next one sees cumulative 0.96 >= cap and is dropped
        es = select_dominant_networks(rows([40.0, 25.0, 20.0, 11.0, 3.0]), 1_000_000, CAPITAL)
        assert es.asns == (65001, 65002, 65003, 65004)
        assert abs(es.covered_fraction - 0.96) < 1e-12

    def test_floor_stops_iteration(self):
        es = select_dominant_networks(rows([50.0, 0.5, 30.0]), 1_000_000, CAPITAL)
        # sorted order is 50, 30, 0.5; the 0.5% network fails the 1% floor
        assert es.asns == (65001, 65003)

    def test_ties_broken_by_ascending_asn(self):
        tied = [
            PopulationEstimateRow("XX", 65005, 20.0),
            PopulationEstimateRow("XX", 65001, 20.0),
            PopulationEstimateRow("XX", 65003, 60.0),
        ]
        es = select_dominant_networks(tied, 1_000_000, CAPITAL)
        assert es.asns == (65003, 65001, 65005)

    def test_sixteen_networks_sum_0845(self):
        thousandths = [210, 100, 90, 80, 70, 60, 50, 40, 30, 25, 20, 20, 15, 15, 10, 10]
        percents = [v / 10.0 for v in thousandths]
        es = select_dominant_networks(rows(percents), 33_000_000, CAPITAL)
        assert len(es.networks) == 16
        assert es.covered_fraction == 0.845

    def test_permutation_invariant(self):
        base = rows([40.0, 25.0, 20.0, 11.0, 3.0, 0.5])
        expected = select_dominant_networks(base, 1_000_000, CAPITAL)
        rng = random.Random(7)
        for _ in range(10):
            shuffled = base[:]
            rng.shuffle(shuffled)
            assert select_dominant_networks(shuffled, 1_000_000, CAPITAL) == expected

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            select_dominant_networks([], 1_000_000, CAPITAL)

    def test_mixed_countries_rejected(self):
        mixed = rows([50.0]) + rows([50.0], country="YY", first_asn=65009)
        with pytest.raises(ValueError, match="countries"):
            select_dominant_networks(mixed, 1_000_000, CAPITAL)

    @pytest.mark.parametrize("kwargs", [
        {"cumulative_cap": 0.0},
        {"cumulative_cap": 1.5},
        {"per_as_floor": 0.0},
        {"per_as_floor": -0.1},
    ])
    def test_thresholds_validated(self, kwargs):
        with pytest.raises(ValueError):
            select_dominant_networks(rows([50.0]), 1_000_000, CAPITAL, **kwargs)

    def test_percentages_over_100_rejected(self):
        with pytest.raises(ValueError, match="100"):
            select_dominant_networks(rows([70.0, 40.0]), 1_000_000, CAPITAL)

    def test_never_admits_below_floor(self):
        rng = random.Random(99)
        for _ in range(50):
            percents = [round(rng.uniform(0.05, 30.0), 3) for _ in range(rng.randrange(1, 12))]
            if sum(percents) > 100.0:
                continue
            floor = rng.choice([0.01, 0.02, 0.05])
            es = select_dominant_networks(
                rows(percents), 1_000_000, CAPITAL, per_as_floor=floor
            )
            assert all(n.user_fraction >= floor for n in es.networks)

    def test_admitted_is_prefix_of_sorted_candidates(self):
        rng = random.Random(100)
        for _ in range(50):
            percents = [round(rng.uniform(0.05, 30.0), 3) for _ in range(rng.randrange(1, 12))]
            if sum(percents) > 100.0:
                continue
            candidate_rows = rows(percents)
            es = select_dominant_networks(candidate_rows, 1_000_000, CAPITAL)
            ranked = sorted(candidate_rows, key=lambda r: (-r.fraction_percent, r.asn))
            assert [n.asn for n in es.networks] == [r.asn for r in ranked[: len(es.networks)]]


class TestComputeProbeCoverage:
    def test_one_selectable_probe_covers(self):
        es = select_dominant_networks(rows([25.0, 75.0]), 33_000_000, CAPITAL)
        report = compute_probe_coverage(es, [probe(1, 65001)])
        assert report.probe_counts == {65001: 1}
        assert abs(report.covered_user_fraction - 0.25) < 1e-9

    def test_partition_and_exact_user_sums(self):
        es = select_dominant_networks(rows([40.0, 25.0, 20.0, 11.0]), 9_999_999, CAPITAL)
        probes = [probe(1, 65001), probe(2, 65001), probe(4, 65004)]
        report = compute_probe_coverage(es, probes)
        assert report.probe_counts == {65001: 2, 65004: 1}
        networks = report.to_dict()["networks"]
        assert {n["asn"]: n["probe_count"] for n in networks} == {65001: 2, 65002: 0, 65003: 0, 65004: 1}
        assert all(n["covered"] == (n["probe_count"] > 0) for n in networks)
        covered = sum(n["estimated_users"] for n in networks if n["covered"])
        uncovered = sum(n["estimated_users"] for n in networks if not n["covered"])
        assert covered + uncovered == sum(n.estimated_users for n in es.networks)

    def test_covered_fraction_sums_covered_networks(self):
        es = select_dominant_networks(rows([40.0, 25.0, 20.0]), 1_000_000, CAPITAL)
        report = compute_probe_coverage(es, [probe(1, 65001), probe(2, 65002)])
        assert abs(report.covered_user_fraction - 0.65) < 1e-9


class TestWorldReport:
    @pytest.mark.parametrize(
        "fraction,bucket",
        [(0.0, 1), (0.19, 1), (0.2, 2), (0.39, 2), (0.4, 3), (0.6, 4), (0.79, 4), (0.8, 5), (0.81, 5), (1.0, 5)],
    )
    def test_bucket_boundaries(self, fraction, bucket):
        assert coverage_bucket(fraction) == bucket

    def test_rows_sorted_by_country(self):
        def report_for(country, fractions, probes):
            es = select_dominant_networks(
                rows(fractions, country=country), 1_000_000, CAPITAL
            )
            return compute_probe_coverage(es, probes)

        reports = [
            report_for("NL", [50.0, 50.0], [probe(1, 65001)]),
            report_for("CA", [100.0], [probe(2, 65001)]),
            report_for("DE", [80.0, 20.0], []),
        ]
        table = coverage_world_report(reports)
        assert [row[0] for row in table] == ["CA", "DE", "NL"]
        csv_text = format_world_csv(table)
        assert csv_text.splitlines()[0] == "country,covered_fraction,bucket"
        assert csv_text.splitlines()[1] == "CA,1.0000,5"
        assert csv_text.splitlines()[3] == "NL,0.5000,3"
