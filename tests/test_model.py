import math

import pytest

from eyeball_jedi.model import (
    ASN_MAX,
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
    Traceroute,
    check_asn,
    check_country_code,
)
from eyeball_jedi.matrix import format_matrix, load_matrix

CAPITAL = GeoPoint(50.0, 8.0)


def net(asn, fraction, users=10_000_000):
    return EyeballNetwork.build(asn, fraction, users)


def eyeball_set(fractions, country="XX", users=10_000_000, capital=CAPITAL):
    networks = [net(65001 + i, f, users) for i, f in enumerate(fractions)]
    return EyeballSet.from_networks(country, users, capital, networks)


def undetermined_matrix(es):
    """Every cell of the set Undetermined, without evidence."""
    cells = {
        (s, d): CellVerdict(
            s, d, LocalityVerdict.UNDETERMINED, DirectnessVerdict.NOT_APPLICABLE, area(es, s, d)
        )
        for s in es.asns
        for d in es.asns
    }
    return EyeballMatrix(es, cells)


def reread(matrix):
    """The matrix written by format_matrix and read back by load_matrix."""
    return load_matrix(format_matrix(matrix))


def area(es, src, dst):
    """A cell's area: the product of its two networks' user fractions."""
    fraction = {n.asn: n.user_fraction for n in es.networks}
    return fraction[src] * fraction[dst]


class TestValidators:
    def test_country_code_accepts_two_uppercase_letters(self):
        assert check_country_code("DE") == "DE"

    @pytest.mark.parametrize("bad", ["de", "DEU", "D", "", "D1", 12, None])
    def test_country_code_rejects_other_shapes(self, bad):
        with pytest.raises(ValueError):
            check_country_code(bad)

    def test_asn_accepts_full_32bit_range(self):
        assert check_asn(1) == 1
        assert check_asn(ASN_MAX) == ASN_MAX

    @pytest.mark.parametrize("bad", [0, -1, ASN_MAX + 1, True, "65001", None])
    def test_asn_rejects_out_of_range_and_non_ints(self, bad):
        with pytest.raises(ValueError):
            check_asn(bad)


class TestGeoPoint:
    def test_range_validated(self):
        GeoPoint(90.0, 180.0)
        GeoPoint(-90.0, -180.0)
        with pytest.raises(ValueError):
            GeoPoint(90.1, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, -180.5)

    def test_dict_round_trip(self):
        p = GeoPoint(48.8566, 2.3522)
        assert reread(undetermined_matrix(eyeball_set([1.0], capital=p))).eyeball_set.capital == p


class TestEyeballNetwork:
    def test_build_floors_user_estimate(self):
        # 0.25 * 33,000,000 = 8,250,000 exactly
        assert net(65001, 0.25, users=33_000_000).estimated_users == 8_250_000
        # 0.333 * 1000 = 333.0 -> 333, never rounded up
        assert net(65001, 0.333, users=1000).estimated_users == 333

    def test_fraction_range_enforced(self):
        with pytest.raises(ValueError):
            EyeballNetwork(asn=65001, user_fraction=1.5, estimated_users=0)


class TestEyeballSet:
    def test_from_networks_sorts_desc_fraction_then_asc_asn(self):
        networks = [net(65003, 0.2), net(65001, 0.2), net(65002, 0.5)]
        es = EyeballSet.from_networks("XX", 10_000_000, CAPITAL, networks)
        assert es.asns == (65002, 65001, 65003)

    def test_covered_fraction_is_exact_sum(self):
        es = eyeball_set([0.6, 0.4])
        assert es.covered_fraction == 1.0

    def test_wrong_order_rejected(self):
        networks = (net(65001, 0.2), net(65002, 0.5))
        with pytest.raises(ValueError, match="ordered"):
            EyeballSet("XX", 10_000_000, CAPITAL, networks, 0.7)

    def test_duplicate_asn_rejected(self):
        networks = (net(65001, 0.5), net(65001, 0.2))
        with pytest.raises(ValueError, match="duplicate"):
            EyeballSet("XX", 10_000_000, CAPITAL, networks, 0.7)

    def test_covered_fraction_mismatch_rejected(self):
        networks = (net(65001, 0.5),)
        with pytest.raises(ValueError, match="covered_fraction"):
            EyeballSet("XX", 10_000_000, CAPITAL, networks, 0.6)

    def test_dict_round_trip(self):
        es = eyeball_set([0.5, 0.3, 0.1])
        assert reread(undetermined_matrix(es)).eyeball_set == es


class TestTraceroute:
    def test_measurement_id_format(self):
        tr = Traceroute(11, 22, 65001, 65002, 4, 1700000000, ("20.2.0.1",))
        assert tr.measurement_id == "11>22@1700000000"

    def test_address_family_checked(self):
        with pytest.raises(ValueError, match="address_family"):
            Traceroute(1, 2, 65001, 65002, 5, 0, ("20.2.0.1",))


class TestCellVerdict:
    def test_no_coverage_forces_not_applicable(self):
        with pytest.raises(ValueError, match="NotApplicable"):
            CellVerdict(65001, 65002, LocalityVerdict.NO_COVERAGE, DirectnessVerdict.DIRECT, 0.1)

    def test_no_coverage_rejects_evidence(self):
        evid = (("1>2@0", PathClassification(Locality.IN_COUNTRY, Directness.DIRECT)),)
        with pytest.raises(ValueError, match="evidence"):
            CellVerdict(
                65001,
                65002,
                LocalityVerdict.NO_COVERAGE,
                DirectnessVerdict.NOT_APPLICABLE,
                0.1,
                evid,
            )

    def test_dict_round_trip_preserves_evidence(self):
        evid = (
            ("1>2@5", PathClassification(Locality.IN_COUNTRY, Directness.DIRECT)),
            ("2>1@6", PathClassification(Locality.OUT_OF_COUNTRY, Directness.INDIRECT)),
        )
        es = eyeball_set([0.5, 0.5])
        cells = dict(undetermined_matrix(es).cells)
        cell = CellVerdict(
            65001, 65002, LocalityVerdict.INCONSISTENT, DirectnessVerdict.MIXED, 0.25, evid
        )
        cells[(65001, 65002)] = cell
        assert reread(EyeballMatrix(es, cells)).cell(65001, 65002) == cell


class TestEyeballMatrix:
    def build(self, fractions):
        return undetermined_matrix(eyeball_set(fractions))

    def test_complete_square_accepted(self):
        m = self.build([0.5, 0.3])
        assert len(m.ordered_cells()) == 4

    def test_missing_cell_rejected(self):
        es = eyeball_set([0.5, 0.3])
        cells = {
            (s, d): CellVerdict(
                s, d, LocalityVerdict.UNDETERMINED, DirectnessVerdict.NOT_APPLICABLE,
                area(es, s, d),
            )
            for s in es.asns
            for d in es.asns
        }
        del cells[(65001, 65002)]
        with pytest.raises(ValueError, match="n\\^2"):
            EyeballMatrix(es, cells)

    def test_wrong_area_weight_rejected(self):
        es = eyeball_set([0.5, 0.3])
        cells = {
            (s, d): CellVerdict(
                s, d, LocalityVerdict.UNDETERMINED, DirectnessVerdict.NOT_APPLICABLE, 0.1
            )
            for s in es.asns
            for d in es.asns
        }
        with pytest.raises(ValueError, match="area_weight"):
            EyeballMatrix(es, cells)

    def test_mismatched_cell_key_rejected(self):
        es = eyeball_set([0.5, 0.3])
        good = {
            (s, d): CellVerdict(
                s, d, LocalityVerdict.UNDETERMINED, DirectnessVerdict.NOT_APPLICABLE,
                area(es, s, d),
            )
            for s in es.asns
            for d in es.asns
        }
        good[(65001, 65002)] = good[(65002, 65001)]
        with pytest.raises(ValueError, match="names pair"):
            EyeballMatrix(es, good)

    def test_ordered_cells_row_major(self):
        m = self.build([0.5, 0.3])
        pairs = [(c.src_asn, c.dst_asn) for c in m.ordered_cells()]
        assert pairs == [(65001, 65001), (65001, 65002), (65002, 65001), (65002, 65002)]

    def test_dict_round_trip(self):
        m = self.build([0.5, 0.3])
        again = reread(m)
        assert again == m
        assert again.to_dict() == m.to_dict()


class TestMetricsSummary:
    def test_partition_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            MetricsSummary(0.5, 0.0, 0.0, 0.0, 0.0, 0.4, 0.0)

    def test_indirect_bounded_by_measured_area(self):
        with pytest.raises(ValueError, match="indirect"):
            MetricsSummary(0.1, 0.0, 0.5, 0.0, 0.0, 0.4, 0.2)

    def test_as_rows_reporting_order(self):
        m = MetricsSummary(0.5, 0.1, 0.2, 0.05, 0.05, 0.1, 0.3)
        assert [name for name, _ in m.as_rows()] == [
            "in_country",
            "out_of_country",
            "inconsistent",
            "undetermined",
            "no_coverage",
            "unexamined",
            "indirect",
        ]

    def test_fsum_keeps_exact_partitions(self):
        # 0.5 + 0.3 + 0.2 accumulates rounding error left to right but the
        # compensated sum is exactly 1.0
        assert math.fsum([0.5, 0.3, 0.2]) == 1.0
        MetricsSummary(0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.1)
