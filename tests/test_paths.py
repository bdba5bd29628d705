"""AS-path extraction and per-pair classification."""

import random

import pytest

from eyeball_jedi.errors import EmptyTraceroute
from eyeball_jedi.lpm import LpmTable
from eyeball_jedi.model import (
    Directness,
    DirectnessVerdict,
    HopResponse,
    Locality,
    LocalityVerdict,
    PathClassification,
    Traceroute,
    TracerouteHop,
)
from oracles import fixpoint_normalize

from eyeball_jedi.paths import (
    UNKNOWN_HOP,
    AsPath,
    classify_directness,
    classify_locality,
    classify_pair,
    classify_traceroute,
    extract_as_path,
    is_public_address,
    normalize_path,
)

A, B, C = 65001, 65002, 65003

# addresses chosen so the last octet hints at the AS (20.<asn % 10>.x.x)
ADDR_A = "20.1.0.9"
ADDR_A2 = "20.1.7.7"
ADDR_B = "20.2.0.9"
ADDR_C = "20.3.0.9"
ADDR_UNMAPPED = "20.5.0.9"
ADDR_UNKNOWN_GEO = "20.6.0.9"
ADDR_PRIVATE = "10.0.0.1"
ADDR_FOREIGN = "20.8.0.9"


def make_prefix_table():
    table = LpmTable()
    table.add("20.1.0.0/16", A)
    table.add("20.2.0.0/16", B)
    table.add("20.3.0.0/16", C)
    table.add("20.8.0.0/16", 65008)
    return table


def make_geo_table():
    table = LpmTable()
    table.add("20.1.0.0/16", "XX")
    table.add("20.2.0.0/16", "XX")
    table.add("20.3.0.0/16", "XX")
    table.add("20.8.0.0/16", "YY")
    table.add("20.6.0.0/16", None)
    return table


def hop(index, *addresses):
    """Build a hop; None stands for a timeout response."""
    return TracerouteHop(
        index=index,
        responses=tuple(
            HopResponse(address=a, rtt_ms=None if a is None else 1.0) for a in addresses
        ),
    )


def make_traceroute(src_asn, dst_asn, hop_specs, dst_address=ADDR_B):
    hops = []
    for i, spec in enumerate(hop_specs, start=1):
        if isinstance(spec, tuple):
            hops.append(hop(i, *spec))
        else:
            hops.append(hop(i, spec))
    return Traceroute(
        src_probe_id=11,
        dst_probe_id=22,
        src_asn=src_asn,
        dst_asn=dst_asn,
        dst_address=dst_address,
        address_family=4,
        timestamp=1700000000,
        hops=tuple(hops),
    )


class TestIsPublicAddress:
    @pytest.mark.parametrize(
        "address,expected",
        [
            ("20.1.0.9", True),
            ("8.8.8.8", True),
            ("10.0.0.1", False),
            ("192.168.1.1", False),
            ("127.0.0.1", False),
            ("100.64.0.1", False),
            ("not-an-ip", False),
            ("2001:4860::1", True),
            ("fe80::1", False),
        ],
    )
    def test_classification(self, address, expected):
        assert is_public_address(address) is expected


class TestExtractAsPath:
    def test_consecutive_duplicates_collapse(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_A2, ADDR_B])
        path = extract_as_path(tr, make_prefix_table())
        assert path.sequence == (A, B)

    def test_marker_between_equal_ases_is_swallowed(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_UNMAPPED, ADDR_A2, ADDR_B])
        path = extract_as_path(tr, make_prefix_table())
        assert path.sequence == (A, B)
        assert not path.has_unknown()

    def test_private_hops_are_dropped(self):
        tr = make_traceroute(A, C, [ADDR_A, ADDR_PRIVATE, ADDR_B, ADDR_C], dst_address=ADDR_C)
        path = extract_as_path(tr, make_prefix_table())
        assert path.sequence == (A, B, C)

    def test_marker_between_different_ases_persists(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_UNMAPPED, ADDR_B])
        path = extract_as_path(tr, make_prefix_table())
        assert path.sequence == (A, UNKNOWN_HOP, B)
        assert path.has_unknown()

    def test_timeout_only_hop_becomes_marker(self):
        tr = make_traceroute(A, B, [ADDR_A, (None, None, None), ADDR_B])
        path = extract_as_path(tr, make_prefix_table())
        assert path.sequence == (A, UNKNOWN_HOP, B)

    def test_first_response_wins_within_hop(self):
        # hop answers twice: a timeout then an address; the address is used
        tr = make_traceroute(A, B, [(None, ADDR_B), ADDR_B])
        path = extract_as_path(tr, make_prefix_table())
        assert path.sequence == (A, B)

    def test_source_prepended_when_first_hop_is_elsewhere(self):
        tr = make_traceroute(A, B, [ADDR_B])
        path = extract_as_path(tr, make_prefix_table())
        assert path.sequence == (A, B)

    def test_destination_appended_when_missing(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_C])
        path = extract_as_path(tr, make_prefix_table())
        assert path.sequence == (A, C, B)

    def test_destination_not_duplicated(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_B])
        path = extract_as_path(tr, make_prefix_table())
        assert path.sequence.count(B) == 1

    def test_self_pair_collapses_to_single_element(self):
        tr = make_traceroute(A, A, [ADDR_A, ADDR_A2], dst_address=ADDR_A2)
        path = extract_as_path(tr, make_prefix_table())
        assert path.sequence == (A,)

    def test_no_hops_raises(self):
        tr = make_traceroute(A, B, [])
        with pytest.raises(EmptyTraceroute, match="no hops"):
            extract_as_path(tr, make_prefix_table())

    def test_trailing_marker_then_destination(self):
        # last hop times out, destination AS still closes the path
        tr = make_traceroute(A, B, [ADDR_A, (None,)])
        path = extract_as_path(tr, make_prefix_table())
        assert path.sequence == (A, UNKNOWN_HOP, B)


class TestNormalizePath:
    def test_adjacent_markers_collapse(self):
        path = normalize_path([A, UNKNOWN_HOP, UNKNOWN_HOP, B])
        assert path.sequence == (A, UNKNOWN_HOP, B)

    def test_swallow_is_applied_to_fixpoint(self):
        # A ? A ? A collapses all the way down to A
        path = normalize_path([A, UNKNOWN_HOP, A, UNKNOWN_HOP, A])
        assert path.sequence == (A,)

    def test_mixed_collapse_chain(self):
        path = normalize_path([A, A, UNKNOWN_HOP, UNKNOWN_HOP, A, B, B])
        assert path.sequence == (A, B)

    @pytest.mark.parametrize("alphabet", [(A, B, UNKNOWN_HOP), (A, B, C, UNKNOWN_HOP)])
    def test_agrees_with_fixpoint_oracle(self, alphabet):
        rng = random.Random(4242)
        for _ in range(5000):
            seq = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
            want = tuple(fixpoint_normalize(seq, marker=UNKNOWN_HOP))
            assert normalize_path(seq).sequence == want, seq

    def test_asn_elements_filters_markers(self):
        path = AsPath((A, UNKNOWN_HOP, B))
        assert path.asn_elements() == [A, B]


class TestClassifyLocality:
    def test_all_hops_inside(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_B])
        assert classify_locality(tr, make_geo_table(), "XX") is Locality.IN_COUNTRY

    def test_any_foreign_hop_wins(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_FOREIGN, ADDR_B])
        assert classify_locality(tr, make_geo_table(), "XX") is Locality.OUT_OF_COUNTRY

    def test_no_geolocatable_hops(self):
        tr = make_traceroute(A, B, [(None,), ADDR_PRIVATE, ADDR_UNMAPPED])
        assert classify_locality(tr, make_geo_table(), "XX") is Locality.UNDETERMINED

    def test_unknown_country_entries_do_not_count(self):
        # 20.6.0.0/16 geolocates to the unknown marker; alone it proves nothing
        tr = make_traceroute(A, B, [ADDR_UNKNOWN_GEO])
        assert classify_locality(tr, make_geo_table(), "XX") is Locality.UNDETERMINED

    def test_foreign_beats_inside_regardless_of_order(self):
        tr = make_traceroute(A, B, [ADDR_FOREIGN, ADDR_A])
        assert classify_locality(tr, make_geo_table(), "XX") is Locality.OUT_OF_COUNTRY


class TestClassifyDirectness:
    def test_two_endpoint_path_is_direct(self):
        assert classify_directness(AsPath((A, B)), A, B) is Directness.DIRECT

    def test_third_party_as_means_indirect(self):
        assert classify_directness(AsPath((A, C, B)), A, B) is Directness.INDIRECT

    def test_marker_blocks_direct(self):
        path = AsPath((A, UNKNOWN_HOP, B))
        assert classify_directness(path, A, B) is Directness.UNDETERMINED

    def test_indirect_beats_marker(self):
        path = AsPath((A, UNKNOWN_HOP, C, B))
        assert classify_directness(path, A, B) is Directness.INDIRECT

    def test_self_pair_is_direct(self):
        assert classify_directness(AsPath((A,)), A, A) is Directness.DIRECT

    def test_endpoint_only_paths_are_always_direct(self):
        rng = random.Random(515)
        for _ in range(50):
            src, dst = rng.sample(range(64512, 64600), 2)
            length = rng.randint(1, 6)
            seq = [rng.choice([src, dst]) for _ in range(length)]
            path = normalize_path([src, *seq, dst])
            assert classify_directness(path, src, dst) is Directness.DIRECT


class TestClassifyTraceroute:
    def test_combined_labels(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_C, ADDR_B])
        cls = classify_traceroute(tr, make_prefix_table(), make_geo_table(), "XX")
        assert cls == PathClassification(Locality.IN_COUNTRY, Directness.INDIRECT)

    def test_foreign_detour(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_FOREIGN, ADDR_B])
        cls = classify_traceroute(tr, make_prefix_table(), make_geo_table(), "XX")
        assert cls.locality is Locality.OUT_OF_COUNTRY
        assert cls.directness is Directness.INDIRECT

    def test_silent_middle(self):
        tr = make_traceroute(A, B, [(None,)])
        cls = classify_traceroute(tr, make_prefix_table(), make_geo_table(), "XX")
        assert cls == PathClassification(Locality.UNDETERMINED, Directness.UNDETERMINED)


IN_DIRECT = PathClassification(Locality.IN_COUNTRY, Directness.DIRECT)
IN_INDIRECT = PathClassification(Locality.IN_COUNTRY, Directness.INDIRECT)
OUT_DIRECT = PathClassification(Locality.OUT_OF_COUNTRY, Directness.DIRECT)
UNDET = PathClassification(Locality.UNDETERMINED, Directness.UNDETERMINED)


class TestClassifyPair:
    def test_unanimous_in_country_direct(self):
        verdict = classify_pair(A, B, 0.1, [("1", IN_DIRECT), ("2", IN_DIRECT)], covered=True)
        assert verdict.locality is LocalityVerdict.IN_COUNTRY
        assert verdict.directness is DirectnessVerdict.DIRECT

    def test_locality_disagreement_is_inconsistent(self):
        verdict = classify_pair(A, B, 0.1, [("1", IN_DIRECT), ("2", OUT_DIRECT)], covered=True)
        assert verdict.locality is LocalityVerdict.INCONSISTENT
        assert verdict.directness is DirectnessVerdict.DIRECT

    def test_directness_disagreement_is_mixed(self):
        verdict = classify_pair(A, B, 0.1, [("1", IN_DIRECT), ("2", IN_INDIRECT)], covered=True)
        assert verdict.locality is LocalityVerdict.IN_COUNTRY
        assert verdict.directness is DirectnessVerdict.MIXED

    def test_undetermined_abstains(self):
        verdict = classify_pair(A, B, 0.1, [("1", UNDET), ("2", IN_DIRECT)], covered=True)
        assert verdict.locality is LocalityVerdict.IN_COUNTRY
        assert verdict.directness is DirectnessVerdict.DIRECT

    def test_only_undetermined_evidence(self):
        verdict = classify_pair(A, B, 0.1, [("1", UNDET)], covered=True)
        assert verdict.locality is LocalityVerdict.UNDETERMINED
        assert verdict.directness is DirectnessVerdict.NOT_APPLICABLE

    def test_no_evidence_covered(self):
        verdict = classify_pair(A, B, 0.1, [], covered=True)
        assert verdict.locality is LocalityVerdict.UNDETERMINED
        assert verdict.directness is DirectnessVerdict.NOT_APPLICABLE

    def test_uncovered_pair(self):
        verdict = classify_pair(A, B, 0.1, [], covered=False)
        assert verdict.locality is LocalityVerdict.NO_COVERAGE
        assert verdict.directness is DirectnessVerdict.NOT_APPLICABLE
        assert verdict.evidence == ()

    def test_uncovered_with_evidence_rejected(self):
        with pytest.raises(ValueError, match="evidence"):
            classify_pair(A, B, 0.1, [("1", IN_DIRECT)], covered=False)

    def test_mixed_dimensions_are_independent(self):
        # locality splits while directness agrees, and vice versa
        verdict = classify_pair(
            A, B, 0.1, [("1", IN_INDIRECT), ("2", OUT_DIRECT)], covered=True
        )
        assert verdict.locality is LocalityVerdict.INCONSISTENT
        assert verdict.directness is DirectnessVerdict.MIXED

    def test_evidence_order_preserved(self):
        rows = [("9", IN_DIRECT), ("1", OUT_DIRECT), ("5", UNDET)]
        verdict = classify_pair(A, B, 0.1, rows, covered=True)
        assert [m for m, _ in verdict.evidence] == ["9", "1", "5"]

    def test_verdict_labels_permutation_invariant(self):
        rows = [("1", IN_DIRECT), ("2", IN_INDIRECT), ("3", UNDET), ("4", OUT_DIRECT)]
        rng = random.Random(88)
        baseline = classify_pair(A, B, 0.1, rows, covered=True)
        for _ in range(10):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            verdict = classify_pair(A, B, 0.1, shuffled, covered=True)
            assert verdict.locality is baseline.locality
            assert verdict.directness is baseline.directness

    def test_area_weight_carried_through(self):
        verdict = classify_pair(A, B, 0.125, [("1", IN_DIRECT)], covered=True)
        assert verdict.area_weight == 0.125
