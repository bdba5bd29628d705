"""AS-path extraction and per-pair classification."""

import dataclasses
import ipaddress
import random
from collections import Counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from eyeball_jedi import pipeline
from eyeball_jedi.config import load_config
from eyeball_jedi.errors import EmptyTraceroute
from eyeball_jedi.lpm import LpmTable
from eyeball_jedi.model import (
    Directness,
    DirectnessVerdict,
    Locality,
    LocalityVerdict,
    PathClassification,
    Traceroute,
)
from oracles import fixpoint_normalize, reference_as_path, reference_locality

from eyeball_jedi.paths import (
    UNKNOWN_HOP,
    AsPath,
    HopResolver,
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


def make_resolver():
    return HopResolver(make_prefix_table(), make_geo_table())


def resolved(tr):
    return make_resolver().hops(tr)


def hop(*responses):
    """A hop's first responding address; None stands for a timeout response."""
    return next((a for a in responses if a is not None), None)


def make_traceroute(src_asn, dst_asn, hop_specs, dst_address=ADDR_B):
    hops = [hop(*spec) if isinstance(spec, tuple) else hop(spec) for spec in hop_specs]
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
        path = extract_as_path(tr, resolved(tr))
        assert path.sequence == (A, B)

    def test_marker_between_equal_ases_is_swallowed(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_UNMAPPED, ADDR_A2, ADDR_B])
        path = extract_as_path(tr, resolved(tr))
        assert path.sequence == (A, B)
        assert not path.has_unknown()

    def test_private_hops_are_dropped(self):
        tr = make_traceroute(A, C, [ADDR_A, ADDR_PRIVATE, ADDR_B, ADDR_C], dst_address=ADDR_C)
        path = extract_as_path(tr, resolved(tr))
        assert path.sequence == (A, B, C)

    def test_marker_between_different_ases_persists(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_UNMAPPED, ADDR_B])
        path = extract_as_path(tr, resolved(tr))
        assert path.sequence == (A, UNKNOWN_HOP, B)
        assert path.has_unknown()

    def test_timeout_only_hop_becomes_marker(self):
        tr = make_traceroute(A, B, [ADDR_A, (None, None, None), ADDR_B])
        path = extract_as_path(tr, resolved(tr))
        assert path.sequence == (A, UNKNOWN_HOP, B)

    def test_first_response_wins_within_hop(self):
        # hop answers twice: a timeout then an address; the address is used
        tr = make_traceroute(A, B, [(None, ADDR_B), ADDR_B])
        path = extract_as_path(tr, resolved(tr))
        assert path.sequence == (A, B)

    def test_source_prepended_when_first_hop_is_elsewhere(self):
        tr = make_traceroute(A, B, [ADDR_B])
        path = extract_as_path(tr, resolved(tr))
        assert path.sequence == (A, B)

    def test_destination_appended_when_missing(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_C])
        path = extract_as_path(tr, resolved(tr))
        assert path.sequence == (A, C, B)

    def test_destination_not_duplicated(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_B])
        path = extract_as_path(tr, resolved(tr))
        assert path.sequence.count(B) == 1

    def test_self_pair_collapses_to_single_element(self):
        tr = make_traceroute(A, A, [ADDR_A, ADDR_A2], dst_address=ADDR_A2)
        path = extract_as_path(tr, resolved(tr))
        assert path.sequence == (A,)

    def test_no_hops_raises(self):
        tr = make_traceroute(A, B, [])
        with pytest.raises(EmptyTraceroute, match="no hops"):
            extract_as_path(tr, resolved(tr))

    def test_trailing_marker_then_destination(self):
        # last hop times out, destination AS still closes the path
        tr = make_traceroute(A, B, [ADDR_A, (None,)])
        path = extract_as_path(tr, resolved(tr))
        assert path.sequence == (A, UNKNOWN_HOP, B)


OCTET = st.integers(0, 255)
# Hop addresses by kind. Tables are built on a small pool drawn from these,
# and hops reuse the pool, so addresses repeat across hops and runs.
HOP_ADDRESS = st.one_of(
    st.builds("{}.{}.{}.{}".format, st.sampled_from([20, 45, 81]), OCTET, OCTET, OCTET),
    st.builds("2a0{:x}:{:x}::{:x}".format, st.integers(0, 15), st.integers(0, 0xFFFF), OCTET),
    st.builds("10.{}.{}.{}".format, OCTET, OCTET, OCTET),
    st.builds("192.168.{}.{}".format, OCTET, OCTET),
    st.builds("fd{:02x}::{:x}".format, OCTET, OCTET),
    st.builds("100.{}.{}.{}".format, st.integers(64, 127), OCTET, OCTET),
    st.sampled_from(
        ["0.1.2.3", "127.0.0.1", "169.254.9.9", "192.0.2.7", "198.18.0.1", "240.0.0.1",
         "255.255.255.255", "::1", "fe80::1", "2001:db8::1", "::ffff:20.1.0.9"]
    ),
    st.sampled_from(["", "not-an-ip", "999.1.1.1", "20.1.0", "20.1.0.9 ", "::g", "01.2.3.4"]),
)
ASNS = [A, B, C, 65004]
COUNTRIES = ["XX", "YY", None]


def _parses(address):
    try:
        ipaddress.ip_address(address)
    except ValueError:
        return False
    return True


class TestHopResolution:
    """Labels read from resolved hops equal the per-hop reference in oracles."""

    @seed(1010)
    @settings(max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_agrees_with_per_hop_reference(self, data):
        pool = data.draw(st.lists(HOP_ADDRESS, min_size=1, max_size=12), label="pool")
        parsed = [ipaddress.ip_address(a) for a in pool if _parses(a)]
        prefix_table, geo_table = LpmTable(), LpmTable()
        for table, values in ((prefix_table, ASNS), (geo_table, COUNTRIES)):
            if not parsed:
                break
            entry = st.tuples(st.sampled_from(parsed), st.integers(0, 128), st.sampled_from(values))
            for addr, plen, value in data.draw(st.lists(entry, max_size=8), label="entries"):
                table.add(ipaddress.ip_network(f"{addr}/{min(plen, addr.max_prefixlen)}", strict=False), value)
        response = st.none() | st.sampled_from(pool)
        run = st.tuples(
            st.sampled_from(ASNS),
            st.sampled_from(ASNS),
            st.lists(st.lists(response, min_size=1, max_size=3), min_size=1, max_size=10),
            st.sampled_from(["XX", "YY"]),
        )
        resolver = HopResolver(prefix_table, geo_table)
        for src, dst, hop_specs, country in data.draw(st.lists(run, min_size=1, max_size=5), label="runs"):
            tr = make_traceroute(src, dst, [tuple(spec) for spec in hop_specs])
            hops = resolver.hops(tr)
            assert extract_as_path(tr, hops) == AsPath(reference_as_path(tr, prefix_table))
            want = Locality(reference_locality(tr, geo_table, country))
            assert classify_locality(hops, country) is want


@pytest.fixture
def fixture_scope(run_conf):
    config = dataclasses.replace(load_config(run_conf), country="XX")
    ws = pipeline.load_workspace(config, with_traceroutes=True)
    [scope] = pipeline.build_scopes(config, ws)
    return scope, ws


@pytest.fixture
def counted(monkeypatch):
    """Count address parses by string and table lookups by (table, address)."""
    parses, lookups = Counter(), Counter()
    real_parse, real_lookup = ipaddress.ip_address, LpmTable.lookup

    def parse(address):
        parses[address] += 1
        return real_parse(address)

    def lookup(table, address):
        lookups[(id(table), str(address))] += 1
        return real_lookup(table, address)

    monkeypatch.setattr(ipaddress, "ip_address", parse)
    monkeypatch.setattr(LpmTable, "lookup", lookup)
    return parses, lookups


class TestResolveOnce:
    """One gather_evidence call parses each distinct hop address once."""

    def test_repeated_addresses_are_parsed_once(self, fixture_scope, counted):
        scope, ws = fixture_scope
        parses, lookups = counted
        evidence, _, matched = pipeline.gather_evidence(
            scope, ws.traceroutes, ws.prefix_table, ws.geo_table
        )
        cited = {mid for runs in evidence.values() for mid, _ in runs}
        hops = [a for tr in ws.traceroutes if tr.measurement_id in cited for a in tr.hops]
        addresses = {a for a in hops if a is not None}
        assert matched > 0 and len(hops) > len(addresses)
        assert parses == Counter(dict.fromkeys(addresses, 1))
        assert max(lookups.values()) == 1
        assert {address for _, address in lookups} <= addresses

    def test_fresh_addresses_are_parsed_once(self, fixture_scope, counted):
        scope, ws = fixture_scope
        parses, _ = counted
        fresh = ["20.1.3.3", "20.9.9.9", "10.1.1.1", "100.64.0.1", "2a00::1", "bogus", None]
        template = next(
            tr for tr in ws.traceroutes
            if tr.address_family == 4
            and tr.src_probe_id in scope.selection.probe_ids(tr.src_asn)
            and tr.dst_probe_id in scope.selection.probe_ids(tr.dst_asn)
        )
        run = dataclasses.replace(template, hops=tuple(fresh))
        _, _, matched = pipeline.gather_evidence(scope, [run], ws.prefix_table, ws.geo_table)
        assert matched == 1
        assert parses == Counter(dict.fromkeys(fresh[:-1], 1))


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
        assert classify_locality(resolved(tr), "XX") is Locality.IN_COUNTRY

    def test_any_foreign_hop_wins(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_FOREIGN, ADDR_B])
        assert classify_locality(resolved(tr), "XX") is Locality.OUT_OF_COUNTRY

    def test_no_geolocatable_hops(self):
        tr = make_traceroute(A, B, [(None,), ADDR_PRIVATE, ADDR_UNMAPPED])
        assert classify_locality(resolved(tr), "XX") is Locality.UNDETERMINED

    def test_unknown_country_entries_do_not_count(self):
        # 20.6.0.0/16 geolocates to the unknown marker; alone it proves nothing
        tr = make_traceroute(A, B, [ADDR_UNKNOWN_GEO])
        assert classify_locality(resolved(tr), "XX") is Locality.UNDETERMINED

    def test_foreign_beats_inside_regardless_of_order(self):
        tr = make_traceroute(A, B, [ADDR_FOREIGN, ADDR_A])
        assert classify_locality(resolved(tr), "XX") is Locality.OUT_OF_COUNTRY


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
        cls = classify_traceroute(tr, make_resolver(), "XX")
        assert cls == PathClassification(Locality.IN_COUNTRY, Directness.INDIRECT)

    def test_foreign_detour(self):
        tr = make_traceroute(A, B, [ADDR_A, ADDR_FOREIGN, ADDR_B])
        cls = classify_traceroute(tr, make_resolver(), "XX")
        assert cls.locality is Locality.OUT_OF_COUNTRY
        assert cls.directness is Directness.INDIRECT

    def test_silent_middle(self):
        tr = make_traceroute(A, B, [(None,)])
        cls = classify_traceroute(tr, make_resolver(), "XX")
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
