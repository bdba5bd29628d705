import json
import math
import random

from eyeball_jedi.coverage import select_dominant_networks
from eyeball_jedi.ingest import PopulationEstimateRow
from eyeball_jedi.model import GeoPoint, Probe
from eyeball_jedi.selection import format_selection, haversine_km, select_probes

from oracles import ANTIPODAL_KM, PARIS_LONDON_KM, law_of_cosines_km

CAPITAL = GeoPoint(50.0, 8.0)


def eyeball_set(percents=(60.0, 40.0)):
    rows = [PopulationEstimateRow("XX", 65001 + i, p) for i, p in enumerate(percents)]
    return select_dominant_networks(rows, 1_000_000, CAPITAL)


def probe(pid, asn, lat, lon):
    return Probe(
        id=pid,
        asn_v4=asn,
        location=GeoPoint(lat, lon),
        public_address_v4=f"20.0.{pid % 256}.1",
    )


class TestHaversine:
    def test_identity_is_zero(self):
        p = GeoPoint(48.8566, 2.3522)
        assert haversine_km(p, p) == 0.0

    def test_equatorial_antipodes(self):
        d = haversine_km(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0))
        assert abs(d - ANTIPODAL_KM) < 0.1

    def test_paris_london_within_one_percent_of_oracle(self):
        d = haversine_km(GeoPoint(48.8566, 2.3522), GeoPoint(51.5074, -0.1278))
        assert abs(d - PARIS_LONDON_KM) / PARIS_LONDON_KM < 0.01

    def test_symmetric(self):
        a, b = GeoPoint(10.0, 20.0), GeoPoint(-30.0, 150.0)
        assert haversine_km(a, b) == haversine_km(b, a)

    def test_agrees_with_law_of_cosines_on_random_pairs(self):
        rng = random.Random(4242)
        for _ in range(200):
            a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
            b = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
            d1 = haversine_km(a, b)
            d2 = law_of_cosines_km(a.latitude, a.longitude, b.latitude, b.longitude)
            assert abs(d1 - d2) < max(0.5, 0.001 * d2)


class TestSelectProbes:
    def test_single_probe_fills_both_roles(self):
        es = eyeball_set((100.0,))
        only = probe(5, 65001, 51.0, 9.0)
        sel = select_probes(es, [only])
        assert sel.per_asn[65001] == (only, only)

    def test_near_and_far(self):
        es = eyeball_set((100.0,))
        near = probe(1, 65001, 50.05, 8.05)  # ~6 km out
        far = probe(2, 65001, 54.0, 12.0)  # several hundred km out
        sel = select_probes(es, [far, near])
        assert sel.per_asn[65001] == (near, far)

    def test_equidistant_ties_go_to_lower_id(self):
        es = eyeball_set((100.0,))
        # mirrored east/west of the capital: identical distance
        east = probe(12, 65001, 50.0, 8.5)
        west = probe(11, 65001, 50.0, 7.5)
        d_east = haversine_km(CAPITAL, east.location)
        d_west = haversine_km(CAPITAL, west.location)
        assert abs(d_east - d_west) < 1e-9
        sel = select_probes(es, [east, west])
        closest, farthest = sel.per_asn[65001]
        assert closest.id == 11 and farthest.id == 11

    def test_permutation_invariant(self):
        es = eyeball_set()
        probes = [
            probe(1, 65001, 50.1, 8.1),
            probe(2, 65001, 52.0, 10.0),
            probe(3, 65001, 48.0, 6.0),
            probe(4, 65002, 50.5, 8.5),
            probe(5, 65002, 53.0, 11.0),
        ]
        expected = select_probes(es, probes)
        rng = random.Random(17)
        for _ in range(10):
            shuffled = probes[:]
            rng.shuffle(shuffled)
            assert select_probes(es, shuffled).per_asn == expected.per_asn

    def test_closest_never_farther_than_farthest(self):
        es = eyeball_set((50.0, 30.0, 20.0))
        rng = random.Random(23)
        probes = [
            probe(i, 65001 + rng.randrange(3), rng.uniform(45, 55), rng.uniform(3, 13))
            for i in range(40)
        ]
        sel = select_probes(es, probes)
        for closest, farthest in sel.per_asn.values():
            d_close = haversine_km(CAPITAL, closest.location)
            d_far = haversine_km(CAPITAL, farthest.location)
            assert d_close <= d_far

    def test_probeless_networks_omitted(self):
        es = eyeball_set((60.0, 40.0))
        sel = select_probes(es, [probe(1, 65001, 50.1, 8.1)])
        assert set(sel.per_asn) == {65001}

    def test_non_member_asn_ignored(self):
        es = eyeball_set((100.0,))
        sel = select_probes(es, [probe(1, 64999, 50.1, 8.1)])
        assert sel.per_asn == {}

    def test_probe_ids_helper(self):
        es = eyeball_set((100.0,))
        sel = select_probes(es, [probe(1, 65001, 50.1, 8.1), probe(2, 65001, 52.0, 10.0)])
        assert sel.probe_ids(65001) == {1, 2}
        assert sel.probe_ids(65002) == set()


class TestFormatSelection:
    def test_entries_follow_matrix_order(self):
        es = eyeball_set((60.0, 40.0))
        sel = select_probes(
            es,
            [
                probe(4, 65002, 50.5, 8.5),
                probe(1, 65001, 50.1, 8.1),
                probe(2, 65001, 52.0, 10.0),
            ],
        )
        entries = json.loads(format_selection(sel, es))
        assert entries == [
            {"asn": 65001, "closest_probe": 1, "farthest_probe": 2},
            {"asn": 65002, "closest_probe": 4, "farthest_probe": 4},
        ]
