import ipaddress
import random

from eyeball_jedi.lpm import LpmTable

from oracles import linear_lpm


class TestLookup:
    def test_longer_prefix_wins(self):
        table = LpmTable()
        table.add("1.0.0.0/8", "A")
        table.add("1.2.0.0/16", "B")
        assert table.lookup("1.2.3.4") == "B"
        assert table.lookup("1.3.3.4") == "A"

    def test_no_containing_prefix_is_none(self):
        table = LpmTable()
        table.add("1.0.0.0/8", "A")
        table.add("1.2.0.0/16", "B")
        assert table.lookup("9.9.9.9") is None

    def test_host_route(self):
        table = LpmTable()
        table.add("10.0.0.0/8", 1)
        table.add("10.1.2.3/32", 2)
        assert table.lookup("10.1.2.3") == 2
        assert table.lookup("10.1.2.4") == 1

    def test_default_route(self):
        table = LpmTable()
        table.add("0.0.0.0/0", 99)
        assert table.lookup("203.0.113.5") == 99

    def test_same_prefix_overwrites(self):
        table = LpmTable()
        table.add("10.0.0.0/8", 1)
        table.add("10.0.0.0/8", 2)
        assert table.lookup("10.1.1.1") == 2
        assert len(table) == 1

    def test_ipv6(self):
        table = LpmTable()
        table.add("2001:db8::/32", 1)
        table.add("2001:db8:1::/48", 2)
        assert table.lookup("2001:db8:1::5") == 2
        assert table.lookup("2001:db8:2::5") == 1
        assert table.lookup("2001:db9::1") is None

    def test_families_do_not_mix(self):
        table = LpmTable()
        table.add("0.0.0.0/0", "v4")
        assert table.lookup("::1") is None

    def test_host_form_normalized(self):
        # non-strict parsing: host bits are masked off
        table = LpmTable()
        table.add("10.1.2.3/8", 1)
        assert table.lookup("10.200.0.1") == 1


class TestGeoTableSemantics:
    def test_unknown_masks_broader_country(self):
        table = LpmTable()
        table.add("20.0.0.0/8", "XX")
        table.add("20.6.0.0/16", None)
        assert table.lookup("20.1.0.1") == "XX"
        assert table.lookup("20.6.0.1") is None


class TestEntries:
    def test_entries_and_len(self):
        table = LpmTable()
        table.add("10.0.0.0/8", 1)
        table.add("10.1.0.0/16", 2)
        assert len(table) == 2


class TestOracleAgreement:
    def test_random_tables_match_linear_scan(self):
        rng = random.Random(20210)
        for _ in range(10):
            entries = []
            table = LpmTable()
            for _ in range(rng.randrange(1, 80)):
                base = f"{rng.randrange(1, 224)}.{rng.randrange(0, 256)}.0.0"
                plen = rng.choice([8, 12, 16, 20, 24, 28, 32])
                prefix = f"{base}/{plen}"
                value = rng.randrange(1, 70000)
                # overwrite semantics: keep only the last value per normalized prefix
                norm = str(ipaddress.ip_network(prefix, strict=False))
                entries = [(p, v) for p, v in entries if p != norm]
                entries.append((norm, value))
                table.add(prefix, value)
            for _ in range(300):
                addr = f"{rng.randrange(1, 224)}.{rng.randrange(0, 256)}.{rng.randrange(0, 256)}.{rng.randrange(0, 256)}"
                expected, _ = linear_lpm(entries, addr)
                assert table.lookup(addr) == expected, addr
