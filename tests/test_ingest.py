import ipaddress
import json

import pytest

from eyeball_jedi.errors import (
    DuplicateCountry,
    HopOrderError,
    IngestError,
    InvalidAsn,
    InvalidCidr,
    InvalidCountry,
    JsonSyntaxError,
    MalformedHeader,
    MissingField,
    RowParseError,
)
from eyeball_jedi.ingest import (
    PopulationEstimateRow,
    parse_capitals,
    parse_country_users,
    parse_geo_table,
    parse_population_estimates,
    parse_prefix_table,
    parse_probe_inventory,
    parse_traceroute_results,
    probe_from_dict,
    traceroute_from_dict,
)
from eyeball_jedi.model import GeoPoint, Probe


def nested(depth):
    """A list nested depth levels deep, built without the JSON decoder."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


class TestPopulation:
    def test_happy_path(self):
        rows = parse_population_estimates("country,asn,fraction_percent\nDE,3320,21.5\nDE,6805,18.0\n")
        assert rows == [
            PopulationEstimateRow("DE", 3320, 21.5),
            PopulationEstimateRow("DE", 6805, 18.0),
        ]

    def test_bytes_accepted(self):
        rows = parse_population_estimates(b"country,asn,fraction_percent\nNL,1136,30.0\n")
        assert rows[0].country == "NL"

    def test_non_utf8_bytes_name_their_offset(self):
        with pytest.raises(IngestError, match="not UTF-8: byte offset 42"):
            parse_population_estimates(b"country,asn,fraction_percent\nNL,1136,30.0\n\xff")

    def test_header_must_match(self):
        with pytest.raises(MalformedHeader) as exc:
            parse_population_estimates("asn,country,fraction_percent\nDE,3320,21.5\n")
        assert "line 1" in str(exc.value)

    def test_row_errors_carry_line_numbers(self):
        with pytest.raises(RowParseError) as exc:
            parse_population_estimates("country,asn,fraction_percent\nDE,3320,21.5\nDE,0,1.0\n")
        assert "line 3" in str(exc.value)

    @pytest.mark.parametrize("bad", ["-1", "100.1", "nan"])
    def test_fraction_range_enforced(self, bad):
        with pytest.raises(RowParseError):
            parse_population_estimates(f"country,asn,fraction_percent\nDE,3320,{bad}\n")

    def test_duplicate_key_keeps_last(self, caplog):
        with caplog.at_level("WARNING"):
            rows = parse_population_estimates(
                "country,asn,fraction_percent\nDE,3320,21.5\nDE,3320,22.0\n"
            )
        assert rows == [PopulationEstimateRow("DE", 3320, 22.0)]
        assert any("repeated" in r.message for r in caplog.records)

    def test_short_row_stops_the_parse_at_its_line(self):
        with pytest.raises(RowParseError) as exc:
            parse_population_estimates(
                "country,asn,fraction_percent\nDE,3320,21.5\nbad row\nDE,6805,18.0\n"
            )
        assert exc.value.line == 3

    def test_field_count_checked(self):
        with pytest.raises(RowParseError, match="3 fields"):
            parse_population_estimates("country,asn,fraction_percent\nDE,3320\n")


class TestCountryUsers:
    def test_happy_path(self):
        users = parse_country_users("country,internet_users\nCA,33000000\nDE,78000000\n")
        assert users == {"CA": 33_000_000, "DE": 78_000_000}

    def test_duplicate_country_rejected(self):
        with pytest.raises(DuplicateCountry) as exc:
            parse_country_users("country,internet_users\nCA,1\nCA,2\n")
        assert exc.value.line == 3

    def test_negative_rejected(self):
        with pytest.raises(RowParseError):
            parse_country_users("country,internet_users\nCA,-5\n")


class TestProbeInventory:
    def full(self):
        return {
            "id": 7,
            "asn_v4": 65001,
            "asn_v6": None,
            "latitude": 50.0,
            "longitude": 8.0,
            "address_v4": "20.1.0.1",
            "is_public": True,
            "status": "Connected",
        }

    def test_full_probe(self):
        assert probe_from_dict(self.full()) == Probe(7, 65001, GeoPoint(50.0, 8.0), "20.1.0.1")

    def test_missing_id_rejected(self):
        obj = self.full()
        del obj["id"]
        with pytest.raises(MissingField):
            probe_from_dict(obj)

    def test_partial_location_means_no_location(self):
        obj = self.full()
        obj["longitude"] = None
        assert probe_from_dict(obj) is None

    def test_disconnected_status(self):
        obj = self.full()
        obj["status"] = "Disconnected"
        assert probe_from_dict(obj) is None

    @pytest.mark.parametrize(
        "change",
        [
            {"is_public": False},
            {"status": "Abandoned"},
            {"latitude": None},
            {"asn_v4": None},
            {"address_v4": None},
        ],
    )
    def test_unusable_probe_is_dropped(self, change):
        """A valid probe that cannot serve IPv4 selection is checked, then left out."""
        assert probe_from_dict({**self.full(), **change}) is None
        kept = {**self.full(), "id": 8}
        inventory = json.dumps([{**self.full(), **change}, kept])
        assert parse_probe_inventory(inventory) == [probe_from_dict(kept)]

    def test_fields_of_an_unusable_probe_are_still_checked(self):
        with pytest.raises(RowParseError, match="asn_v4"):
            probe_from_dict({**self.full(), "is_public": False, "asn_v4": "65001"})
        with pytest.raises(RowParseError, match="status"):
            probe_from_dict({**self.full(), "is_public": False, "status": 1})

    @pytest.mark.parametrize("second", [{}, {"is_public": False}], ids=["usable", "unusable"])
    def test_repeated_id_is_an_error(self, second):
        inventory = json.dumps([self.full(), {**self.full(), "asn_v4": 65002, **second}])
        with pytest.raises(RowParseError, match="probe id 7 repeated"):
            parse_probe_inventory(inventory)

    def test_too_deep_inventory_is_a_syntax_error(self):
        with pytest.raises(JsonSyntaxError, match="nested too deeply"):
            parse_probe_inventory("[" * 5000 + "]" * 5000)

    @pytest.mark.parametrize("change", [None, "id", "asn_v4", "latitude", "address_v4"])
    def test_deeply_nested_value_is_a_row_error(self, change):
        """The message shows a deeply nested value without recursing through it."""
        obj = nested(5000) if change is None else {**self.full(), change: nested(5000)}
        with pytest.raises(RowParseError):
            probe_from_dict(obj)

    def test_invalid_address_rejected(self):
        obj = self.full()
        obj["address_v4"] = "999.1.2.3"
        with pytest.raises(RowParseError):
            probe_from_dict(obj)

    @pytest.mark.parametrize(
        "change",
        [
            {"asn_v4": "abc"},
            {"asn_v6": 0},
            {"id": None},
            {"latitude": 91.0},
            {"id": float("inf")},
            {"is_public": "false"},
            {"asn_v4": 65001.9},
            {"asn_v6": True},
            {"id": "7"},
            {"id": True},
            {"latitude": True},
            {"address_v4": 16909060},
        ],
    )
    def test_bad_field_is_a_row_error(self, change):
        with pytest.raises(RowParseError):
            probe_from_dict({**self.full(), **change})

    @pytest.mark.parametrize("obj", [5, None, [1], "probe"])
    def test_non_object_is_a_row_error(self, obj):
        with pytest.raises(RowParseError, match="not an object"):
            probe_from_dict(obj)

    def test_inventory_must_be_array(self):
        with pytest.raises(JsonSyntaxError):
            parse_probe_inventory('{"id": 1}')

    def test_json_syntax_error_carries_line(self):
        with pytest.raises(JsonSyntaxError) as exc:
            parse_probe_inventory('[\n{"id": 1,}\n]')
        assert exc.value.line == 2

    def test_bad_probe_stops_the_parse(self):
        with pytest.raises(MissingField, match="missing 'id'"):
            parse_probe_inventory('[{"id": 1, "is_public": true, "status": "Connected"}, {"no_id": 2}]')


class TestTraceroutes:
    LINE = (
        '{"src_probe":1,"dst_probe":2,"src_asn":65001,"dst_asn":65002,'
        '"dst_addr":"20.2.0.1","af":4,"timestamp":1700000000,'
        '"hops":[{"hop":1,"results":[{"from":"20.1.0.9","rtt":1.5}]},'
        '{"hop":2,"results":[{"x":"*"},{"from":"20.2.0.1","rtt":3.0}]}]}'
    )

    def test_happy_path(self):
        (tr,) = parse_traceroute_results(self.LINE + "\n")
        assert tr.src_asn == 65001
        assert tr.hops == ("20.1.0.9", "20.2.0.1")

    def test_blank_lines_skipped(self):
        assert len(parse_traceroute_results("\n" + self.LINE + "\n\n")) == 1

    def test_missing_field_named(self):
        bad = self.LINE.replace('"af":4,', "")
        with pytest.raises(MissingField, match="af"):
            parse_traceroute_results(bad)

    def test_hop_order_enforced(self):
        bad = self.LINE.replace('{"hop":2,', '{"hop":1,')
        with pytest.raises(HopOrderError):
            parse_traceroute_results(bad)

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"run"', "null"])
    def test_non_object_line_is_a_row_error(self, line):
        with pytest.raises(RowParseError, match="line 1: traceroute entry is not an object"):
            parse_traceroute_results(line)

    def test_unknown_result_shape_rejected(self):
        bad = self.LINE.replace('{"x":"*"}', '{"y":"*"}')
        with pytest.raises(RowParseError):
            parse_traceroute_results(bad)

    def test_bad_json_line_stops_the_parse_at_its_line(self):
        with pytest.raises(JsonSyntaxError) as exc:
            parse_traceroute_results(self.LINE + "\n{not json}\n" + self.LINE + "\n")
        assert exc.value.line == 2

    def test_too_deep_line_is_a_syntax_error_at_its_line(self):
        with pytest.raises(JsonSyntaxError, match="line 2: nested too deeply"):
            parse_traceroute_results(self.LINE + "\n" + "[" * 5000 + "]" * 5000 + "\n")

    def test_overlong_integer_is_a_syntax_error_at_its_line(self):
        bad = self.LINE.replace('"timestamp":1700000000', '"timestamp":' + "1" * 5000)
        with pytest.raises(JsonSyntaxError) as exc:
            parse_traceroute_results(self.LINE + "\n" + bad + "\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("field", ["src_asn", "timestamp", "dst_addr", "hops"])
    def test_deeply_nested_value_is_a_row_error(self, field):
        obj = {**json.loads(self.LINE), field: nested(5000)}
        with pytest.raises(RowParseError, match="line 3"):
            traceroute_from_dict(obj, line=3)

    def test_infinite_integer_field_is_a_row_error(self):
        bad = self.LINE.replace('"timestamp":1700000000', '"timestamp":Infinity')
        with pytest.raises(RowParseError, match="line 1: timestamp is not an integer: inf"):
            parse_traceroute_results(bad)

    HEAD = LINE[: LINE.index('"hops":')]

    @pytest.mark.parametrize(
        "hops, outcome",
        [
            pytest.param('[{"hop":1,"results":[{"x":"*"},{"x":"*"}]},{"hop":2,"results":[{"from":"20.2.0.1","rtt":3.0}]}]', (None, "20.2.0.1"), id="timeout-only-hop"),
            pytest.param('[{"hop":1,"results":[{"x":"*"},{"from":"20.1.0.9","rtt":1.5},{"from":"20.1.0.8","rtt":1.0}]}]', ("20.1.0.9",), id="x-before-from"),
            pytest.param('[{"hop":1,"results":[{"from":"20.1.0.9"}]}]', ("20.1.0.9",), id="from-without-rtt"),
            pytest.param('[{"hop":1,"results":[{"from":"20.1.0.9","rtt":null}]}]', ("20.1.0.9",), id="null-rtt"),
            pytest.param('[{"hop":1,"results":[{"from":"20.1.0.9"}]},{"hop":3,"results":[{"x":"*"}]}]', ("20.1.0.9", None), id="gap-in-hop-index"),
            pytest.param("[]", (), id="no-hops"),
            pytest.param('[{"hop":1,"results":[{"from":"20.1.0.9","rtt":-0.5}]}]', RowParseError, id="negative-rtt"),
            pytest.param('[{"hop":1,"results":[{"from":"20.1.0.9","rtt":1.0},{"from":"20.1.0.8","rtt":-1}]}]', RowParseError, id="negative-rtt-after-first-reply"),
            pytest.param('[{"hop":1,"results":[{"from":"20.1.0.9","rtt":"fast"}]}]', RowParseError, id="non-numeric-rtt"),
            pytest.param('[{"hop":1,"results":[{"from":"20.1.0.9","rtt":[1]}]}]', RowParseError, id="list-rtt"),
            pytest.param('[{"hop":1,"results":[{"x":"*"}]},{"hop":1,"results":[{"x":"*"}]}]', HopOrderError, id="repeated-hop-index"),
            pytest.param('[{"hop":2,"results":[{"x":"*"}]},{"hop":1,"results":[{"x":"*"}]}]', HopOrderError, id="decreasing-hop-index"),
            pytest.param('[{"hop":0,"results":[{"x":"*"}]}]', HopOrderError, id="hop-index-zero"),
            pytest.param('[{"hop":"first","results":[{"x":"*"}]}]', RowParseError, id="non-numeric-hop-index"),
            pytest.param(None, MissingField, id="missing-hops-key"),
            pytest.param('[{"hop":1}]', RowParseError, id="hop-missing-results"),
            pytest.param('[{"hop":1,"results":[{"y":"*"}]}]', RowParseError, id="unknown-result-shape"),
            pytest.param("[1]", RowParseError, id="hop-not-an-object"),
            pytest.param("[null]", RowParseError, id="null-hop"),
            pytest.param('[{"hop":1,"results":"xx"}]', RowParseError, id="results-string"),
            pytest.param('[{"hop":1,"results":["x"]}]', RowParseError, id="result-not-an-object"),
            pytest.param('[{"hop":1,"results":{"x":1}}]', RowParseError, id="results-object"),
            pytest.param('[{"hop":1,"results":[{"from":"20.1.0.9","rtt":"nan"}]}]', RowParseError, id="nan-string-rtt"),
            pytest.param('[{"hop":1,"results":[{"from":"20.1.0.9","rtt":NaN}]}]', RowParseError, id="nan-rtt"),
            pytest.param('[{"hop":1,"results":[{"from":"20.1.0.9","rtt":Infinity}]}]', RowParseError, id="infinite-rtt"),
            pytest.param('[{"hop":1,"results":[{"from":"20.1.0.9","rtt":"1.5"}]}]', RowParseError, id="numeric-string-rtt"),
            pytest.param('[{"hop":1,"results":[{"from":"20.1.0.9","rtt":true}]}]', RowParseError, id="bool-rtt"),
            pytest.param('[{"hop":1.9,"results":[{"x":"*"}]}]', RowParseError, id="float-hop-index"),
            pytest.param('[{"hop":true,"results":[{"x":"*"}]}]', RowParseError, id="bool-hop-index"),
            pytest.param('[{"hop":"2","results":[{"x":"*"}]}]', RowParseError, id="numeric-string-hop-index"),
            pytest.param('[{"hop":1,"results":[{"from":123,"rtt":1.0}]}]', RowParseError, id="numeric-from"),
            pytest.param("{}", RowParseError, id="hops-object"),
            pytest.param('"hop results"', RowParseError, id="hops-string"),
        ],
    )
    def test_edge_forms(self, hops, outcome):
        """The second line's hop tuple, or the error it raises at line 2; None drops "hops"."""
        second = f'{self.HEAD}"hops":{hops}}}' if hops is not None else self.HEAD[:-1] + "}"
        data = f"{self.LINE}\n{second}\n"
        if isinstance(outcome, tuple):
            assert parse_traceroute_results(data)[1].hops == outcome
            return
        with pytest.raises(IngestError) as exc:
            parse_traceroute_results(data)
        assert type(exc.value) is outcome
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("src_probe", 1.9),
            ("dst_probe", True),
            ("src_asn", 65001.5),
            ("dst_asn", True),
            ("af", "4"),
            ("timestamp", "1700000000"),
            ("dst_addr", 16909060),
        ],
    )
    def test_envelope_forms(self, field, value):
        """A run envelope field of the wrong JSON type is a row error at its line."""
        second = json.dumps({**json.loads(self.LINE), field: value})
        with pytest.raises(RowParseError) as exc:
            parse_traceroute_results(f"{self.LINE}\n{second}\n")
        assert exc.value.line == 2


class TestRoundTrips:
    """Objects written the way the fetch command writes them parse back to the same values."""

    def test_probes(self):
        objs = [TestProbeInventory().full(), {**TestProbeInventory().full(), "id": 8, "asn_v6": 65020}]
        text = json.dumps(objs, indent=2) + "\n"
        assert parse_probe_inventory(text) == [probe_from_dict(o) for o in objs]

    def test_traceroutes(self):
        objs = [json.loads(TestTraceroutes.LINE), {**json.loads(TestTraceroutes.LINE), "timestamp": 1700000001}]
        text = "".join(json.dumps(o, separators=(",", ":")) + "\n" for o in objs)
        trs = parse_traceroute_results(text)
        assert trs == [traceroute_from_dict(o) for o in objs]
        assert parse_traceroute_results(text.encode("utf-8")) == trs


class TestTables:
    def test_prefix_table(self):
        table = parse_prefix_table("prefix,origin_asn\n20.1.0.0/16,65001\n20.1.128.0/17,65002\n")
        assert table.lookup("20.1.200.1") == 65002
        assert table.lookup("20.1.1.1") == 65001

    def test_invalid_cidr(self):
        with pytest.raises(InvalidCidr):
            parse_prefix_table("prefix,origin_asn\nnot-a-prefix,65001\n")

    def test_invalid_asn(self):
        with pytest.raises(InvalidAsn):
            parse_prefix_table("prefix,origin_asn\n20.1.0.0/16,0\n")

    def test_bad_cidr_reported_before_bad_asn(self):
        with pytest.raises(InvalidCidr):
            parse_prefix_table("prefix,origin_asn\nnot-a-prefix,0\n")

    def test_each_prefix_row_parsed_once(self, monkeypatch):
        parsed = []
        real = ipaddress.ip_network

        def counting(*args, **kwargs):
            parsed.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(ipaddress, "ip_network", counting)
        parse_prefix_table("prefix,origin_asn\n20.1.0.0/16,65001\n20.1.128.0/17,65002\n")
        parse_geo_table("prefix,country\n20.0.0.0/8,XX\n20.6.0.0/16,??\n")
        assert parsed == ["20.1.0.0/16", "20.1.128.0/17", "20.0.0.0/8", "20.6.0.0/16"]

    def test_geo_unknown_marker_stored_as_none(self):
        table = parse_geo_table("prefix,country\n20.0.0.0/8,XX\n20.6.0.0/16,??\n")
        assert table.lookup("20.1.0.1") == "XX"
        # the ?? entry wins LPM and masks the broader real country
        assert table.lookup("20.6.0.1") is None

    def test_geo_invalid_country(self):
        with pytest.raises(InvalidCountry):
            parse_geo_table("prefix,country\n20.0.0.0/8,Germany\n")

    def test_capitals(self):
        capitals = parse_capitals("country,latitude,longitude\nDE,52.52,13.405\n")
        assert capitals["DE"] == GeoPoint(52.52, 13.405)

    def test_capitals_duplicate(self):
        with pytest.raises(DuplicateCountry):
            parse_capitals("country,latitude,longitude\nDE,52.52,13.405\nDE,0,0\n")
