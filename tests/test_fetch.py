"""HTTP fetching against a fake session: pagination, failures, pacing."""

import math

import pytest

from eyeball_jedi.errors import HttpError, MissingField, PaginationLoop, RowParseError
from eyeball_jedi.fetch import (
    HttpClient,
    RateLimiter,
    fetch_measurement_results,
    fetch_probe_inventory,
)

BASE = "https://atlas.example.net/api"


class FakeResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        return self._payload


class FakeSession:
    """Maps exact URLs to payloads; a ('error', code) entry returns that status.

    Each request is recorded as (url, headers, timeout).
    """

    def __init__(self, routes):
        self.routes = routes
        self.requests = []

    def get(self, url, headers=None, timeout=None):
        self.requests.append((url, dict(headers or {}), timeout))
        if url not in self.routes:
            return FakeResponse(404)
        entry = self.routes[url]
        if isinstance(entry, tuple) and entry[0] == "error":
            return FakeResponse(entry[1])
        return FakeResponse(200, entry)


class FreeLimiter:
    def acquire(self):
        pass


def make_client(routes):
    session = FakeSession(routes)
    return HttpClient(session=session, limiter=FreeLimiter()), session


def probe_obj(probe_id, asn=65001):
    return {
        "id": probe_id,
        "asn_v4": asn,
        "asn_v6": None,
        "latitude": 50.0,
        "longitude": 8.0,
        "address_v4": "20.1.0.9",
        "is_public": True,
        "status": "Connected",
    }


def traceroute_obj(mid_probe=11, timestamp=1700000000):
    return {
        "src_probe": mid_probe,
        "dst_probe": 22,
        "src_asn": 65001,
        "dst_asn": 65002,
        "dst_addr": "20.2.0.9",
        "af": 4,
        "timestamp": timestamp,
        "hops": [
            {"hop": 1, "results": [{"from": "20.1.0.1", "rtt": 1.5}]},
            {"hop": 2, "results": [{"x": "*"}, {"from": "20.2.0.9", "rtt": 9.0}]},
        ],
    }


class TestFetchProbeInventory:
    def test_two_pages_are_concatenated(self):
        page2_url = f"{BASE}/probes?country=XX&page=2"
        client, session = make_client(
            {
                f"{BASE}/probes?country=XX": {
                    "results": [probe_obj(i) for i in range(1, 101)],
                    "next": page2_url,
                },
                page2_url: {
                    "results": [probe_obj(i) for i in range(101, 138)],
                    "next": None,
                },
            }
        )
        probes = fetch_probe_inventory(BASE, "XX", client=client)
        assert len(probes) == 137
        assert [p["id"] for p in probes[:3]] == [1, 2, 3]
        assert probes[-1]["id"] == 137
        assert len(session.requests) == 2

    def test_country_filter_in_query(self):
        client, session = make_client({f"{BASE}/probes?country=DE": {"results": [], "next": None}})
        assert fetch_probe_inventory(BASE, "DE", client=client) == []
        assert session.requests[0][0].endswith("/probes?country=DE")

    def test_no_country_means_no_query(self):
        client, session = make_client({f"{BASE}/probes": {"results": [], "next": None}})
        fetch_probe_inventory(BASE, client=client)
        assert session.requests[0][0] == f"{BASE}/probes"

    def test_trailing_slash_normalized(self):
        client, session = make_client({f"{BASE}/probes": {"results": [], "next": None}})
        fetch_probe_inventory(BASE + "/", client=client)
        assert session.requests[0][0] == f"{BASE}/probes"

    def test_error_page_aborts_whole_fetch(self):
        page2_url = f"{BASE}/probes?page=2"
        client, _ = make_client(
            {
                f"{BASE}/probes": {"results": [probe_obj(1)], "next": page2_url},
                page2_url: ("error", 500),
            }
        )
        with pytest.raises(HttpError) as exc_info:
            fetch_probe_inventory(BASE, client=client)
        assert exc_info.value.status == 500
        assert page2_url in str(exc_info.value)

    def test_pagination_loop_detected(self):
        first = f"{BASE}/probes"
        client, _ = make_client({first: {"results": [probe_obj(1)], "next": first}})
        with pytest.raises(PaginationLoop):
            fetch_probe_inventory(BASE, client=client)

    def test_probe_objects_come_back_as_received(self):
        sent = {**probe_obj(7, asn=65010), "asn_v6": 65011, "extra": {"kept": True}}
        client, _ = make_client({f"{BASE}/probes": {"results": [sent], "next": None}})
        assert fetch_probe_inventory(BASE, client=client) == [sent]

    @pytest.mark.parametrize(
        "bad, error",
        [
            ({**probe_obj(2), "asn_v4": "abc"}, RowParseError),
            ({"asn_v4": 65001}, MissingField),
            (5, RowParseError),
            ({**probe_obj(2), "is_public": "false"}, RowParseError),
        ],
    )
    def test_invalid_probe_aborts_whole_fetch(self, bad, error):
        client, _ = make_client(
            {f"{BASE}/probes": {"results": [probe_obj(1), bad], "next": None}}
        )
        with pytest.raises(error):
            fetch_probe_inventory(BASE, client=client)

    @pytest.mark.parametrize(
        "second",
        [probe_obj(1, asn=65002), {**probe_obj(1), "status": "Disconnected"}],
        ids=["usable", "unusable"],
    )
    @pytest.mark.parametrize("same_page", [True, False], ids=["one-page", "two-pages"])
    def test_repeated_probe_id_aborts_whole_fetch(self, second, same_page):
        page2_url = f"{BASE}/probes?page=2"
        if same_page:
            routes = {f"{BASE}/probes": {"results": [probe_obj(1), second], "next": None}}
        else:
            routes = {
                f"{BASE}/probes": {"results": [probe_obj(1)], "next": page2_url},
                page2_url: {"results": [probe_obj(2), second], "next": None},
            }
        client, _ = make_client(routes)
        with pytest.raises(RowParseError, match="probe id 1 repeated"):
            fetch_probe_inventory(BASE, client=client)

    @pytest.mark.parametrize(
        "page", [[probe_obj(1)], {"results": 5}, None, {"detail": "oops", "next": None}]
    )
    def test_page_without_results_array_is_a_row_error(self, page):
        client, _ = make_client({f"{BASE}/probes": page})
        with pytest.raises(RowParseError, match="results array"):
            fetch_probe_inventory(BASE, client=client)

    @pytest.mark.parametrize("link", [[1], {"a": 1}, 5])
    def test_next_link_that_is_not_a_string_is_a_row_error(self, link):
        client, _ = make_client({f"{BASE}/probes": {"results": [probe_obj(1)], "next": link}})
        with pytest.raises(RowParseError, match="next link"):
            fetch_probe_inventory(BASE, client=client)


class TestFetchMeasurementResults:
    def test_per_id_failures_do_not_abort(self):
        client, _ = make_client(
            {
                f"{BASE}/measurements/1/results": [traceroute_obj(timestamp=1700000001)],
                f"{BASE}/measurements/2/results": ("error", 404),
                f"{BASE}/measurements/3/results": [
                    traceroute_obj(timestamp=1700000003),
                    traceroute_obj(timestamp=1700000004),
                ],
            }
        )
        results, failures = fetch_measurement_results(BASE, [1, 2, 3], client=client)
        assert len(results) == 3
        assert len(failures) == 1
        assert isinstance(failures[0], HttpError)
        assert failures[0].status == 404

    def test_malformed_payload_is_a_failure(self):
        bad = traceroute_obj()
        del bad["af"]
        client, _ = make_client(
            {
                f"{BASE}/measurements/1/results": [bad],
                f"{BASE}/measurements/2/results": [traceroute_obj()],
            }
        )
        results, failures = fetch_measurement_results(BASE, [1, 2], client=client)
        assert len(results) == 1
        assert len(failures) == 1
        assert str(failures[0]) == "measurement 1: traceroute missing 'af'"

    @pytest.mark.parametrize("bad_at", [0, 2])
    def test_one_bad_run_drops_its_whole_id(self, bad_at):
        bad = traceroute_obj(timestamp=1700000099)
        bad["hops"][0]["results"][0]["rtt"] = -1.0
        payload = [traceroute_obj(timestamp=1700000000 + i) for i in range(2)]
        payload.insert(bad_at, bad)
        client, _ = make_client(
            {
                f"{BASE}/measurements/1/results": payload,
                f"{BASE}/measurements/2/results": [traceroute_obj()],
            }
        )
        results, failures = fetch_measurement_results(BASE, [1, 2], client=client)
        assert results == [traceroute_obj()]
        assert len(failures) == 1 and isinstance(failures[0], RowParseError)

    @pytest.mark.parametrize("payload", [{"results": []}, 5, None, [5]])
    def test_payload_of_the_wrong_shape_is_a_failure(self, payload):
        client, _ = make_client({f"{BASE}/measurements/1/results": payload})
        results, failures = fetch_measurement_results(BASE, [1], client=client)
        assert results == []
        assert len(failures) == 1 and isinstance(failures[0], RowParseError)

    def test_empty_id_list_rejected(self):
        client, _ = make_client({})
        with pytest.raises(ValueError, match="non-empty"):
            fetch_measurement_results(BASE, [], client=client)

    def test_all_good_means_no_failures(self):
        client, _ = make_client({f"{BASE}/measurements/9/results": [traceroute_obj()]})
        results, failures = fetch_measurement_results(BASE, [9], client=client)
        assert failures == []
        assert results == [traceroute_obj()]


class TestHttpClient:
    def test_bearer_header_sent_when_key_given(self):
        session = FakeSession({f"{BASE}/probes": {"results": [], "next": None}})
        client = HttpClient(session=session, api_key="sekrit", limiter=FreeLimiter())
        fetch_probe_inventory(BASE, client=client)
        assert session.requests[0][1] == {"Authorization": "Bearer sekrit"}

    def test_no_header_without_key(self):
        session = FakeSession({f"{BASE}/probes": {"results": [], "next": None}})
        client = HttpClient(session=session, limiter=FreeLimiter())
        fetch_probe_inventory(BASE, client=client)
        assert session.requests[0][1] == {}

    def test_every_request_carries_a_finite_timeout(self):
        page2_url = f"{BASE}/probes?page=2"
        client, session = make_client(
            {
                f"{BASE}/probes": {"results": [probe_obj(1)], "next": page2_url},
                page2_url: {"results": [], "next": None},
                f"{BASE}/measurements/1/results": [traceroute_obj()],
            }
        )
        fetch_probe_inventory(BASE, client=client)
        fetch_measurement_results(BASE, [1], client=client)
        timeouts = [timeout for _url, _headers, timeout in session.requests]
        assert len(timeouts) == 3
        assert all(isinstance(t, float) and math.isfinite(t) and t > 0 for t in timeouts)

    def test_non_200_raises_http_error(self):
        session = FakeSession({"u": ("error", 429)})
        client = HttpClient(session=session, limiter=FreeLimiter())
        with pytest.raises(HttpError) as exc_info:
            client.get_json("u")
        assert exc_info.value.status == 429


class TestRateLimiter:
    def test_paces_to_requested_rate(self):
        now = [0.0]
        sleeps = []

        def clock():
            return now[0]

        def sleep(seconds):
            sleeps.append(seconds)
            now[0] += seconds

        limiter = RateLimiter(per_second=4.0, clock=clock, sleep=sleep)
        for _ in range(5):
            limiter.acquire()
        # first call free, each further immediate call waits one interval
        assert sleeps == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_no_sleep_when_calls_are_spaced_out(self):
        now = [0.0]
        sleeps = []

        def clock():
            return now[0]

        def sleep(seconds):
            sleeps.append(seconds)

        limiter = RateLimiter(per_second=4.0, clock=clock, sleep=sleep)
        limiter.acquire()
        now[0] += 1.0
        limiter.acquire()
        assert sleeps == []

    def test_partial_wait(self):
        now = [0.0]
        sleeps = []

        def clock():
            return now[0]

        def sleep(seconds):
            sleeps.append(seconds)
            now[0] += seconds

        limiter = RateLimiter(per_second=2.0, clock=clock, sleep=sleep)
        limiter.acquire()
        now[0] += 0.2
        limiter.acquire()
        assert sleeps == pytest.approx([0.3])

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError, match="positive"):
            RateLimiter(per_second=0.0)
