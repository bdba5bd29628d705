"""HTTP client for the probe-inventory and measurement-result services.

The remote payloads use the same schemas as the offline files, so each
fetched object is checked by the parser that reads those files and then
returned as received. All requests go through one rate limiter (default
ceiling 4 requests/second), and each one gives up once the server has
sent nothing for HTTP_TIMEOUT_S seconds.

Wire format:
  GET {base}/probes?country=CC      -> {"results": [probe objects], "next": url or null}
  GET {base}/measurements/{id}/results -> [traceroute objects]
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable
from urllib.parse import urlencode

from .errors import HttpError, IngestError, PaginationLoop, RowParseError
from .ingest import traceroute_from_dict, usable_probes

DEFAULT_RATE_LIMIT = 4.0
#: seconds to wait for a connection or for the next bytes of a response
HTTP_TIMEOUT_S = 30.0


class RateLimiter:
    """Global minimum-interval pacing, safe under concurrent callers."""

    def __init__(
        self,
        per_second: float = DEFAULT_RATE_LIMIT,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if per_second <= 0:
            raise ValueError("rate limit must be positive")
        self._interval = 1.0 / per_second
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_allowed = float("-inf")

    def acquire(self) -> None:
        with self._lock:
            now = self._clock()
            wait = self._next_allowed - now
            if wait > 0:
                self._sleep(wait)
                now = self._next_allowed
            self._next_allowed = now + self._interval


def _default_session():
    import requests

    return requests.Session()


class HttpClient:
    """Thin GET-JSON wrapper around a requests-compatible session."""

    def __init__(
        self,
        session=None,
        rate_limit: float = DEFAULT_RATE_LIMIT,
        api_key: str | None = None,
        limiter: RateLimiter | None = None,
    ):
        self._session = session if session is not None else _default_session()
        self._limiter = limiter if limiter is not None else RateLimiter(rate_limit)
        self._headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}

    def get_json(self, url: str) -> Any:
        self._limiter.acquire()
        response = self._session.get(url, headers=self._headers, timeout=HTTP_TIMEOUT_S)
        if response.status_code != 200:
            raise HttpError(response.status_code, url)
        return response.json()


def fetch_probe_inventory(
    base_url: str,
    country: str | None = None,
    *,
    client: HttpClient,
) -> list[dict]:
    """Fetch the (optionally country-filtered) probe inventory, all pages.

    Pages are followed via each response's "next" URL until it is null.
    Any non-200 page, invalid probe object or probe id repeated on any page
    aborts the whole fetch; a page URL seen twice raises PaginationLoop.
    """
    query = f"?{urlencode({'country': country})}" if country else ""
    url = f"{base_url.rstrip('/')}/probes{query}"
    seen = set()
    seen_ids: set[int] = set()
    probes: list[dict] = []
    while url:
        if url in seen:
            raise PaginationLoop(f"page {url} repeats")
        seen.add(url)
        payload = client.get_json(url)
        page = payload.get("results", []) if isinstance(payload, dict) else None
        if not isinstance(page, list):
            raise RowParseError(f"probe page {url} has no results array")
        usable_probes(page, seen_ids)
        probes.extend(page)
        url = payload.get("next")
    return probes


def fetch_measurement_results(
    base_url: str,
    measurement_ids: list[int],
    *,
    client: HttpClient,
) -> tuple[list[dict], list[Exception]]:
    """Fetch traceroute results for each measurement id.

    Each id's payload is kept whole or not at all. One id failing (HTTP
    error or any malformed run) does not abort the rest; failures come back
    alongside the successfully fetched results; a malformed payload's error
    names its measurement id.
    """
    if not measurement_ids:
        raise ValueError("measurement_ids must be non-empty")
    results: list[dict] = []
    failures: list[Exception] = []
    for mid in measurement_ids:
        url = f"{base_url.rstrip('/')}/measurements/{mid}/results"
        try:
            payload = client.get_json(url)
            if not isinstance(payload, list):
                raise RowParseError("results are not an array")
            for obj in payload:
                traceroute_from_dict(obj)
        except (HttpError, IngestError) as exc:
            if isinstance(exc, IngestError):
                exc.args = (f"measurement {mid}: {exc}",)
            failures.append(exc)
            continue
        results.extend(payload)
    return results, failures
