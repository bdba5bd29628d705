"""Longest-prefix-match tables for IP-to-AS and IP-to-country lookups.

Entries are bucketed by (ip version, prefix length); a lookup masks the
address down to each stored length, most specific first, and returns the
first bucket hit. Re-adding an identical prefix overwrites its value.
"""

from __future__ import annotations

import ipaddress
from typing import Any

_Network = ipaddress.IPv4Network | ipaddress.IPv6Network
_Address = ipaddress.IPv4Address | ipaddress.IPv6Address


class LpmTable:
    """IP prefix -> value, e.g. origin AS number or country code.

    A stored None is a value like any other: the geo table stores it for
    "geolocation unknown", and such an entry still wins longest-prefix
    match, masking any broader prefix with a real country. So lookup()
    returning None covers both "no entry" and "explicitly unknown".
    """

    def __init__(self):
        # (version, prefixlen) -> {network int -> value}
        self._buckets: dict[tuple[int, int], dict[int, Any]] = {}
        # version -> prefix lengths present, longest first
        self._lengths: dict[int, list[int]] = {4: [], 6: []}
        self._size = 0

    def add(self, prefix: str | _Network, value: Any) -> None:
        """Store value under prefix; a string is parsed with host bits masked off."""
        net = prefix if isinstance(prefix, _Network) else ipaddress.ip_network(prefix, strict=False)
        key = (net.version, net.prefixlen)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = {}
            lengths = self._lengths[net.version]
            lengths.append(net.prefixlen)
            lengths.sort(reverse=True)
        if int(net.network_address) not in bucket:
            self._size += 1
        bucket[int(net.network_address)] = value

    def lookup(self, address: str | _Address) -> Any | None:
        """Value of the most specific prefix containing address, else None.

        A parsed address is used as is; a string is parsed first.
        """
        addr = address if isinstance(address, _Address) else ipaddress.ip_address(address)
        addr_int = int(addr)
        version = addr.version
        max_len = addr.max_prefixlen
        for plen in self._lengths[version]:
            masked = (addr_int >> (max_len - plen)) << (max_len - plen)
            bucket = self._buckets[(version, plen)]
            if masked in bucket:
                return bucket[masked]
        return None

    def __len__(self) -> int:
        return self._size
