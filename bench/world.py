"""Seeded synthetic worlds for the benchmark, with verdicts fixed by design.

The route flavors mirror tests/topo.py: every designed traceroute follows a
flavor whose locality/directness label is fixed by construction, so the
expected matrix cells, matched-run counts and plan sizes come from the
generator's own choices and never from the code under test. The design is
copied here rather than imported so that edits to the test suite cannot
change the benchmark's inputs.

A world is many countries at once. Each country has its own member
networks, transit networks, sub-floor networks and address blocks; blocks
are /16s taken from first octets reserved for designed space, and filler
table rows (a /8-/24 spread plus IPv6) never touch those octets, so they
cannot change a designed lookup. Sizes are fixed by the parameters and do
not depend on the seed; the seed only moves content (fractions, flavors,
addresses), so runs with different seeds cost about the same.

The same seed gives the same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

FOREIGN = "ZZ"  # geolocation of every abroad block; never an analyzed country
DESIGNED_OCTETS = range(20, 60)  # first octets of designed /16 blocks
FILLER_OCTETS = [o for o in range(60, 224) if o not in (100, 127, 169, 172, 192, 198, 203)]
# BGP-like share of IPv4 prefix lengths among filler rows
V4_LENGTHS = [(24, 58), (23, 10), (22, 12), (21, 5), (20, 4), (19, 3), (18, 2), (17, 1), (16, 3), (15, 0.5), (14, 0.5), (13, 0.3), (12, 0.3), (11, 0.2), (10, 0.1), (9, 0.05), (8, 0.05)]
V6_LENGTHS = [(48, 50), (44, 5), (40, 5), (36, 5), (32, 35)]
V6_SHARE = 0.05  # share of filler rows that are IPv6
SUB_FLOOR = 2  # networks per country below the per-AS floor


@dataclass(frozen=True)
class WorldParams:
    countries: int
    networks: int  # member networks per country; selection admits all of them
    probes_per_as: tuple[int, ...]  # probe counts, cycled over covered networks
    uncovered: int  # member networks per country with no probe at all
    runs_per_task: float  # designed runs per plan task (0 for no traceroutes)
    hops: tuple[int, int]  # hop count range of designed runs, padded inside one AS
    router_pool: int  # distinct router addresses per block; 0 never repeats one
    prefix_rows: int  # rows per LPM table, designed rows included
    noise_runs: int = 2  # per country, of each skipped kind


@dataclass
class World:
    files: dict[str, str]  # input file name -> text
    expected: dict  # what the program must report, from the design

    def write_to(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8", newline="")

    @property
    def input_bytes(self) -> int:
        return sum(len(text.encode("utf-8")) for text in self.files.values())


def country_codes() -> list[str]:
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return [a + b for a in letters for b in letters if a + b != FOREIGN]


def combine(labels) -> tuple[str, str]:
    """Consensus of designed per-run labels; undetermined runs abstain."""
    locs = {loc for loc, _ in labels} - {"undetermined"}
    if not locs:
        locality = "undetermined"
    elif len(locs) == 1:
        locality = locs.pop()
    else:
        locality = "inconsistent"
    dirs = {dirn for _, dirn in labels} - {"undetermined"}
    if not dirs:
        directness = "not_applicable"
    elif len(dirs) == 1:
        directness = dirs.pop()
    else:
        directness = "mixed"
    return locality, directness


@dataclass
class _Network:
    asn: int
    main: str
    abroad: str | None
    opaque: str | None
    probes: list[int] = field(default_factory=list)  # ids, closest first

    @property
    def selected(self) -> list[int]:
        if not self.probes:
            return []
        close, far = self.probes[0], self.probes[-1]
        return [close] if close == far else [close, far]


@dataclass
class _Country:
    code: str
    transit_in: tuple[str, int]
    transit_out: tuple[str, int]
    transit_opaque: tuple[str, int]
    decoy: tuple[str, int]
    unmapped_in: str
    unmapped_silent: str
    networks: list[_Network]
    sub_floor: list[_Network]
    junk_probes: list[int]


class _Generator:
    def __init__(self, params: WorldParams, seed: int):
        self.p = params
        self.rng = random.Random(seed)
        self.blocks = (f"{a}.{b}" for a in DESIGNED_OCTETS for b in range(256))
        self.fresh: dict[str, int] = {}
        self.timestamp = 1_700_000_000
        self.next_probe = 1
        self.runs: list[dict] = []
        self.probes: list[dict] = []

    def block(self) -> str:
        try:
            return next(self.blocks)
        except StopIteration:
            raise ValueError("world too large for the designed address space") from None

    def host(self, base: str, pooled: bool) -> str:
        """An address inside a /16 base; routers draw from a small pool."""
        if pooled and self.p.router_pool:
            k = self.rng.randrange(self.p.router_pool)
        else:
            k = self.fresh.get(base, 0)
            self.fresh[base] = k + 1
        return f"{base}.{k // 250}.{k % 250 + 1}"

    # ---- route flavors: (script, locality, directness) -------------------
    # script items: ("addr", base) | ("unmapped", base) | ("timeout",) | ("private",)

    def _lead(self, src: _Network, lo=0):
        return [("addr", src.main)] * self.rng.randint(lo, 2)

    def _tail(self, base: str):
        return [("addr", base)] * self.rng.randint(1, 2)

    def flavors(self, c: _Country, src: _Network, dst: _Network):
        rng = self.rng
        same = src.asn == dst.asn

        def in_direct():
            return self._lead(src) + self._tail(dst.main), "in_country", "direct"

        def via(transit, locality):
            def flavor():
                script = self._lead(src) + [("addr", transit[0])] + self._tail(dst.main)
                return script, locality, "indirect"
            return flavor

        def opaque_direct():
            script = [("addr", src.opaque)] * rng.randint(0, 2) + self._tail(dst.opaque)
            return script, "undetermined", "direct"

        def out_direct():
            return self._lead(src) + self._tail(dst.abroad), "out_of_country", "direct"

        def marker_blocked():
            base = rng.choice([c.unmapped_in, c.unmapped_silent])
            script = self._lead(src, 1) + [("unmapped", base)] + self._tail(dst.main)
            # a gap inside one AS is attributed to it, so self pairs stay direct
            return script, "in_country", "direct" if same else "undetermined"

        def fully_silent():
            script = [("timeout",)] * rng.randint(1, 2)
            return script, "undetermined", "direct" if same else "undetermined"

        out = [
            in_direct,
            via(c.transit_in, "in_country"),
            via(c.transit_out, "out_of_country"),
            via(c.transit_opaque, "in_country"),
            marker_blocked,
            fully_silent,
        ]
        if src.opaque and dst.opaque:
            out.append(opaque_direct)
        if dst.abroad:
            out.append(out_direct)
        return out

    # ---- noise and padding ------------------------------------------------

    def with_noise(self, script):
        rng = self.rng
        noisy = []
        for item in script:
            if item[0] == "addr" and rng.random() < 0.2:
                noisy += [item, ("timeout",), item]  # a gap inside one AS
            else:
                noisy.append(item)
            if rng.random() < 0.2:
                noisy.append(("private",))
        if rng.random() < 0.2:
            noisy.insert(0, ("private",))
        return noisy

    def padded(self, script):
        """Repeat the first or last hop until the run has its target length.

        A repeated neighbour changes neither the AS path nor the set of hop
        countries, so the designed label holds.
        """
        lo, hi = self.p.hops
        target = self.rng.randint(lo, hi) if hi else 0
        while len(script) < target:
            if self.rng.random() < 0.5:
                script = [script[0]] + script
            else:
                script = script + [script[-1]]
        return script

    def materialize(self, c: _Country, script):
        rng = self.rng
        hops = []
        last = None
        for index, item in enumerate(script, start=1):
            if item[0] == "timeout":
                hops.append({"hop": index, "results": [{"x": "*"}] * rng.randint(1, 2)})
                continue
            if item[0] == "private":
                addr = f"10.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}"
            else:
                addr = self.host(item[1], pooled=True)
                last = addr
            results = [{"from": addr, "rtt": round(rng.uniform(0.3, 80.0), 2)}]
            if rng.random() < 0.25:
                results.insert(0, {"x": "*"})
            if rng.random() < 0.2:
                # a later answer must never be read; it points abroad to show misuse
                results.append({"from": self.host(c.decoy[0], pooled=True), "rtt": 99.9})
            hops.append({"hop": index, "results": results})
        return hops, last

    def emit(self, c: _Country, src_probe, dst_probe, src_asn, dst_asn, dst_base, script, af=4):
        hops, last = self.materialize(c, script)
        self.timestamp += 1
        self.runs.append(
            {
                "src_probe": src_probe,
                "dst_probe": dst_probe,
                "src_asn": src_asn,
                "dst_asn": dst_asn,
                "dst_addr": last or self.host(dst_base, pooled=True),
                "af": af,
                "timestamp": self.timestamp,
                "hops": hops,
            }
        )
        return len(hops)

    # ---- assembly -----------------------------------------------------------

    def country(self, ci: int, code: str) -> _Country:
        rng = self.rng
        base_asn = 100_000 + 100 * ci

        def transit(t):
            return (self.block(), 200_000 + 10 * ci + t)

        c = _Country(
            code=code,
            transit_in=transit(0),
            transit_out=transit(1),
            transit_opaque=transit(2),
            decoy=transit(3),
            unmapped_in=self.block(),
            unmapped_silent=self.block(),
            networks=[],
            sub_floor=[],
            junk_probes=[],
        )
        for j in range(self.p.networks):
            c.networks.append(
                _Network(
                    asn=base_asn + j,
                    main=self.block(),
                    abroad=self.block() if rng.random() < 0.5 else None,
                    opaque=self.block() if rng.random() < 0.7 else None,
                )
            )
        for k in range(SUB_FLOOR):
            c.sub_floor.append(_Network(asn=base_asn + 90 + k, main=self.block(), abroad=None, opaque=None))
        return c

    def place_probes(self, c: _Country, capital) -> None:
        rng = self.rng
        uncovered = set(rng.sample(range(len(c.networks)), self.p.uncovered))
        covered = [n for j, n in enumerate(c.networks) if j not in uncovered]
        for j, net in enumerate(covered):
            count = self.p.probes_per_as[j % len(self.p.probes_per_as)]
            for k in range(count):
                # distance from the capital grows with k: closest first, farthest last
                lat = capital[0] + 0.05 * (k + 1) + 0.001 * j
                net.probes.append(self.add_probe(net.asn, net.main, lat, capital[1]))
        for _ in range(max(1, len(c.networks) // 4)):
            net = rng.choice(c.networks)
            flavor = rng.choice(["foreign", "hidden", "down", "no_asn"])
            junk = self.add_probe(
                None if flavor == "no_asn" else net.asn,
                c.decoy[0] if flavor == "foreign" else net.main,
                capital[0] - 0.3,
                capital[1],
                is_public=flavor != "hidden",
                connected=flavor != "down",
            )
            c.junk_probes.append(junk)

    def add_probe(self, asn, base, lat, lon, is_public=True, connected=True) -> int:
        self.probes.append(
            {
                "id": self.next_probe,
                "asn_v4": asn,
                "asn_v6": None,
                "latitude": round(lat, 6),
                "longitude": round(lon, 6),
                "address_v4": self.host(base, pooled=False),
                "is_public": is_public,
                "status": "Connected" if connected else "Disconnected",
            }
        )
        self.next_probe += 1
        return self.next_probe - 1

    def mesh(self, c: _Country):
        """Designed runs over every plan task; returns cells, matched, hops."""
        rng = self.rng
        covered = [n for n in c.networks if n.probes]
        cells = {}
        matched = 0
        hop_count = 0
        owed = 0.0
        for src in covered:
            for dst in covered:
                labels = []
                tasks = []
                for a in src.selected:
                    for b in dst.selected:
                        if a != b and (a, b) not in tasks:
                            tasks.append((a, b))
                for a, b in tasks:
                    owed += self.p.runs_per_task
                    while owed >= 1.0:
                        owed -= 1.0
                        flavor = rng.choice(self.flavors(c, src, dst))
                        script, locality, directness = flavor()
                        labels.append((locality, directness))
                        script = self.padded(self.with_noise(script))
                        hop_count += self.emit(c, a, b, src.asn, dst.asn, dst.main, script)
                        matched += 1
                cells[(src.asn, dst.asn)] = combine(labels)
        for src in c.networks:
            for dst in c.networks:
                cells.setdefault((src.asn, dst.asn), ("no_coverage", "not_applicable"))
        return cells, matched, hop_count

    def noise(self, c: _Country) -> None:
        """Runs every country must skip: IPv6, unselected probes, foreign and uncovered ASes."""
        rng = self.rng
        covered = [n for n in c.networks if n.probes]
        uncovered = [n for n in c.networks if not n.probes]
        for _ in range(self.p.noise_runs):
            src, dst = rng.choice(covered), rng.choice(covered)
            script = [("addr", src.main), ("addr", dst.main)]
            self.emit(c, src.probes[0], dst.probes[-1], src.asn, dst.asn, dst.main, script, af=6)
            unselected = [p for n in covered for p in n.probes if p not in n.selected] + c.junk_probes
            self.emit(c, rng.choice(unselected), dst.probes[0], src.asn, dst.asn, dst.main, script)
            foreign = rng.choice([n.asn for n in c.sub_floor] + [c.decoy[1]])
            self.emit(c, src.probes[0], dst.probes[0], foreign, dst.asn, dst.main, script)
            if uncovered:
                u = rng.choice(uncovered)
                self.emit(c, 1, dst.probes[0], u.asn, dst.asn, dst.main, script)

    def generate(self) -> World:
        rng = self.rng
        p = self.p
        codes = country_codes()[: p.countries]
        population = ["country,asn,fraction_percent"]
        users = ["country,internet_users"]
        capitals = ["country,latitude,longitude"]
        prefix2as: list[str] = []
        geo: list[str] = []
        expected: dict = {"countries": codes, "matched": {}, "cells": {}, "plan_tasks": {}, "matched_hops": {}}
        for ci, code in enumerate(codes):
            c = self.country(ci, code)
            capital = (round(rng.uniform(-50.0, 50.0), 4), round(rng.uniform(-170.0, 170.0), 4))
            capitals.append(f"{code},{capital[0]},{capital[1]}")
            users.append(f"{code},{rng.randint(1_000_000, 100_000_000)}")
            weights = [rng.uniform(1.0, 4.0) for _ in c.networks]
            total = rng.uniform(80.0, 90.0)
            for net, w in zip(c.networks, weights):
                population.append(f"{code},{net.asn},{total * w / sum(weights):.3f}")
            for net in c.sub_floor:
                population.append(f"{code},{net.asn},0.5")
            self.place_probes(c, capital)
            expected["plan_tasks"][code] = sum(
                1
                for src in c.networks
                for dst in c.networks
                for a in src.selected
                for b in dst.selected
                if a != b
            )
            if p.runs_per_task:
                cells, matched, hops = self.mesh(c)
                self.noise(c)
                expected["matched"][code] = matched
                expected["matched_hops"][code] = hops
                expected["cells"][code] = {f"{s}>{d}": list(v) for (s, d), v in cells.items()}
            self.designed_rows(c, prefix2as, geo)

        files = {
            "population.csv": "\n".join(population) + "\n",
            "country_users.csv": "\n".join(users) + "\n",
            "capitals.csv": "\n".join(capitals) + "\n",
            "probes.json": json.dumps(self.probes, indent=1) + "\n",
            "geo.csv": self.table("prefix,country", geo, self.geo_value),
        }
        if p.runs_per_task:
            rng.shuffle(self.runs)
            files["prefix2as.csv"] = self.table("prefix,origin_asn", prefix2as, self.asn_value)
            files["traceroutes.ndjson"] = "".join(json.dumps(r) + "\n" for r in self.runs)
        conf = [f"{name.split('.')[0]} = {name}" for name in files]
        files["run.conf"] = "\n".join(conf) + "\n"
        return World(files=files, expected=expected)

    def designed_rows(self, c: _Country, prefix2as: list[str], geo: list[str]) -> None:
        cc = c.code
        for net in c.networks + c.sub_floor:
            prefix2as.append(f"{net.main}.0.0/16,{net.asn}")
            geo.append(f"{net.main}.0.0/16,{cc}")
            if net.opaque:
                prefix2as.append(f"{net.opaque}.0.0/16,{net.asn}")
                geo.append(f"{net.opaque}.0.0/16,??")
            if net.abroad:
                prefix2as.append(f"{net.abroad}.0.0/16,{net.asn}")
                geo.append(f"{net.abroad}.0.0/16,{FOREIGN}")
        for (base, asn), country in (
            (c.transit_in, cc),
            (c.transit_out, FOREIGN),
            (c.transit_opaque, "??"),
            (c.decoy, FOREIGN),
        ):
            prefix2as.append(f"{base}.0.0/16,{asn}")
            geo.append(f"{base}.0.0/16,{country}")
        geo.append(f"{c.unmapped_in}.0.0/16,{cc}")
        # unmapped_silent stays out of both tables on purpose

    def asn_value(self) -> str:
        return str(self.rng.randint(300_000, 399_999))

    def geo_value(self) -> str:
        return self.rng.choice([FOREIGN, "??", "AA", "AB"])

    def table(self, header: str, designed: list[str], value) -> str:
        """Designed rows plus filler up to prefix_rows, in a seeded order."""
        rng = self.rng
        rows = list(designed)
        v4_lengths, v4_weights = zip(*V4_LENGTHS)
        v6_lengths, v6_weights = zip(*V6_LENGTHS)
        while len(rows) < self.p.prefix_rows:
            if rng.random() < V6_SHARE:
                plen = rng.choices(v6_lengths, v6_weights)[0]
                net = (0x2A00 << 112) | (rng.getrandbits(plen - 8) << (128 - plen))
                groups = [f"{(net >> (112 - 16 * i)) & 0xFFFF:x}" for i in range((plen + 15) // 16)]
                rows.append(f"{':'.join(groups)}::/{plen},{value()}")
            else:
                plen = rng.choices(v4_lengths, v4_weights)[0]
                net = (rng.choice(FILLER_OCTETS) << 24) | (rng.getrandbits(24) & ~((1 << (32 - plen)) - 1) & 0xFFFFFF)
                quad = ".".join(str((net >> s) & 0xFF) for s in (24, 16, 8, 0))
                rows.append(f"{quad}/{plen},{value()}")
        rng.shuffle(rows)
        return header + "\n" + "\n".join(rows) + "\n"


def generate(params: WorldParams, seed: int) -> World:
    return _Generator(params, seed).generate()
