"""Seeded synthetic topologies with known per-pair connectivity verdicts.

A topology is a small country (up to five eyeball networks) plus transit,
foreign and opaque infrastructure. Every generated traceroute follows one
of a handful of route flavors whose locality/directness labels are fixed
by construction, so the expected matrix verdicts come from the generative
choices rather than from re-parsing the emitted files. Runs are salted
with semantics-neutral noise: private hops, timeouts inside a single AS,
extra responses after the first answer of a hop. compose() merges several
topologies, each under its own country code, into one input set.
"""

import json
import random
from dataclasses import dataclass, field

COUNTRY = "XX"
FOREIGN = "YY"
CAPITAL = (50.0, 8.0)
USERS = 10_000_000

TRANSIT_IN = ("25.1", 64901)  # transit AS geolocated in-country
TRANSIT_OUT = ("25.2", 64902)  # transit AS geolocated abroad
TRANSIT_OPAQUE = ("25.3", 64903)  # transit AS with unknown geolocation
DECOY = ("30.9", 64999)  # mapped foreign AS used for never-read responses
UNMAPPED_IN = "45.1"  # geolocated in-country, absent from the AS mapping
UNMAPPED_SILENT = "45.2"  # absent from both tables


def _write_files(files, directory):
    paths = {}
    for name, text in files.items():
        path = directory / name
        path.write_text(text, encoding="utf-8")
        paths[name] = path
    return paths


@dataclass
class Topology:
    seed: int
    asns: list[int]
    covered: list[int]
    expected: dict  # (src_asn, dst_asn) -> (locality value, directness value)
    matched_runs: int
    warning_count: int
    files: dict = field(default_factory=dict)  # file name -> text

    def write_to(self, directory):
        return _write_files(self.files, directory)


@dataclass
class World:
    """Several topologies merged into one input set."""

    topologies: dict  # country code -> Topology
    files: dict

    def write_to(self, directory):
        return _write_files(self.files, directory)


class _AddressPool:
    """Hands out fresh host addresses inside /16 bases like '20.3'.

    A pool for slot k moves every base's first octet up by k, so the
    topologies of a composed world never share an address block.
    """

    def __init__(self, slot=0):
        self.slot = slot
        self.counters = {}

    def shift(self, base):
        first, rest = base.split(".", 1)
        return f"{int(first) + self.slot}.{rest}"

    def take(self, base):
        base = self.shift(base)
        k = self.counters.get(base, 0)
        self.counters[base] = k + 1
        return f"{base}.{k // 250}.{k % 250 + 1}"


def _main(i):
    return f"20.{i}"


def _abroad(i):
    return f"30.{i}"


def _opaque(i):
    return f"40.{i}"


def _combine(labels):
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


class _Generator:
    def __init__(self, seed, slot=0, country=COUNTRY):
        self.rng = random.Random(seed)
        self.seed = seed
        self.country = country
        self.asn_offset = 1000 * slot
        self.probe_offset = 10000 * slot
        self.pool = _AddressPool(slot)
        self.timestamp = 1700000000
        self.runs = []
        self.warning_count = 0

    # ---- flavors: each returns (script, locality, directness) ----------
    # script items: ("addr", base) | ("unmapped", base) | ("timeout",)

    def _in_direct(self, s, d):
        script = [("addr", _main(s))] * self.rng.randint(0, 2)
        script += [("addr", _main(d))] * self.rng.randint(1, 2)
        return script, "in_country", "direct"

    def _in_transit(self, s, d):
        script = [("addr", _main(s))] * self.rng.randint(0, 2)
        script.append(("addr", TRANSIT_IN[0]))
        script += [("addr", _main(d))] * self.rng.randint(1, 2)
        return script, "in_country", "indirect"

    def _out_transit(self, s, d):
        script = [("addr", _main(s))] * self.rng.randint(0, 2)
        script.append(("addr", TRANSIT_OUT[0]))
        script += [("addr", _main(d))] * self.rng.randint(1, 2)
        return script, "out_of_country", "indirect"

    def _opaque_transit(self, s, d):
        # transit leg has unknown geolocation; endpoint hops witness in-country
        script = [("addr", _main(s))] * self.rng.randint(0, 2)
        script.append(("addr", TRANSIT_OPAQUE[0]))
        script += [("addr", _main(d))] * self.rng.randint(1, 2)
        return script, "in_country", "indirect"

    def _opaque_direct(self, s, d):
        script = [("addr", _opaque(s))] * self.rng.randint(0, 2)
        script += [("addr", _opaque(d))] * self.rng.randint(1, 2)
        return script, "undetermined", "direct"

    def _out_direct(self, s, d):
        script = [("addr", _main(s))] * self.rng.randint(0, 2)
        script += [("addr", _abroad(d))] * self.rng.randint(1, 2)
        return script, "out_of_country", "direct"

    def _marker_blocked(self, s, d):
        base = self.rng.choice([UNMAPPED_IN, UNMAPPED_SILENT])
        script = [("addr", _main(s))] * self.rng.randint(1, 2)
        script.append(("unmapped", base))
        script += [("addr", _main(d))] * self.rng.randint(1, 2)
        # a gap inside one AS is attributed to it, so self pairs stay direct
        return script, "in_country", "direct" if s == d else "undetermined"

    def _fully_silent(self, s, d):
        script = [("timeout",)] * self.rng.randint(1, 2)
        return script, "undetermined", "direct" if s == d else "undetermined"

    # ---- noise ----------------------------------------------------------

    def _with_noise(self, script):
        noisy = []
        for item in script:
            if item[0] == "addr" and self.rng.random() < 0.2:
                # timeout sandwiched inside one AS changes nothing
                noisy += [item, ("timeout",), item]
            else:
                noisy.append(item)
            if self.rng.random() < 0.2:
                noisy.append(("private",))
        if self.rng.random() < 0.2:
            noisy.insert(0, ("private",))
        return noisy

    def _materialize(self, script):
        """Script -> (hop objects, last responding address)."""
        hops = []
        last_addr = None
        index = 0
        for item in script:
            index += 1
            if item[0] == "timeout":
                hops.append({"hop": index, "results": [{"x": "*"}] * self.rng.randint(1, 2)})
                continue
            if item[0] == "private":
                addr = f"10.{self.rng.randint(0, 255)}.{self.rng.randint(0, 255)}.{self.rng.randint(1, 254)}"
            else:
                addr = self.pool.take(item[1])
            results = [{"from": addr, "rtt": round(self.rng.uniform(0.3, 80.0), 2)}]
            if self.rng.random() < 0.25:
                results.insert(0, {"x": "*"})
            if self.rng.random() < 0.2:
                # a second answer after the first must never be consulted;
                # make it maximally misleading so misuse shows up
                results.append({"from": self.pool.take(DECOY[0]), "rtt": 99.9})
            hops.append({"hop": index, "results": results})
            if item[0] != "private":
                last_addr = addr
        return hops, last_addr

    def _emit_run(self, src_probe, dst_probe, s_asn, d_asn, script, af=4, d_index=None):
        hops, last_addr = self._materialize(script)
        dst_addr = last_addr or self.pool.take(_main(d_index) if d_index else DECOY[0])
        self.timestamp += 1
        self.runs.append(
            {
                "src_probe": src_probe,
                "dst_probe": dst_probe,
                "src_asn": s_asn,
                "dst_asn": d_asn,
                "dst_addr": dst_addr,
                "af": af,
                "timestamp": self.timestamp,
                "hops": hops,
            }
        )

    # ---- assembly -------------------------------------------------------

    def generate(self):
        rng = self.rng
        n = rng.randint(2, 5)
        asns = [65001 + self.asn_offset + i for i in range(n)]
        thousandths = [rng.randint(20, 180) for _ in range(n)]
        covered_flags = [rng.random() < 0.8 for _ in range(n)]
        covered_flags[0] = True
        has_opaque = {asns[i]: rng.random() < 0.7 for i in range(n)}
        has_abroad = {asns[i]: rng.random() < 0.5 for i in range(n)}

        probe_ids = {}
        probes = []
        for i, asn in enumerate(asns, start=1):
            if covered_flags[i - 1]:
                count = rng.choice([1, 2, 2])
                ids = [self.probe_offset + 100 * i + k for k in range(1, count + 1)]
                probe_ids[asn] = ids
                for k, pid in enumerate(ids):
                    probes.append(
                        {
                            "id": pid,
                            "asn_v4": asn,
                            "asn_v6": None,
                            "latitude": 50.0 + 0.02 * i + 1.0 * k,
                            "longitude": 8.0,
                            "address_v4": self.pool.take(_main(i)),
                            "is_public": True,
                            "status": "Connected",
                        }
                    )
            junk = rng.random()
            if junk < 0.4:
                # a probe that must not enter the selection
                flavor = rng.choice(["foreign", "hidden", "down", "no_asn"])
                probes.append(
                    {
                        "id": self.probe_offset + 100 * i + 9,
                        "asn_v4": None if flavor == "no_asn" else asn,
                        "asn_v6": None,
                        "latitude": 50.5,
                        "longitude": 8.5,
                        "address_v4": self.pool.take(
                            DECOY[0] if flavor == "foreign" else _main(i)
                        ),
                        "is_public": flavor != "hidden",
                        "status": "Disconnected" if flavor == "down" else "Connected",
                    }
                )

        covered = [asns[i] for i in range(n) if covered_flags[i]]
        index_of = {asn: i + 1 for i, asn in enumerate(asns)}

        # per ordered covered pair: up to three runs with designed labels
        expected = {}
        labels_by_pair = {}
        matched = 0
        for s_asn in covered:
            for d_asn in covered:
                s, d = index_of[s_asn], index_of[d_asn]
                flavors = [
                    self._in_direct,
                    self._in_transit,
                    self._out_transit,
                    self._opaque_transit,
                    self._marker_blocked,
                    self._fully_silent,
                ]
                if has_opaque[s_asn] and has_opaque[d_asn]:
                    flavors.append(self._opaque_direct)
                if has_abroad[d_asn]:
                    flavors.append(self._out_direct)
                labels = []
                for _ in range(rng.choice([0, 1, 1, 2, 2, 3])):
                    flavor = rng.choice(flavors)
                    script, locality, directness = flavor(s, d)
                    labels.append((locality, directness))
                    self._emit_run(
                        rng.choice(probe_ids[s_asn]),
                        rng.choice(probe_ids[d_asn]),
                        s_asn,
                        d_asn,
                        self._with_noise(script),
                        d_index=d,
                    )
                    matched += 1
                labels_by_pair[(s_asn, d_asn)] = labels

        for s_asn in asns:
            for d_asn in asns:
                pair = (s_asn, d_asn)
                if s_asn in covered and d_asn in covered:
                    expected[pair] = _combine(labels_by_pair[pair])
                else:
                    expected[pair] = ("no_coverage", "not_applicable")

        self._emit_noise_runs(asns, covered, probe_ids, index_of)
        rng.shuffle(self.runs)

        files = self._render_files(asns, thousandths, has_opaque, has_abroad, probes, index_of)
        return Topology(
            seed=self.seed,
            asns=asns,
            covered=covered,
            expected=expected,
            matched_runs=matched,
            warning_count=self.warning_count,
            files=files,
        )

    def _emit_noise_runs(self, asns, covered, probe_ids, index_of):
        rng = self.rng
        s_asn = rng.choice(covered)
        d_asn = rng.choice(covered)
        s, d = index_of[s_asn], index_of[d_asn]
        if rng.random() < 0.6:
            script, _, _ = self._in_direct(s, d)
            self._emit_run(
                rng.choice(probe_ids[s_asn]), rng.choice(probe_ids[d_asn]),
                s_asn, d_asn, script, af=6, d_index=d,
            )
            self.warning_count += 1
        if rng.random() < 0.6:
            script, _, _ = self._in_direct(s, d)
            self._emit_run(
                self.probe_offset + 9999, rng.choice(probe_ids[d_asn]),
                s_asn, d_asn, script, d_index=d,
            )
            self.warning_count += 1
        if rng.random() < 0.6:
            script, _, _ = self._in_direct(s, d)
            self._emit_run(
                self.probe_offset + 1, self.probe_offset + 2,
                self.asn_offset + DECOY[1], d_asn, script, d_index=d,
            )
            self.warning_count += 1
        uncovered = [a for a in asns if a not in covered]
        if uncovered and rng.random() < 0.8:
            u = rng.choice(uncovered)
            script, _, _ = self._in_direct(index_of[u], d)
            self._emit_run(
                self.probe_offset + 5000, rng.choice(probe_ids[d_asn]),
                u, d_asn, script, d_index=d,
            )
            self.warning_count += 1

    def _render_files(self, asns, thousandths, has_opaque, has_abroad, probes, index_of):
        cc, block = self.country, self.pool.shift
        population = ["country,asn,fraction_percent"]
        for asn, t in zip(asns, thousandths):
            population.append(f"{cc},{asn},{t / 10:.1f}")

        prefix2as = ["prefix,origin_asn"]
        geo = ["prefix,country"]
        for asn in asns:
            i = index_of[asn]
            prefix2as.append(f"{block(_main(i))}.0.0/16,{asn}")
            geo.append(f"{block(_main(i))}.0.0/16,{cc}")
            if has_opaque[asn]:
                prefix2as.append(f"{block(_opaque(i))}.0.0/16,{asn}")
                geo.append(f"{block(_opaque(i))}.0.0/16,??")
            if has_abroad[asn]:
                prefix2as.append(f"{block(_abroad(i))}.0.0/16,{asn}")
                geo.append(f"{block(_abroad(i))}.0.0/16,{FOREIGN}")
        for base, asn in (TRANSIT_IN, TRANSIT_OUT, TRANSIT_OPAQUE, DECOY):
            prefix2as.append(f"{block(base)}.0.0/16,{self.asn_offset + asn}")
        geo.append(f"{block(TRANSIT_IN[0])}.0.0/16,{cc}")
        geo.append(f"{block(TRANSIT_OUT[0])}.0.0/16,{FOREIGN}")
        geo.append(f"{block(TRANSIT_OPAQUE[0])}.0.0/16,??")
        geo.append(f"{block(DECOY[0])}.0.0/16,{FOREIGN}")
        geo.append(f"{block(UNMAPPED_IN)}.0.0/16,{cc}")
        # UNMAPPED_SILENT stays out of both tables on purpose

        return {
            "population.csv": "\n".join(population) + "\n",
            "country_users.csv": f"country,internet_users\n{cc},{USERS}\n",
            "capitals.csv": f"country,latitude,longitude\n{cc},{CAPITAL[0]},{CAPITAL[1]}\n",
            "probes.json": json.dumps(probes, indent=1) + "\n",
            "prefix2as.csv": "\n".join(prefix2as) + "\n",
            "geo.csv": "\n".join(geo) + "\n",
            "traceroutes.ndjson": "".join(json.dumps(r) + "\n" for r in self.runs),
        }


def generate(seed) -> Topology:
    return _Generator(seed).generate()


def compose(seeds, countries) -> World:
    """Merge one topology per (seed, country code) into one input set.

    Topology k keeps to its own ASNs (+1000*k, transit and decoy ASes
    included), probe ids (+10000*k) and address blocks (first octet +k),
    so no two countries share a network, a probe or a prefix. At most five
    topologies fit; codes must differ from FOREIGN.
    """
    assert len(seeds) == len(countries) <= 5 and FOREIGN not in countries
    parts = {
        cc: _Generator(seed, slot, cc).generate()
        for slot, (seed, cc) in enumerate(zip(seeds, countries))
    }
    texts = [t.files for t in parts.values()]
    files = {}
    for name in texts[0]:
        if name.endswith(".csv"):
            header = texts[0][name].split("\n", 1)[0]
            files[name] = header + "\n" + "".join(t[name].split("\n", 1)[1] for t in texts)
        elif name.endswith(".json"):
            probes = [p for t in texts for p in json.loads(t[name])]
            files[name] = json.dumps(probes, indent=1) + "\n"
        else:
            files[name] = "".join(t[name] for t in texts)
    return World(parts, files)
