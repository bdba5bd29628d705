"""Acceptance criteria for the eyeball connectivity analyzer.

Each test below is one acceptance criterion; the terminal summary prints
one PASS/FAIL line per criterion (see conftest). Expected values come from
the independent oracles in oracles.py and from fixed fixtures under
tests/fixtures, never from the code under test.
"""

import ipaddress
import math
import random
import time

from oracles import (
    ANTIPODAL_KM,
    COVERED_FRACTION_181,
    PARIS_LONDON_KM,
    UNCOVERED_FRACTION_181,
    UNEXAMINED_0845,
    law_of_cosines_km,
    linear_lpm_parsed,
    metrics_double_loop,
    parsed_entries,
)
import topo

from eyeball_jedi import pipeline
from eyeball_jedi.cli import EXIT_OK, main
from eyeball_jedi.config import RunConfig
from eyeball_jedi.coverage import select_dominant_networks
from eyeball_jedi.ingest import PopulationEstimateRow
from eyeball_jedi.lpm import LpmTable
from eyeball_jedi.matrix import build_matrix, compute_metrics
from eyeball_jedi.model import (
    CellVerdict,
    DirectnessVerdict,
    EyeballMatrix,
    EyeballNetwork,
    EyeballSet,
    GeoPoint,
    LocalityVerdict,
)
from eyeball_jedi.selection import ProbeSelection, haversine_km

CAPITAL = GeoPoint(50.0, 8.0)


def test_criterion_1_sixteen_network_metrics():
    """A 16-network set covering 84.5% of users yields an unexamined share
    of 0.28598 within 0.001, computed in under one second."""
    thousandths = [210, 100, 90, 80, 70, 60, 50, 40, 30, 25, 20, 20, 15, 15, 10, 10]
    rows = [
        PopulationEstimateRow("XX", 65001 + i, t / 10.0)
        for i, t in enumerate(thousandths)
    ]
    start = time.perf_counter()
    eyeball_set = select_dominant_networks(rows, 10_000_000, CAPITAL)
    matrix = build_matrix(eyeball_set, ProbeSelection({}), {})
    metrics = compute_metrics(matrix)
    elapsed = time.perf_counter() - start

    assert eyeball_set.covered_fraction == 0.845
    assert len(eyeball_set.networks) == 16
    assert abs(metrics.unexamined_area - 0.28598) <= 0.001
    assert metrics.unexamined_area == UNEXAMINED_0845
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def _random_matrix(rng):
    n = rng.randint(1, 30)
    raw = [rng.random() + 1e-3 for _ in range(n)]
    total = rng.uniform(0.2, 1.0)
    scale = total / sum(raw)
    nets = [
        EyeballNetwork.build(65001 + i, "XX", raw[i] * scale, 50_000_000)
        for i in range(n)
    ]
    eyeball_set = EyeballSet.from_networks("XX", 50_000_000, CAPITAL, nets)
    asns = eyeball_set.asns
    fractions = [net.user_fraction for net in eyeball_set.networks]
    uncovered = {asn for asn in asns if rng.random() < 0.25}

    localities = [
        LocalityVerdict.IN_COUNTRY,
        LocalityVerdict.OUT_OF_COUNTRY,
        LocalityVerdict.INCONSISTENT,
        LocalityVerdict.UNDETERMINED,
    ]
    directs = [
        DirectnessVerdict.DIRECT,
        DirectnessVerdict.INDIRECT,
        DirectnessVerdict.MIXED,
        DirectnessVerdict.NOT_APPLICABLE,
    ]
    cells = {}
    oracle_cells = {}
    for i, s in enumerate(asns):
        for j, d in enumerate(asns):
            weight = fractions[i] * fractions[j]
            if s in uncovered or d in uncovered:
                locality = LocalityVerdict.NO_COVERAGE
                directness = DirectnessVerdict.NOT_APPLICABLE
            else:
                locality = rng.choice(localities)
                directness = rng.choice(directs)
            cells[(s, d)] = CellVerdict(s, d, locality, directness, weight)
            oracle_cells[(i, j)] = (locality.value, directness.value)
    matrix = EyeballMatrix(eyeball_set=eyeball_set, cells=cells)
    return matrix, fractions, oracle_cells


def test_criterion_2_random_matrix_metrics():
    """Across 1000 random matrices with 1..30 networks, the six locality
    categories partition 1 within 1e-9 and every category area matches a
    plain double-loop recomputation within 1e-12."""
    rng = random.Random(20260819)
    for _ in range(1000):
        matrix, fractions, oracle_cells = _random_matrix(rng)
        metrics = compute_metrics(matrix)
        oracle = metrics_double_loop(fractions, oracle_cells)

        partition = math.fsum(
            [
                metrics.in_country_area,
                metrics.out_of_country_area,
                metrics.inconsistent_area,
                metrics.undetermined_area,
                metrics.no_coverage_area,
                metrics.unexamined_area,
            ]
        )
        assert abs(partition - 1.0) <= 1e-9

        assert abs(metrics.in_country_area - oracle["in_country"]) <= 1e-12
        assert abs(metrics.out_of_country_area - oracle["out_of_country"]) <= 1e-12
        assert abs(metrics.inconsistent_area - oracle["inconsistent"]) <= 1e-12
        assert abs(metrics.undetermined_area - oracle["undetermined"]) <= 1e-12
        assert abs(metrics.no_coverage_area - oracle["no_coverage"]) <= 1e-12
        assert abs(metrics.unexamined_area - oracle["unexamined"]) <= 1e-12
        assert abs(metrics.indirect_area - oracle["indirect"]) <= 1e-12


def _random_prefix_table(rng):
    """Random table with nesting chains forced in; returns (nets dict)."""
    size = rng.randint(200, 500) if rng.random() < 0.15 else rng.randint(10, 60)
    v6 = rng.random() < 0.2
    bits = 128 if v6 else 32
    make = ipaddress.IPv6Network if v6 else ipaddress.IPv4Network
    nets = {}
    while len(nets) < max(3, size // 4):
        plen = rng.randint(4, 24 if not v6 else 48)
        nets[make((rng.getrandbits(bits), plen), strict=False)] = rng.randint(1, 4_000_000)
    pool = list(nets)
    while len(nets) < size:
        parent = rng.choice(pool)
        if parent.prefixlen >= bits:
            continue
        child_len = rng.randint(parent.prefixlen + 1, min(parent.prefixlen + 12, bits))
        inside = int(parent.network_address) + rng.randrange(parent.num_addresses)
        child = make((inside, child_len), strict=False)
        nets[child] = rng.randint(1, 4_000_000)
        pool.append(child)
    if rng.random() < 0.2:
        nets[make((0, 0))] = rng.randint(1, 4_000_000)
    return nets, v6


def test_criterion_3_longest_prefix_match():
    """Across 100 random prefix tables (up to 500 prefixes, nesting chains
    forced in), 1000 lookups each agree exactly with a linear-scan oracle."""
    rng = random.Random(31337)
    for _ in range(100):
        nets, v6 = _random_prefix_table(rng)
        entries = [(str(net), value) for net, value in nets.items()]
        table = LpmTable()
        for prefix, value in entries:
            table.add(prefix, value)
        parsed = parsed_entries(entries)
        pool = list(nets)
        addr_cls = ipaddress.IPv6Address if v6 else ipaddress.IPv4Address
        bits = 128 if v6 else 32
        for _ in range(1000):
            if rng.random() < 0.7:
                net = rng.choice(pool)
                address = str(addr_cls(int(net.network_address) + rng.randrange(net.num_addresses)))
            else:
                address = str(addr_cls(rng.getrandbits(bits)))
            expected, _ = linear_lpm_parsed(parsed, address)
            assert table.lookup(address) == expected, address


def test_criterion_4_selection_properties():
    """Dominant-network selection: no admitted network below the floor, the
    admitted set is a prefix of the ranked candidate list, input order does
    not matter, and the worked examples come out exact."""
    rng = random.Random(4104)
    for _ in range(300):
        n = rng.randint(1, 40)
        percents = [rng.uniform(0.05, 30.0) for _ in range(n)]
        scale = min(1.0, 99.9 / sum(percents))
        rows = [
            PopulationEstimateRow("XX", 65001 + i, p * scale)
            for i, p in enumerate(percents)
        ]
        floor = rng.uniform(0.001, 0.05)
        cap = rng.uniform(0.3, 1.0)
        eyeball_set = select_dominant_networks(rows, 1_000_000, CAPITAL, cap, floor)

        assert all(net.user_fraction >= floor for net in eyeball_set.networks)

        ranked = sorted(rows, key=lambda r: (-r.fraction_percent, r.asn))
        k = len(eyeball_set.networks)
        assert eyeball_set.asns == tuple(r.asn for r in ranked[:k])

        cumulative = 0.0
        for net in eyeball_set.networks:
            assert cumulative < cap
            cumulative += net.user_fraction

        shuffled = rows[:]
        rng.shuffle(shuffled)
        again = select_dominant_networks(shuffled, 1_000_000, CAPITAL, cap, floor)
        assert again.asns == eyeball_set.asns
        assert again.covered_fraction == eyeball_set.covered_fraction

    three = select_dominant_networks(
        [
            PopulationEstimateRow("XX", 65001, 50.0),
            PopulationEstimateRow("XX", 65002, 30.0),
            PopulationEstimateRow("XX", 65003, 20.0),
        ],
        1_000_000,
        CAPITAL,
    )
    assert three.asns == (65001, 65002, 65003)
    assert three.covered_fraction == 1.0

    two = select_dominant_networks(
        [
            PopulationEstimateRow("XX", 65002, 40.0),
            PopulationEstimateRow("XX", 65001, 60.0),
        ],
        1_000_000,
        CAPITAL,
    )
    assert two.asns == (65001, 65002)
    assert two.covered_fraction == 1.0


def test_criterion_5_topology_verdicts(tmp_path):
    """Across 60 synthetic topologies of up to five networks, the full
    pipeline reproduces the generatively known verdict of every matrix
    cell: 100% agreement, plus exact matched-run and warning counts."""
    mismatches = 0
    cells_checked = 0
    for seed in range(3000, 3060):
        topology = topo.generate(seed)
        workdir = tmp_path / f"seed_{seed}"
        workdir.mkdir()
        paths = topology.write_to(workdir)
        config = RunConfig(
            population=paths["population.csv"],
            country_users=paths["country_users.csv"],
            capitals=paths["capitals.csv"],
            probes=paths["probes.json"],
            traceroutes=paths["traceroutes.ndjson"],
            prefix2as=paths["prefix2as.csv"],
            geo=paths["geo.csv"],
            out_dir=workdir / "out",
            country="XX",
        )
        ws = pipeline.load_workspace(config, with_traceroutes=True)
        [scope] = pipeline.build_scopes(config, ws)
        result = pipeline.analyze_country(scope, ws.traceroutes, ws)

        assert set(result.matrix.cells) == set(topology.expected), seed
        assert result.matched_traceroutes == topology.matched_runs, seed
        assert len(result.warnings) == topology.warning_count, seed
        for pair, (locality, directness) in topology.expected.items():
            cell = result.matrix.cells[pair]
            cells_checked += 1
            if cell.locality.value != locality or cell.directness.value != directness:
                mismatches += 1
    assert cells_checked > 0
    assert mismatches == 0, f"{mismatches} of {cells_checked} cells disagree"


def test_criterion_6_haversine():
    """Great-circle distance: zero for identical points, half the sphere's
    circumference within 0.1 km for antipodes, and within 1% of a
    law-of-cosines oracle for Paris-London."""
    rng = random.Random(6371)
    for _ in range(25):
        point = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
        assert haversine_km(point, point) == 0.0

    half_circumference = math.pi * 6371.0
    assert abs(ANTIPODAL_KM - half_circumference) < 1e-9
    for a, b in [
        (GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0)),
        (GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0)),
        (GeoPoint(30.0, 10.0), GeoPoint(-30.0, -170.0)),
    ]:
        assert abs(haversine_km(a, b) - half_circumference) <= 0.1

    paris = GeoPoint(48.8566, 2.3522)
    london = GeoPoint(51.5074, -0.1278)
    got = haversine_km(paris, london)
    assert abs(law_of_cosines_km(48.8566, 2.3522, 51.5074, -0.1278) - PARIS_LONDON_KM) < 1e-9
    assert abs(got - PARIS_LONDON_KM) <= 0.01 * PARIS_LONDON_KM


def test_criterion_7_golden_pipeline(tmp_path, run_conf, golden_dir):
    """The fixture country runs through coverage, plan, analyze and render
    in under five seconds and reproduces every golden artifact byte for
    byte."""
    out = tmp_path / "out"
    start = time.perf_counter()
    for command in ("coverage", "plan", "analyze", "render"):
        code = main([command, "--config", str(run_conf), "--country", "XX", "--out", str(out)])
        assert code == EXIT_OK, command
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"

    for name in (
        "coverage_XX.json",
        "coverage_world.csv",
        "probes_XX.json",
        "plan_XX.json",
        "matrix_XX.json",
        "metrics_XX.csv",
        "report_XX.txt",
        "matrix_XX.svg",
    ):
        produced = (out / name).read_bytes()
        golden = (golden_dir / name).read_bytes()
        assert produced == golden, f"{name} differs from golden copy"

    sidecar = (out / "run_XX.json").read_text()
    for key in ("generatedAt", "matchedTraceroutes", "warnings"):
        assert key in sidecar


def test_criterion_8_reference_figures():
    """Deployment-scale reference figures are documented, not reproduced.

    The reference deployment of this method reported roughly 90.5% average
    user coverage per country (with outliers as low as 29.3%), and for one
    16-network country an 84.5% covered share splitting into 47.1%
    in-country, 3.1% out-of-country, 3.2% inconsistent, 18.1% without
    probe coverage and 28.6% unexamined, with 9% indirect. Those numbers
    were measured against a live probe fleet, per-AS user-population
    estimates and a commercial geolocation snapshot, none of which can
    ship with this repository, so they are not reproducible here; criteria
    1 through 7 pin the computational behavior on self-contained inputs
    instead. This criterion checks that the quoted split is arithmetically
    consistent with this package's definitions.
    """
    reported = {
        "in_country": 47.1,
        "out_of_country": 3.1,
        "inconsistent": 3.2,
        "no_coverage": 18.1,
        "unexamined": 28.6,
    }
    # five once-rounded percentages must partition 100 within rounding slack
    assert abs(math.fsum(reported.values()) - 100.0) <= 0.3

    # the unexamined share follows from the covered share
    assert round(100.0 * (1.0 - 0.845 * 0.845), 1) == 28.6

    # an 84.5% set really can place exactly 18.1% in the no-coverage band:
    # the frozen split below sums to 0.845 and its uncovered row, column
    # and corner cover 0.181 of the square
    c, u = COVERED_FRACTION_181, UNCOVERED_FRACTION_181
    assert math.fsum([c, u]) == 0.845
    assert abs((2.0 * c * u + u * u) - 0.181) <= 1e-12

    # indirect area can never exceed the measured (non-NoCoverage) area
    measured = reported["in_country"] + reported["out_of_country"] + reported["inconsistent"]
    assert 9.0 <= measured + 0.3
