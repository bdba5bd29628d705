"""SVG rendering: palette, geometry, determinism."""

import re

from eyeball_jedi.matrix import build_matrix
from eyeball_jedi.model import (
    Directness,
    EyeballNetwork,
    EyeballSet,
    GeoPoint,
    Locality,
    PathClassification,
    Probe,
)
from eyeball_jedi.render import FILL, STROKE, render_svg
from eyeball_jedi.selection import ProbeSelection

CAPITAL = GeoPoint(50.0, 8.0)

IN_DIRECT = PathClassification(Locality.IN_COUNTRY, Directness.DIRECT)
IN_INDIRECT = PathClassification(Locality.IN_COUNTRY, Directness.INDIRECT)
OUT_DIRECT = PathClassification(Locality.OUT_OF_COUNTRY, Directness.DIRECT)


def make_set(fractions):
    nets = [
        EyeballNetwork.build(65001 + i, f, 10_000_000)
        for i, f in enumerate(fractions)
    ]
    return EyeballSet.from_networks("XX", 10_000_000, CAPITAL, nets)


def make_selection(eyeball_set, covered_asns=None):
    asns = eyeball_set.asns if covered_asns is None else covered_asns
    per_asn = {}
    for i, asn in enumerate(asns):
        probe = Probe(
            id=100 + i,
            asn_v4=asn,
            location=CAPITAL,
            public_address_v4="20.1.0.1",
        )
        per_asn[asn] = (probe, probe)
    return ProbeSelection(per_asn=per_asn)


def build(fractions, evidence, covered_asns=None):
    es = make_set(fractions)
    return build_matrix(es, make_selection(es, covered_asns), evidence)


def rect_fills(svg):
    """Fill colors of cell rects, skipping the white page background."""
    fills = re.findall(r'<rect [^>]*fill="(#[0-9a-f]{6})"/>', svg)
    return [f for f in fills if f != "#ffffff"]


class TestRenderSvg:
    def test_fill_colors_follow_locality(self):
        matrix = build(
            [0.6, 0.4],
            {
                (65001, 65001): [("1", IN_DIRECT)],
                (65001, 65002): [("2", OUT_DIRECT)],
                (65002, 65001): [("3", IN_DIRECT), ("4", OUT_DIRECT)],
            },
        )
        svg = render_svg(matrix)
        fills = rect_fills(svg)
        # row-major: (1,1) in-country green, (1,2) out orange,
        # (2,1) inconsistent black, (2,2) undetermined black
        assert fills == ["#2ca02c", "#ff7f0e", "#000000", "#000000"]

    def test_no_coverage_cells_are_grey(self):
        matrix = build([0.6, 0.4], {}, covered_asns=[65001])
        svg = render_svg(matrix)
        fills = rect_fills(svg)
        assert fills.count("#d3d3d3") == 3

    def test_indirect_cells_get_red_stroke(self):
        matrix = build([0.6, 0.4], {(65001, 65002): [("1", IN_INDIRECT)]})
        svg = render_svg(matrix)
        assert svg.count('stroke="#d62728"') == 1

    def test_mixed_cells_get_blue_stroke(self):
        matrix = build(
            [0.6, 0.4],
            {(65002, 65001): [("1", IN_INDIRECT), ("2", IN_DIRECT)]},
        )
        svg = render_svg(matrix)
        assert svg.count('stroke="#1f77b4"') == 1

    def test_direct_cells_have_no_stroke_overlay(self):
        matrix = build([1.0], {(65001, 65001): [("1", IN_DIRECT)]})
        svg = render_svg(matrix)
        for color in STROKE.values():
            assert color not in svg

    def test_cell_widths_are_renormalized(self):
        # fractions 0.6/0.2 cover 0.8; renormalized widths 450 and 150
        matrix = build([0.6, 0.2], {})
        svg = render_svg(matrix)
        assert 'width="450.00"' in svg
        assert 'width="150.00"' in svg

    def test_row_and_column_labels_present(self):
        matrix = build([0.6, 0.4], {})
        svg = render_svg(matrix)
        assert svg.count(">AS65001</text>") == 2
        assert svg.count(">AS65002</text>") == 2

    def test_caption_reports_unexamined_share(self):
        matrix = build([0.6, 0.2], {})
        svg = render_svg(matrix)
        assert "unexamined share outside this square: 36.0%" in svg

    def test_empty_set_still_renders_caption(self):
        es = EyeballSet.from_networks("XX", 10_000_000, CAPITAL, [])
        matrix = build_matrix(es, make_selection(es), {})
        svg = render_svg(matrix)
        assert svg.startswith('<?xml version="1.0"')
        assert "unexamined share outside this square: 100.0%" in svg
        assert "<rect" in svg  # background only
        assert rect_fills(svg) == []

    def test_output_is_deterministic(self):
        matrix = build(
            [0.5, 0.3, 0.2],
            {
                (65001, 65002): [("1", IN_INDIRECT)],
                (65003, 65001): [("2", OUT_DIRECT)],
            },
        )
        assert render_svg(matrix) == render_svg(matrix)

    def test_coordinates_use_two_decimals(self):
        matrix = build([0.7, 0.3], {})
        svg = render_svg(matrix)
        values = [v for v in re.findall(r'[xy]="([\d.]+)"', svg) if "." in v]
        assert values, "no formatted coordinates found"
        for value in values:
            _, _, frac = value.partition(".")
            assert len(frac) == 2, value

    def test_every_locality_has_a_fill(self):
        # palette covers the full verdict enum, no KeyError on any matrix
        from eyeball_jedi.model import LocalityVerdict

        assert set(FILL) == set(LocalityVerdict)

    def test_document_shape(self):
        matrix = build([1.0], {})
        svg = render_svg(matrix)
        assert svg.endswith("</svg>\n")
        assert svg.count("<svg ") == 1
        assert 'width="700.00"' in svg
        assert 'height="720.00"' in svg
