"""ASCII and SVG rendering, and text-form round trips."""

from tlcat.braid import commutor
from tlcat.diagram import Diagram, e_diagram
from tlcat.morphism import dilute_eta11, parse_morphism
from tlcat.render import parse_renderable, render_ascii, render_svg


def test_ascii_diagram_labels_connected_nodes():
    out = render_ascii(Diagram.from_text("2x2:[(1,4),(2,3)]"))
    lines = out.splitlines()
    assert lines[0] == "2x2:[(1,4),(2,3)]"
    # nodes 1 and 4 share a letter, 2 and 3 share another
    row1, row2 = lines[1], lines[2]
    assert row1.split()[0] == "1" and row1.split()[-1] == "4"
    assert row1.split()[1] == row1.split()[2]
    assert row2.split()[1] == row2.split()[2]
    assert row1.split()[1] != row2.split()[1]


def test_ascii_vacancy_dot():
    out = render_ascii(Diagram.from_text("2x2d:[(1,3)]"))
    assert "." in out


def test_ascii_morphism_two_terms():
    # the ordinary elementary braiding is a two-term combination
    out = render_ascii(commutor(1, 1))
    assert out.count("] *") == 2
    assert "[s^2]" in out and "[s^-2]" in out


def test_svg_well_formed():
    import xml.etree.ElementTree as ET

    for obj in (e_diagram(1, 3), dilute_eta11(), commutor(1, 1)):
        svg = render_svg(obj)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        kinds = {child.tag.split("}")[-1] for child in root.iter()}
        assert "circle" in kinds and "path" in kinds or "text" in kinds


def test_svg_term_count():
    svg = render_svg(dilute_eta11())
    # five terms, each with a coefficient label
    assert svg.count("[") == 5


def test_parse_renderable_round_trips():
    d = e_diagram(2, 4)
    assert parse_renderable(d.to_text()) == d
    f = commutor(2, 1)
    assert parse_renderable(f.to_text()) == f
    eta = dilute_eta11()
    assert parse_renderable(eta.to_text()) == eta


def test_morphism_text_round_trip():
    for f in (commutor(2, 2), dilute_eta11(), commutor(1, 1) - commutor(1, 1)):
        assert parse_morphism(f.to_text()) == f
