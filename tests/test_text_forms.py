"""The readers of tlcat's printed forms (diagrams, scalars and morphisms)
under random small edits: a reader either raises ValueError or returns a
value whose printed form reads back to that same value."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tlcat.braid import commutor
from tlcat.morphism import parse_morphism, t
from tlcat.render import parse_renderable
from tlcat.scalar import Scalar, parse_scalar

s, u = Scalar.s_power(1), Scalar.var_power("u", 1)
SCALARS = [s ** 4 + s ** -4, 2 * s ** -4 - s ** 4 + Scalar(7) / 3, s ** 2 / (1 + s ** 8),
           (3 * u - 1) / (2 * s - 5), u * s ** -3 / 2 - 1]

# (reader, printer, printed values); the diagrams are ordinary and dilute
FORMS = [
    (parse_renderable, lambda d: d.to_text(),
     ["2x2:[(1,4),(2,3)]", "3x1:[(1,2),(3,4)]", "0x0:[]",
      "2x2d:[(1,3)]", "2x2d:[]", "1x3d:[(2,4)]"]),
    (parse_scalar, str, [str(x) for x in SCALARS]),
    (parse_morphism, lambda f: f.to_text(),
     [commutor(1, 1).to_text(), t(1, 2, dilute=True).to_text(), "2<-2 : 0",
      "1<-1d : [(s^2) / (1 + s^8)] * 1x1d:[(1,2)] + [3/2 * u^1] * 1x1d:[]"]),
]
ALPHABET = "0123456789 suvwxd+-*/^()[],:<"


@st.composite
def edited(draw):
    reader, printer, texts = draw(st.sampled_from(FORMS))
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        ch = draw(st.sampled_from(ALPHABET))
        if op == "insert":
            text = text[:i] + ch + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + ch + text[i + 1:]
    return reader, printer, text


@settings(max_examples=600, deadline=None)
@given(edited())
def test_edited_text_raises_value_error_or_round_trips(case):
    reader, printer, text = case
    try:
        value = reader(text)
    except ValueError:
        return
    assert reader(printer(value)) == value
