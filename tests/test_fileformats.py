"""Fuzzing the three text parsers: arbitrary token soup either parses or
raises a Nilp2Error, and writing then parsing is the identity."""

import random
import re

from hypothesis import given, settings, strategies as st

from nilp2.constructions import extraspecial_p5, heisenberg
from nilp2.errors import Nilp2Error
from nilp2.fileformats import (
    format_generator_map,
    format_group,
    format_identification,
    parse_generator_map_text,
    parse_group_text,
    parse_identification_text,
)
from nilp2.group_core import elementary_abelian, hom_from_images
from nilp2.products import direct_product
from nilp2.selfcheck import random_identification, random_presentation

TOKENS = (
    ["nilp2", "v1", "nilp2 v1", "p", "n", "m", "c", "id", "gen", "->", "|", "#", "x", "1.5", "+1", "-", "0x3"]
    + [str(k) for k in range(-3, 13)]
    + ["65537", "2147483647", "10000000000000000000", "1_1", "٢", "١", "３", "²", "+-1", "+"]
)
SEPARATORS = [" ", " ", " ", "\n", "\n", "\t", "\r\n", ""]


@st.composite
def token_soup(draw, valid_texts):
    """Random tokens, or a valid text with a few tokens replaced, deleted
    or inserted."""
    if draw(st.booleans()):
        parts = []
        for token in draw(st.lists(st.sampled_from(TOKENS), max_size=40)):
            parts.append(token)
            parts.append(draw(st.sampled_from(SEPARATORS)))
        return "".join(parts)
    tokens = re.findall(r"\S+|\n", draw(st.sampled_from(valid_texts)))
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["replace", "delete", "insert"]))
        if edit != "insert" and k < len(tokens):
            del tokens[k]
        if edit != "delete":
            tokens.insert(k, draw(st.sampled_from(TOKENS + ["\n"])))
    return " ".join(tokens)


H3 = heisenberg(3)
H3_C3 = direct_product(H3, elementary_abelian(3, 1)).group
H3_C3_MAP = hom_from_images(H3, H3_C3, [H3_C3.element((1, 0, 1), (2,)), H3_C3.element((0, 1, 0), (0,))])
GROUP_TEXTS = [format_group(H3), format_group(H3_C3), format_group(extraspecial_p5(5))]
IDENTIFICATION_TEXTS = ["id 1 -> 2\n", "id 2 -> 1 # glue\n"]
MAP_TEXTS = [format_generator_map(H3_C3_MAP), format_generator_map(hom_from_images(H3_C3, H3_C3, H3_C3.generators()))]


def _parses_or_refuses(parse, text, *args):
    try:
        parse(text, *args)
    except Nilp2Error:
        pass


@settings(max_examples=400, deadline=None)
@given(text=token_soup(GROUP_TEXTS))
def test_group_parser_raises_only_its_own_errors(text):
    _parses_or_refuses(parse_group_text, text)


@settings(max_examples=300, deadline=None)
@given(text=token_soup(IDENTIFICATION_TEXTS), source=st.sampled_from([H3, H3_C3]))
def test_identification_parser_raises_only_its_own_errors(text, source):
    _parses_or_refuses(parse_identification_text, text, source, H3)


@settings(max_examples=300, deadline=None)
@given(text=token_soup(MAP_TEXTS), domain=st.sampled_from([H3, H3_C3]))
def test_map_parser_raises_only_its_own_errors(text, domain):
    _parses_or_refuses(parse_generator_map_text, text, domain, H3_C3)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([3, 5, 7]), max_n=st.integers(1, 5))
def test_format_then_parse_is_the_identity(seed, p, max_n):
    rng = random.Random(seed)
    g = random_presentation(rng, p, max_n)
    assert parse_group_text(format_group(g)) == g
    a, b = random_presentation(rng, p, max_n), random_presentation(rng, p, max_n)
    ident = random_identification(rng, a, b)
    assert parse_identification_text(format_identification(ident), a, b) == ident
    dom, cod = random_presentation(rng, p, max_n), random_presentation(rng, p, max_n)
    gmap = hom_from_images(dom, cod, [cod.random_element(rng) for _ in range(dom.n)])
    assert parse_generator_map_text(format_generator_map(gmap), dom, cod) == gmap
