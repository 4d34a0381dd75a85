"""Fuzzing the three text parsers: arbitrary token soup either parses or
raises a Nilp2Error, and writing then parsing is the identity."""

import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nilp2 import fileformats
from nilp2.constructions import build_noncapable_extension, extraspecial_p5, heisenberg
from nilp2.errors import Nilp2Error, ResidueTooLarge
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


# -- the group parser's one-pass reading against its per-line code -----------


def _outcome(text, per_line=False):
    """The parsed presentation, or the type and message of the refusal;
    with ``per_line`` the one-pass reading is switched off."""
    try:
        if per_line:
            with mock.patch.object(fileformats, "_pairing_rows", return_value=None):
                return parse_group_text(text)
        return parse_group_text(text)
    except Nilp2Error as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(text=token_soup(GROUP_TEXTS))
def test_group_parser_reads_token_soup_as_its_per_line_code_does(text):
    assert _outcome(text) == _outcome(text, per_line=True)


def _written_groups():
    rng = random.Random(25)
    groups = [H3, H3_C3, extraspecial_p5(5)]
    groups += [random_presentation(rng, p, 6) for p in (3, 5, 7) for _ in range(3)]
    groups.append(build_noncapable_extension(heisenberg(3)).output_group)
    return groups


WRITTEN_GROUPS = _written_groups()


def test_written_groups_are_read_in_one_pass():
    read = []
    original = fileformats._pairing_rows

    def spy(*args):
        read.append(original(*args))
        return read[-1]

    groups = WRITTEN_GROUPS
    with mock.patch.object(fileformats, "_pairing_rows", spy):
        for g in groups:
            assert parse_group_text(format_group(g)) == g
    # With m = 0 there is nothing to read, and the per-line code takes it.
    assert [pairs is not None for pairs in read] == [g.m > 0 for g in groups]
    assert sum(g.m > 0 for g in groups) >= 8


def _mutations(text):
    """One-fault edits of a written group with at least two commutator
    lines, each as (name, text)."""
    lines = text.splitlines()
    first = next(k for k, line in enumerate(lines) if line.startswith("c "))
    c1 = lines[first].split()
    p = int(lines[1].split()[1])
    n = int(lines[2].split()[1])

    def edit(k, tokens):
        out = list(lines)
        out[k] = " ".join(tokens)
        return "\n".join(out) + "\n"

    yield "missing entry", edit(first, c1[:-1])
    shifted = list(lines)
    shifted[first], shifted[first + 1] = " ".join(c1[:-1]), c1[-1] + " " + lines[first + 1]
    yield "entry moved to the next line", "\n".join(shifted) + "\n"
    yield "extra entry", edit(first, c1 + ["0"])
    yield "entry equal to p", edit(first, c1[:3] + [str(p)] + c1[4:])
    yield "negative entry", edit(first, c1[:3] + ["-1"] + c1[4:])
    yield "huge entry", edit(first, c1[:3] + ["10000000000000000000000"] + c1[4:])
    yield "duplicate line", "\n".join(lines + [lines[first]]) + "\n"
    yield "i equal to j", edit(first, ["c", c1[1], c1[1]] + c1[3:])
    yield "i above j", edit(first, ["c", c1[2], c1[1]] + c1[3:])
    yield "j above n", edit(first, ["c", str(n + 1), "1"] + c1[3:])
    yield "index 0", edit(first, ["c", c1[1], "0"] + c1[3:])
    yield "huge index", edit(first, ["c", "99999999999999999999999", "1"] + c1[3:])
    yield "non-integer entry", edit(first, c1[:3] + ["1.0"] + c1[4:])
    yield "hex entry", edit(first, c1[:3] + ["0x1"] + c1[4:])
    yield "non-integer index", edit(first, ["c", "x"] + c1[2:])
    yield "no entries", edit(first, c1[:3])
    yield "bare c", edit(first, ["c"])
    yield "other keyword", edit(first, ["d"] + c1[1:])
    yield "glued keyword", edit(first, ["c" + c1[1]] + c1[2:])
    yield "second c inside", edit(first, c1[:3] + ["c"] + c1[4:])
    yield "plus sign", edit(first, c1[:3] + ["+" + c1[3]] + c1[4:])
    yield "leading zeros", edit(first, ["c", "00" + c1[1], c1[2]] + ["007" if x == "7" else "0" + x for x in c1[3:]])
    yield "trailing comment", edit(first, c1 + ["#", "a", "comment"])
    yield "comment line", "\n".join(lines[:first] + ["# c 1 2 3"] + lines[first:]) + "\n"
    yield "blank lines", "\n".join(lines[:first] + ["", "   "] + lines[first:]) + "\n"
    yield "p not prime", text.replace(f"p {p}\n", "p 9\n", 1)
    yield "p not prime and a duplicate", text.replace(f"p {p}\n", "p 9\n", 1) + lines[first] + "\n"
    yield "m past the cell budget", re.sub(r"\nm \d+\n", "\nm 100000000\n", text, count=1)


@pytest.mark.parametrize("g", [g for g in WRITTEN_GROUPS if len(g.c_items) >= 2], ids=lambda g: f"n{g.n}m{g.m}p{g.p}")
def test_group_parser_refuses_one_fault_edits_as_its_per_line_code_does(g):
    text = format_group(g)
    seen = set()
    for name, mutated in _mutations(text):
        got = _outcome(mutated)
        assert got == _outcome(mutated, per_line=True), name
        seen.add(type(got).__name__ if not isinstance(got, tuple) else got[0].__name__)
    assert {"GroupPresentation", "ParseError", "EntryOutOfRange", "BadIndex"} <= seen


def test_group_parser_checks_the_cell_budget_before_it_reads_the_lines():
    # C(200000, 2) pairing rows would take 160 GB; the header's checks
    # refuse the tables first, and the one-pass reading never starts.
    text = "nilp2 v1\np 3\nn 200000\nm 1\nc 2 1 1\n"
    with mock.patch.object(fileformats, "_pairing_rows", side_effect=AssertionError("read")):
        with pytest.raises(ResidueTooLarge, match="pairing table of 200000 x 200000 x 1"):
            parse_group_text(text)


@pytest.mark.parametrize("line, error", [
    ("gen 1 -> 5 x 0 | 0", "EntryOutOfRange: line 1: entry 5 outside [0, 3)"),
    ("gen 1 -> 1 x 0 | 0", "ParseError: line 1: expected an integer, got 'x'"),
    ("gen 1 -> 1 0 -1 | 0", "EntryOutOfRange: line 1: entry -1 outside [0, 3)"),
    ("gen 1 -> 1 0 | 0", "ParseError: line 1: expected 3 entries, got 2"),
    ("gen 1 -> 1 0 +2 | 007", "EntryOutOfRange: line 1: entry 7 outside [0, 3)"),
    ("gen 1 -> 1 0 +2 | 002", None),
])
def test_map_entries_name_their_first_fault(line, error):
    # A line's entries are read at once; a fault is named token by token.
    text = line + "\ngen 2 -> 0 1 0 | 0\n"
    try:
        gmap = parse_generator_map_text(text, H3, H3_C3)
    except Nilp2Error as exc:
        assert f"{type(exc).__name__}: {exc}" == error
    else:
        assert error is None
        assert gmap.images[0] == H3_C3.element((1, 0, 2), (2,))
