"""Line-based text formats for groups, identifications, and generator maps.

All three formats are whitespace-separated ASCII integers [+-]?[0-9]+ so
certificates stay human-diffable; `#` starts a comment anywhere.  Writers
emit canonical form (sorted nonzero commutators, no trailing whitespace),
so writing and re-parsing is the identity on the underlying objects.  The
module holds only the text codecs, ``parse_*_text`` and ``format_*``; the
CLI reads and writes the files.

Group file:            Identification file:        Map file:
    nilp2 v1               id <vA..> -> <vB..>         gen <k> -> <v..> | <w..>
    p 3
    n 2
    m 1
    c 2 1 1
"""

from __future__ import annotations

from .errors import BadIndex, BadMagic, EntryOutOfRange, ParseError
from .group_core import GeneratorMap, GroupPresentation, hom_from_images
from .products import Identification

__all__ = [
    "GROUP_MAGIC",
    "format_generator_map",
    "format_group",
    "format_identification",
    "parse_generator_map_text",
    "parse_group_text",
    "parse_identification_text",
]

GROUP_MAGIC = "nilp2 v1"


def _content_lines(text: str):
    """(line_no, stripped content) for nonblank, noncomment lines.  Tokens
    are ASCII without "_", so that int() takes exactly [+-]?[0-9]+."""
    out = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped.isascii() or "_" in stripped:
            for token in stripped.split():
                if not token.isascii() or "_" in token:
                    raise ParseError(line_no, f"expected an ASCII integer or keyword, got {token!r}")
        if stripped:
            out.append((line_no, stripped))
    return out


def _int_token(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected an integer, got {token!r}") from None


def _entry_tokens(tokens, count, p, line_no):
    if len(tokens) != count:
        raise ParseError(line_no, f"expected {count} entries, got {len(tokens)}")
    values = []
    for tok in tokens:
        e = _int_token(tok, line_no)
        if not (0 <= e < p):
            raise EntryOutOfRange(f"line {line_no}: entry {e} outside [0, {p})")
        values.append(e)
    return tuple(values)


# -- group files -------------------------------------------------------------


def format_group(group: GroupPresentation) -> str:
    lines = [GROUP_MAGIC, f"p {group.p}", f"n {group.n}", f"m {group.m}"]
    for (j, i), vec in group.c_items:
        lines.append("c " + " ".join(str(x) for x in (j, i) + vec))
    return "\n".join(lines) + "\n"


def parse_group_text(text: str) -> GroupPresentation:
    lines = _content_lines(text)
    if not lines or lines[0][1] != GROUP_MAGIC:
        raise BadMagic(f"expected first line {GROUP_MAGIC!r}")
    header = {}
    idx = 1
    for key in ("p", "n", "m"):
        if idx >= len(lines):
            raise ParseError(lines[-1][0], f"missing header line '{key} <int>'")
        line_no, content = lines[idx]
        tokens = content.split()
        if len(tokens) != 2 or tokens[0] != key:
            raise ParseError(line_no, f"expected '{key} <int>', got {content!r}")
        header[key] = _int_token(tokens[1], line_no)
        idx += 1
    p, n, m = header["p"], header["n"], header["m"]
    c = {}
    for line_no, content in lines[idx:]:
        tokens = content.split()
        if tokens[0] != "c":
            raise ParseError(line_no, f"expected a 'c <j> <i> <entries>' line, got {content!r}")
        if len(tokens) < 3:
            raise ParseError(line_no, "commutator line needs at least 'c <j> <i>'")
        j = _int_token(tokens[1], line_no)
        i = _int_token(tokens[2], line_no)
        if not (1 <= i < j <= n):
            raise BadIndex(
                f"line {line_no}: commutator index ({j}, {i}) must satisfy 1 <= i < j <= {n}"
            )
        if (j, i) in c:
            raise ParseError(line_no, f"duplicate commutator line for ({j}, {i})")
        c[(j, i)] = _entry_tokens(tokens[3:], m, p, line_no)
    return GroupPresentation(p, n, m, c)


# -- identification files ----------------------------------------------------


def format_identification(ident: Identification) -> str:
    lines = []
    for h, k in zip(ident.source_basis, ident.target_basis):
        left = " ".join(str(x) for x in h)
        right = " ".join(str(x) for x in k)
        lines.append(f"id {left} -> {right}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_identification_text(
    text: str, source: GroupPresentation, target: GroupPresentation
) -> Identification:
    source_rows = []
    target_rows = []
    for line_no, content in _content_lines(text):
        tokens = content.split()
        if tokens[0] != "id":
            raise ParseError(line_no, f"expected an 'id' line, got {content!r}")
        if tokens.count("->") != 1:
            raise ParseError(line_no, "identification line needs exactly one '->'")
        arrow = tokens.index("->")
        source_rows.append(_entry_tokens(tokens[1:arrow], source.m, source.p, line_no))
        target_rows.append(_entry_tokens(tokens[arrow + 1 :], target.m, target.p, line_no))
    return Identification(source, target, tuple(source_rows), tuple(target_rows))


# -- generator map files -----------------------------------------------------


def format_generator_map(gmap: GeneratorMap) -> str:
    lines = []
    for k, img in enumerate(gmap.images, 1):
        line = f"gen {k} ->"
        left = " ".join(str(x) for x in img.v)
        if left:
            line += " " + left
        line += " |"
        right = " ".join(str(x) for x in img.w)
        if right:
            line += " " + right
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_generator_map_text(
    text: str, domain: GroupPresentation, codomain: GroupPresentation
) -> GeneratorMap:
    images = {}
    for line_no, content in _content_lines(text):
        tokens = content.split()
        if len(tokens) < 3 or tokens[0] != "gen" or tokens[2] != "->":
            raise ParseError(line_no, f"expected 'gen <k> -> ... | ...', got {content!r}")
        k = _int_token(tokens[1], line_no)
        if not (1 <= k <= domain.n):
            raise BadIndex(f"line {line_no}: generator index {k} out of range 1..{domain.n}")
        if k in images:
            raise ParseError(line_no, f"duplicate image for generator {k}")
        if tokens.count("|") != 1:
            raise ParseError(line_no, "map line needs exactly one '|'")
        bar = tokens.index("|")
        v = _entry_tokens(tokens[3:bar], codomain.n, codomain.p, line_no)
        w = _entry_tokens(tokens[bar + 1 :], codomain.m, codomain.p, line_no)
        images[k] = codomain.element(v, w)
    missing = [k for k in range(1, domain.n + 1) if k not in images]
    if missing:
        raise ParseError(None, f"missing images for generators {missing}")
    return hom_from_images(domain, codomain, [images[k] for k in range(1, domain.n + 1)])
