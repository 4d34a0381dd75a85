import os
import random
import re
import subprocess
import sys

import pytest

from nilp2 import fplinalg
from nilp2.cli import build_parser, main
from nilp2.constructions import extraspecial_p5, heisenberg
from nilp2.errors import BadIndex, BadMagic, EntryOutOfRange, NotOddPrime, ParseError
from nilp2.fileformats import (
    format_generator_map,
    format_group,
    format_identification,
    parse_generator_map_text,
    parse_group_text,
    parse_identification_text,
)
from nilp2.group_core import GroupPresentation, cyclic, elementary_abelian, hom_from_images
from nilp2.products import Identification, direct_product, nilpotent2_product
from nilp2.selfcheck import random_identification, random_presentation, rebase

HEISENBERG_FILE = "nilp2 v1\np 3\nn 2\nm 1\nc 2 1 1\n"


# -- parsing ---------------------------------------------------------------------


def test_parse_heisenberg():
    g = parse_group_text(HEISENBERG_FILE)
    assert g == heisenberg(3)


def test_format_is_canonical():
    assert format_group(heisenberg(3)) == HEISENBERG_FILE


def test_parse_accepts_comments_and_blanks():
    text = "# a comment\nnilp2 v1\n\np 3\nn 2  # inline\nm 1\nc 2 1 1\n"
    assert parse_group_text(text) == heisenberg(3)


def test_parse_bad_magic():
    with pytest.raises(BadMagic):
        parse_group_text("group v0\np 3\nn 1\nm 0\n")


def test_parse_bad_index():
    with pytest.raises(BadIndex) as exc:
        parse_group_text("nilp2 v1\np 3\nn 2\nm 1\nc 1 2 1\n")
    assert "line 5" in str(exc.value)


def test_parse_duplicate_pair():
    with pytest.raises(ParseError):
        parse_group_text("nilp2 v1\np 3\nn 2\nm 1\nc 2 1 1\nc 2 1 2\n")


def test_parse_entry_out_of_range():
    with pytest.raises(EntryOutOfRange):
        parse_group_text("nilp2 v1\np 3\nn 2\nm 1\nc 2 1 4\n")


def test_parse_even_prime():
    with pytest.raises(NotOddPrime):
        parse_group_text("nilp2 v1\np 2\nn 1\nm 0\n")


NON_ASCII_INTEGER_TOKENS = ["1_1", "٢", "١", "３", "²", "+-1", "+", "-"]


@pytest.mark.parametrize("token", NON_ASCII_INTEGER_TOKENS)
def test_parse_accepts_only_ascii_integers(token):
    h3_c3 = direct_product(heisenberg(3), cyclic(3)).group
    texts = [
        (parse_group_text, f"nilp2 v1\np {token}\nn 2\nm 1\nc 2 1 1\n"),
        (parse_group_text, f"nilp2 v1\np 3\nn {token}\nm 1\nc 2 1 1\n"),
        (parse_group_text, f"nilp2 v1\np 3\nn 2\nm 1\nc 2 1 {token}\n"),
        (lambda t: parse_identification_text(t, heisenberg(3), heisenberg(3)), f"id {token} -> 1\n"),
        (lambda t: parse_generator_map_text(t, heisenberg(3), h3_c3), f"gen {token} -> 1 0 0 | 0\ngen 2 -> 0 1 0 | 0\n"),
        (lambda t: parse_generator_map_text(t, heisenberg(3), h3_c3), f"gen 1 -> 1 0 0 | 0\ngen 2 -> 0 {token} 0 | 0\n"),
    ]
    for parse, text in texts:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert f"got {token!r}" in str(exc.value)


def test_parse_signed_ascii_integers():
    assert parse_group_text("nilp2 v1\np +3\nn 02\nm 1\nc +2 1 1\n") == heisenberg(3)


def test_non_ascii_integers_are_an_input_error(tmp_path, capsys):
    # int() reads this file as p = 11, n = 2 and c(2, 1) = 1.
    path = write(tmp_path, "g.grp", "nilp2 v1\np 1_1\nn ٢\nm 1\nc 2 1 ١\n")
    assert main(["capable", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected an ASCII integer or keyword, got '1_1'" in _one_error_line(captured.err)


def test_parse_header_order_enforced():
    with pytest.raises(ParseError):
        parse_group_text("nilp2 v1\nn 2\np 3\nm 1\nc 2 1 1\n")


def test_identification_roundtrip_single_line():
    h = heisenberg(3)
    ident = Identification(h, h, ((1,),), ((1,),))
    text = format_identification(ident)
    assert text == "id 1 -> 1\n"
    assert parse_identification_text(text, h, h) == ident


def test_map_format_example():
    a, b = cyclic(3), cyclic(3)
    res = nilpotent2_product(a, b)
    text = format_generator_map(res.embed_left)
    assert text == "gen 1 -> 1 0 | 0\n"
    assert parse_generator_map_text(text, a, res.group) == res.embed_left


def test_random_roundtrips():
    rng = random.Random(99)
    for _ in range(30):
        p = rng.choice([3, 5])
        g = random_presentation(rng, p)
        assert parse_group_text(format_group(g)) == g
        a, b = random_presentation(rng, p), random_presentation(rng, p)
        ident = random_identification(rng, a, b)
        assert parse_identification_text(format_identification(ident), a, b) == ident
        dom, cod = random_presentation(rng, p), random_presentation(rng, p)
        images = [cod.random_element(rng) for _ in range(dom.n)]
        gmap = hom_from_images(dom, cod, images)
        assert parse_generator_map_text(format_generator_map(gmap), dom, cod) == gmap


# -- commands ---------------------------------------------------------------------


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_capable_command(tmp_path, capsys):
    path = write(tmp_path, "h.grp", HEISENBERG_FILE)
    assert main(["capable", path]) == 0
    out = capsys.readouterr().out
    assert "verdict = capable" in out
    assert "method = epicentre_trivial" in out
    assert "epicentre_dim = 0" in out


def test_capable_determinism(tmp_path, capsys):
    path = write(tmp_path, "e.grp", format_group(extraspecial_p5(3)))
    assert main(["capable", path]) == 0
    first = capsys.readouterr().out
    assert main(["capable", path]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "verdict = not_capable" in first


def test_usage_errors(tmp_path, capsys):
    assert main(["capable"]) == 1
    first = capsys.readouterr().err
    assert "error:" in first
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    # The parser is built once per process; successful commands leave no
    # state in it that changes a later usage error.
    h = write(tmp_path, "h.grp", HEISENBERG_FILE)
    out_path = str(tmp_path / "out.grp")
    assert main(["product", "--kind", "direct", h, h, "-o", out_path]) == 0
    assert main(["extend", "--mode", "capable", h, "-o", out_path, "--report", str(tmp_path / "r.txt")]) == 0
    capsys.readouterr()
    assert main(["capable"]) == 1
    assert capsys.readouterr().err == first
    assert build_parser.cache_info().currsize == 1


@pytest.mark.parametrize("columns", ["60", "80", "90", "120"])
def test_help_names_every_command_unbroken(monkeypatch, capsys, columns):
    # argparse rewraps the description to the terminal width.  The module
    # docstring, once the description, printed reST backquotes and at some
    # widths split rp-check across two lines.
    monkeypatch.setenv("COLUMNS", columns)
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    commands = ["inspect", "capable", "epicentre", "rp-check", "product", "extend", "verify-embed", "decompose", "selftest"]
    assert re.findall(r"^    (\S+)", out, re.M) == commands
    assert "{" + ",".join(commands) + "}" in out
    assert "``" not in out
    description = out.split("\n\n")[1]
    assert not re.search(r"\w-$", description, re.M)  # no word split at a hyphen


def test_validation_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.grp", "nilp2 v1\np 3\nn 2\nm 2\nc 2 1 1 0\n")
    assert main(["capable", path]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_inspect_command(tmp_path, capsys):
    path = write(tmp_path, "h.grp", HEISENBERG_FILE)
    assert main(["inspect", path]) == 0
    out = capsys.readouterr().out
    assert "order_exp = 3" in out
    assert "center_equals_derived = true" in out


def test_epicentre_command(tmp_path, capsys):
    path = write(tmp_path, "e.grp", format_group(extraspecial_p5(3)))
    assert main(["epicentre", path]) == 0
    out = capsys.readouterr().out
    assert "epicentre_dim = 1" in out
    assert "epicentre_basis = 1" in out


def test_epicentre_precondition_exit(tmp_path, capsys):
    path = write(tmp_path, "a.grp", format_group(elementary_abelian(3, 2)))
    assert main(["epicentre", path]) == 2


# E5 x C3, order 3^6, with the central generator in the middle.
E5_TIMES_C3_FILE = "nilp2 v1\np 3\nn 5\nm 1\nc 2 1 1\nc 5 4 1\n"


def test_epicentre_of_group_with_larger_center(tmp_path, capsys):
    path = write(tmp_path, "g.grp", E5_TIMES_C3_FILE)
    assert main(["epicentre", path]) == 0
    assert capsys.readouterr().out == "epicentre_dim = 1\nepicentre_basis = 1\nn = 5\nm = 1\norder_exp = 6\n"


def test_capable_ignores_the_order_cap(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "g.grp", E5_TIMES_C3_FILE)
    monkeypatch.setenv("NILP2_MAX_ORDER", "1")
    assert main(["capable", path]) == 0
    out = capsys.readouterr().out
    assert "verdict = not_capable\nmethod = epicentre_nontrivial\nepicentre_dim = 1\n" in out


def test_rp_check_command(tmp_path, capsys):
    path = write(tmp_path, "h.grp", HEISENBERG_FILE)
    assert main(["rp-check", path]) == 0
    out = capsys.readouterr().out
    assert "rp_status = non_member" in out


def test_product_command_and_verify_embed(tmp_path, capsys):
    a = write(tmp_path, "a.grp", format_group(cyclic(3)))
    b = write(tmp_path, "b.grp", format_group(cyclic(3)))
    out_path = str(tmp_path / "prod.grp")
    map_path = str(tmp_path / "ia.map")
    assert main(["product", "--kind", "nilpotent2", a, b, "-o", out_path, "--map-a", map_path]) == 0
    produced = parse_group_text(open(out_path, encoding="utf-8").read())
    assert produced == heisenberg(3)
    capsys.readouterr()
    assert main(["verify-embed", a, out_path, "--map", map_path]) == 0
    assert "embedding_ok = true" in capsys.readouterr().out

    # a non-injective map must fail verification with exit 3
    bad_map = write(tmp_path, "bad.map", "gen 1 -> 0 0 | 0\n")
    assert main(["verify-embed", a, out_path, "--map", bad_map]) == 3
    assert "embedding_ok = false" in capsys.readouterr().out


def test_verify_embed_has_no_order_cap(tmp_path, capsys, monkeypatch):
    # C_3^6 -> H_3 x C_3^5, x1 to the central z: injective, although the
    # abelianized map is not, and the domain has order 729.
    dom = elementary_abelian(3, 6)
    cod = direct_product(heisenberg(3), elementary_abelian(3, 5)).group
    images = [cod.element((0,) * 7, (1,))] + [cod.generator(i) for i in range(3, 8)]
    sub = write(tmp_path, "sub.grp", format_group(dom))
    big = write(tmp_path, "big.grp", format_group(cod))
    gmap = write(tmp_path, "f.map", format_generator_map(hom_from_images(dom, cod, images)))
    monkeypatch.setenv("NILP2_MAX_ORDER", "1")
    assert main(["verify-embed", sub, big, "--map", gmap]) == 0
    assert capsys.readouterr().out == "embedding_ok = true\n"


def test_product_identify_usage(tmp_path):
    a = write(tmp_path, "a.grp", format_group(cyclic(3)))
    b = write(tmp_path, "b.grp", format_group(cyclic(3)))
    ident = write(tmp_path, "i.id", "")
    out_path = str(tmp_path / "prod.grp")
    assert main(["product", "--kind", "direct", a, b, "--identify", ident, "-o", out_path]) == 1


def _one_error_line(err):
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("kind", ["direct", "nilpotent2"])
@pytest.mark.parametrize("ident_text", ["", "not an identification\n"], ids=["valid", "malformed"])
def test_identify_with_a_plain_product_is_a_usage_error(tmp_path, capsys, kind, ident_text):
    # The kind is checked before any file is read, so a malformed
    # identification file gives the same usage error.
    a = write(tmp_path, "a.grp", format_group(cyclic(3)))
    ident = write(tmp_path, "i.id", ident_text)
    out_path = tmp_path / "prod.grp"
    assert main(["product", "--kind", kind, a, a, "--identify", ident, "-o", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert _one_error_line(captured.err) == f"error: --identify does not apply to --kind {kind}"
    assert captured.out == ""
    assert not out_path.exists()


def test_missing_input_file_is_an_input_error(tmp_path, capsys):
    assert main(["capable", str(tmp_path / "absent.grp")]) == 2
    assert "absent.grp" in _one_error_line(capsys.readouterr().err)


def test_map_missing_an_image_names_the_generators_and_no_line(tmp_path, capsys):
    # H_3 on two generators, a map that gives only the first image.
    h = write(tmp_path, "h.grp", HEISENBERG_FILE)
    gmap = write(tmp_path, "f.map", "# only x1\ngen 1 -> 1 0 | 0\n")
    assert main(["verify-embed", h, h, "--map", gmap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err) == "error: missing images for generators [2]"


def test_a_modulus_past_the_int64_bound_is_refused_before_the_primality_test(tmp_path, capsys):
    # 2^127 - 1 is prime, and trial division up to its square root would
    # not end; (p - 1)^2 + p >= 2^63 refuses it first.  Run apart, so that a
    # regression fails on the timeout instead of hanging the suite.
    path = write(tmp_path, "m127.grp", f"nilp2 v1\np {2**127 - 1}\nn 1\nm 0\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fplinalg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "nilp2.cli", "capable", path], capture_output=True, text=True,
                          env=env, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "not below 2^63" in _one_error_line(proc.stderr)
    # Every command refuses a prime past the bound alike, and accepts 2^31 - 1.
    for p, code in ((4294967311, 2), (2**31 - 1, 0)):
        path = write(tmp_path, f"c{p}.grp", f"nilp2 v1\np {p}\nn 1\nm 0\n")
        for command in ("inspect", "capable", "decompose"):
            assert main([command, path]) == code
            captured = capsys.readouterr()
            if code:
                assert captured.out == "" and "not below 2^63" in _one_error_line(captured.err)


def test_residue_budget_is_an_engine_error(tmp_path, capsys, monkeypatch):
    # Extraspecial 3^7: J is too small to peel, and the 12 of its 20 rows
    # that have entries, over all 6 columns, form the residue.
    path = write(tmp_path, "e3_7.grp", "nilp2 v1\np 3\nn 6\nm 1\nc 2 1 1\nc 4 3 1\nc 6 5 1\n")
    monkeypatch.setattr(fplinalg, "RESIDUE_CELL_LIMIT", 71)
    assert main(["capable", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds RESIDUE_CELL_LIMIT = 71" in _one_error_line(captured.err)
    monkeypatch.setattr(fplinalg, "RESIDUE_CELL_LIMIT", 72)
    assert main(["capable", path]) == 0


@pytest.mark.parametrize("command", ["inspect", "capable"])
def test_tables_above_the_cell_budget_are_an_engine_error(tmp_path, capsys, command):
    # Its (n, n, m) tables would take 298 GiB.
    path = write(tmp_path, "big.grp", "nilp2 v1\np 3\nn 200000\nm 1\nc 2 1 1\n")
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = _one_error_line(captured.err)
    assert "pairing table of 200000 x 200000 x 1 = 40000000000 cells exceeds RESIDUE_CELL_LIMIT" in line


def test_center_basis_above_the_cell_budget_is_an_engine_error(tmp_path, capsys):
    path = write(tmp_path, "wide.grp", "nilp2 v1\np 3\nn 200000\nm 0\n")
    assert main(["inspect", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "center basis of 200000 x 200000" in _one_error_line(captured.err)
    assert main(["decompose", path]) == 2
    assert "hyperplane basis of 200000 x 200000" in _one_error_line(capsys.readouterr().err)
    # Baer's rule allocates nothing, and neither does an abelian product.
    assert main(["capable", path]) == 0
    assert "verdict = capable\nmethod = baer_abelian\nn = 200000\n" in capsys.readouterr().out
    out_path = tmp_path / "wider.grp"
    assert main(["product", "--kind", "direct", path, path, "-o", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8") == "nilp2 v1\np 3\nn 400000\nm 0\n"


def test_tables_within_the_cell_budget_are_built(tmp_path, capsys):
    path = write(tmp_path, "tall.grp", "nilp2 v1\np 3\nn 3000\nm 1\nc 2 1 1\n")
    assert main(["capable", path]) == 0
    assert "n = 3000\nm = 1\n" in capsys.readouterr().out


def test_cli_import_leaves_the_selftest_battery_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fplinalg.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, nilp2.cli; print(sorted(m for m in sys.modules if m.startswith('nilp2.')));"
        " print('parsers built', nilp2.cli.build_parser.cache_info().misses)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert "'nilp2.cli'" in proc.stdout
    assert "nilp2.selfcheck" not in proc.stdout
    # Nor is the argument parser built at import.
    assert "parsers built 0" in proc.stdout


def test_undecodable_input_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.grp"
    path.write_bytes(b"\xff\xfe" + HEISENBERG_FILE.encode("utf-16-le"))
    assert main(["inspect", str(path)]) == 2
    _one_error_line(capsys.readouterr().err)


def test_unwritable_output_is_an_output_error(tmp_path, capsys):
    h = write(tmp_path, "h.grp", HEISENBERG_FILE)
    out_path = str(tmp_path / "no-such-dir" / "out.grp")
    assert main(["product", "--kind", "direct", h, h, "-o", out_path]) == 2
    assert "no-such-dir" in _one_error_line(capsys.readouterr().err)


def test_amalgam_product_command(tmp_path, capsys):
    h = write(tmp_path, "h.grp", HEISENBERG_FILE)
    ident = write(tmp_path, "c.id", "id 1 -> 1\n")
    out_path = str(tmp_path / "am.grp")
    assert main(["product", "--kind", "amalgam", h, h, "--identify", ident, "-o", out_path]) == 0
    out = capsys.readouterr().out
    assert "n = 4" in out
    assert "m = 5" in out


def test_amalgam_of_different_moduli_is_refused(tmp_path, capsys):
    c = "c 2 1 1 0\nc 3 1 0 1\n"
    a = write(tmp_path, "a.grp", "nilp2 v1\np 3\nn 3\nm 2\n" + c)
    b = write(tmp_path, "b.grp", "nilp2 v1\np 5\nn 3\nm 2\n" + c)
    ident = write(tmp_path, "x.id", "id 1 0 -> 1 3\nid 0 1 -> 2 1\n")
    out_path = str(tmp_path / "am.grp")
    assert main(["product", "--kind", "amalgam", a, b, "--identify", ident, "-o", out_path]) == 2
    assert main(["product", "--kind", "amalgam", a, b, "-o", out_path]) == 2
    assert capsys.readouterr().out == ""


def test_extend_command_report(tmp_path, capsys):
    h = write(tmp_path, "h.grp", HEISENBERG_FILE)
    out_path = str(tmp_path / "g2.grp")
    report_path = str(tmp_path / "r.txt")
    assert main(["extend", "--mode", "noncapable", h, "-o", out_path, "--report", report_path]) == 0
    report = open(report_path, encoding="utf-8").read()
    assert "verdict = not_capable" in report
    assert "bound_claimed = 6" in report
    assert "bound_actual = 6" in report
    assert "bound_ok = true" in report
    assert "embedding_ok = true" in report
    assert report == capsys.readouterr().out
    produced = parse_group_text(open(out_path, encoding="utf-8").read())
    assert (produced.n, produced.m) == (8, 17)


def test_extend_capable_report_keys_in_order(tmp_path, capsys):
    c = write(tmp_path, "c.grp", format_group(cyclic(3)))
    out_path = str(tmp_path / "g1.grp")
    assert main(["extend", "--mode", "capable", c, "-o", out_path]) == 0
    out = capsys.readouterr().out
    keys = [line.split(" = ")[0] for line in out.strip().splitlines()]
    assert keys == [
        "verdict", "method", "epicentre_dim", "epicentre_basis", "n", "m",
        "order_exp", "rp_status", "rp_reasons", "bound_claimed",
        "bound_actual", "bound_ok", "embedding_ok",
    ]
    assert "verdict = capable" in out
    assert "bound_claimed = 3" in out


@pytest.mark.parametrize("mode", ["capable", "noncapable"])
@pytest.mark.parametrize("text", [HEISENBERG_FILE, format_group(elementary_abelian(3, 2))])
def test_extend_ignores_the_order_cap(tmp_path, capsys, monkeypatch, mode, text):
    src = write(tmp_path, "in.grp", text)

    def run(tag):
        out_path = str(tmp_path / f"{tag}.grp")
        map_path = str(tmp_path / f"{tag}.map")
        assert main(["extend", "--mode", mode, src, "-o", out_path, "--map", map_path]) == 0
        files = [open(path, encoding="utf-8").read() for path in (out_path, map_path)]
        return [capsys.readouterr().out] + files

    uncapped = run("uncapped")
    monkeypatch.setenv("NILP2_MAX_ORDER", "1")
    assert run("capped") == uncapped


def test_decompose_command(tmp_path, capsys):
    plane = write(tmp_path, "p.grp", format_group(elementary_abelian(3, 2)))
    assert main(["decompose", plane]) == 0
    out = capsys.readouterr().out
    assert "decomposition = found" in out

    h = write(tmp_path, "h.grp", HEISENBERG_FILE)
    assert main(["decompose", h]) == 0
    out = capsys.readouterr().out
    assert "decomposition = none" in out


def test_decompose_reports_the_witness_and_the_limit(tmp_path, capsys):
    e = write(tmp_path, "e.grp", format_group(extraspecial_p5(3)))
    assert main(["decompose", e]) == 0
    assert capsys.readouterr().out == (
        "order_exp = 5\ndecomposition = found\nwitness_left_order = 27\n"
        "witness_right_order = 27\nderived_overlap_dim = 1\n"
    )
    # The extraspecial group of order 3^7: Sym(kappa) has dimension 15.
    c = {(2 * k + 2, 2 * k + 1): (1,) for k in range(3)}
    big = write(tmp_path, "big.grp", format_group(GroupPresentation(3, 6, 1, c)))
    assert main(["decompose", big]) == 0
    assert capsys.readouterr().out == "order_exp = 7\ndecomposition = undetermined\nlimit = sym_enumeration\n"


def _rp_lines(text):
    return [line for line in text.splitlines() if line.startswith(("rp_status", "rp_reasons"))]


@pytest.mark.parametrize("mode", ["capable", "noncapable"])
@pytest.mark.parametrize(
    "group",
    [heisenberg(3), elementary_abelian(3, 2), rebase(heisenberg(3), [[1, 2], [1, 0]]),
     rebase(elementary_abelian(3, 2), [[1, 1], [2, 0]])],
    ids=["H3", "C3^2", "H3-rebased", "C3^2-rebased"],
)
def test_rp_check_on_the_extend_output_agrees_with_extend(tmp_path, capsys, mode, group):
    src = write(tmp_path, "in.grp", format_group(group))
    out_path = str(tmp_path / "out.grp")
    assert main(["extend", "--mode", mode, src, "-o", out_path]) == 0
    extended = _rp_lines(capsys.readouterr().out)
    assert main(["rp-check", out_path]) == 0
    checked = _rp_lines(capsys.readouterr().out)
    assert checked == extended
    assert checked[0] == "rp_status = member"
