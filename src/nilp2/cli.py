"""Command-line surface.

Exit codes: 0 a verdict was computed, 1 usage error, 2 an input that fails
validation or cannot be read, decoded or parsed, an output that cannot
be written, or an array sized from the input (a group's tables, an
epicentre's Jacobi residue, dense kernel basis or kernel entries) above
``fplinalg.RESIDUE_CELL_LIMIT`` = 2^24 cells, refused with
``ResidueTooLarge`` before it is allocated, 3 verification failure.  The
epicentre's budgets still refuse a group whose Jacobi system does not peel
in the derived coordinates it is solved in: the commutators' own where
those cannot be denser, the given ones otherwise.  Every
error is one `error:` line on stderr, after the usage when argparse rejects
the arguments.  Each command fixes its key order in one dict, which one
writer prints as `key = value` lines, so identical inputs produce
byte-identical output; subspace bases print as echelon rows joined by
commas.  Input files are read whole and parsed by the text codecs of
``fileformats``; output files are formatted first, then written.  No
command has an order cap or reads an environment variable; rp-check and
decompose answer undetermined, naming the limit, only when the algebra
Sym(kappa) is too large to enumerate.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .capability import (
    capability_verdict,
    central_decomposition,
    epicentre_in_derived,
    rp_membership,
)
from .constructions import build_capable_extension, build_noncapable_extension
from .errors import Nilp2Error
from .fileformats import (
    format_generator_map,
    format_group,
    parse_generator_map_text,
    parse_group_text,
    parse_identification_text,
)
from .group_core import center, is_monomorphism
from .products import (
    amalgamated_coproduct,
    central_product_identified,
    direct_product,
    nilpotent2_product,
)

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise _UsageError(message)


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _basis_text(rows) -> str:
    return ",".join(" ".join(str(x) for x in row) for row in rows)


def _shape(g) -> dict:
    return {"n": g.n, "m": g.m, "order_exp": g.order_exp}


def _rp(verdict) -> dict:
    return {"rp_status": verdict.status, "rp_reasons": ";".join(verdict.reasons)}


def _capability(verdict) -> dict:
    values = {"verdict": verdict.status, "method": verdict.method}
    if "epicentre_dim" in verdict.evidence:
        values["epicentre_dim"] = verdict.evidence["epicentre_dim"]
        values["epicentre_basis"] = _basis_text(verdict.evidence["epicentre_basis"])
    return values


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(values: dict, report_path=None):
    """Print a report as `key = value` lines in the dict's order."""
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    sys.stdout.write(text)
    if report_path:
        _write(report_path, text)


def cmd_inspect(args) -> int:
    g = parse_group_text(_read(args.file))
    _emit({
        "p": g.p,
        **_shape(g),
        "abelian": _bool_text(g.is_abelian),
        "center_equals_derived": _bool_text(center(g).center_equals_derived),
        "nonzero_commutators": len(g.c_items),
    })
    return 0


def cmd_capable(args) -> int:
    g = parse_group_text(_read(args.file))
    _emit({**_capability(capability_verdict(g)), **_shape(g)})
    return 0


def cmd_epicentre(args) -> int:
    g = parse_group_text(_read(args.file))
    epi = epicentre_in_derived(g)
    _emit({"epicentre_dim": epi.dim, "epicentre_basis": _basis_text(epi.basis_tuples()), **_shape(g)})
    return 0


def cmd_rp_check(args) -> int:
    g = parse_group_text(_read(args.file))
    _emit({**_shape(g), **_rp(rp_membership(g))})
    return 0


def cmd_product(args) -> int:
    if args.kind in ("direct", "nilpotent2") and args.identify is not None:
        raise _UsageError(f"--identify does not apply to --kind {args.kind}")
    a = parse_group_text(_read(args.left))
    b = parse_group_text(_read(args.right))
    if args.kind == "direct":
        result = direct_product(a, b)
    elif args.kind == "nilpotent2":
        result = nilpotent2_product(a, b)
    else:
        # Without an identification file nothing is glued.
        text = _read(args.identify) if args.identify is not None else ""
        build = central_product_identified if args.kind == "central" else amalgamated_coproduct
        result = build(a, b, parse_identification_text(text, a, b))
    _write(args.output, format_group(result.group))
    if args.map_a:
        _write(args.map_a, format_generator_map(result.embed_left))
    if args.map_b:
        _write(args.map_b, format_generator_map(result.embed_right))
    _emit(_shape(result.group))
    return 0


def cmd_extend(args) -> int:
    g = parse_group_text(_read(args.file))
    if args.mode == "capable":
        report = build_capable_extension(g)
    else:
        report = build_noncapable_extension(g)
    _write(args.output, format_group(report.output_group))
    if args.map:
        _write(args.map, format_generator_map(report.embedding))
    values = {
        **_capability(report.capability),
        **_shape(report.output_group),
        **_rp(report.rp),
        "bound_claimed": report.rank_bound_claimed,
        "bound_actual": report.rank_bound_actual,
        "bound_ok": _bool_text(report.bound_ok),
        "embedding_ok": _bool_text(report.embedding_mono),
    }
    _emit(values, args.report)
    return 0


def cmd_verify_embed(args) -> int:
    sub = parse_group_text(_read(args.sub))
    big = parse_group_text(_read(args.big))
    gmap = parse_generator_map_text(_read(args.map), sub, big)
    ok = gmap.consistent and is_monomorphism(gmap).status == "mono"
    _emit({"embedding_ok": _bool_text(ok)})
    return 0 if ok else 3


def cmd_decompose(args) -> int:
    g = parse_group_text(_read(args.file))
    decomposition = central_decomposition(g)
    values = {"order_exp": g.order_exp, "decomposition": decomposition.status}
    if decomposition.status == "found":
        values["witness_left_order"] = decomposition.left_order
        values["witness_right_order"] = decomposition.right_order
        values["derived_overlap_dim"] = decomposition.derived_overlap_dim
    if decomposition.limit is not None:
        values["limit"] = decomposition.limit
    _emit(values)
    return 0


def cmd_selftest(args) -> int:
    from .selfcheck import run_all  # the battery's module is loaded only here

    results = run_all()
    for result in results:
        sys.stdout.write(result.line() + "\n")
    if all(r.passed for r in results):
        sys.stdout.write("selftest: ok\n")
        return 0
    sys.stdout.write("selftest: FAILED\n")
    return 3


@functools.cache  # built on the first main call, never at import
def build_parser() -> _Parser:
    # The module docstring is for readers of the code; argparse would rewrap it.
    description = "Exact verdicts on finite groups of class at most 2 and odd prime exponent p."
    parser = _Parser(prog="nilp2", description=description)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_inspect = sub.add_parser("inspect", help="summarize a group file")
    p_inspect.add_argument("file")
    p_inspect.set_defaults(func=cmd_inspect)

    p_capable = sub.add_parser("capable", help="capability verdict")
    p_capable.add_argument("file")
    p_capable.set_defaults(func=cmd_capable)

    p_epi = sub.add_parser("epicentre", help="epicentre inside the derived subgroup")
    p_epi.add_argument("file")
    p_epi.set_defaults(func=cmd_epicentre)

    p_rp = sub.add_parser("rp-check", help="membership in the restricted class")
    p_rp.add_argument("file")
    p_rp.set_defaults(func=cmd_rp_check)

    p_prod = sub.add_parser("product", help="build a product of two groups")
    p_prod.add_argument("--kind", required=True, choices=("direct", "nilpotent2", "central", "amalgam"))
    p_prod.add_argument("left")
    p_prod.add_argument("right")
    p_prod.add_argument("--identify", default=None, help="identification file")
    p_prod.add_argument("-o", "--output", required=True)
    p_prod.add_argument("--map-a", default=None, help="write the left embedding map")
    p_prod.add_argument("--map-b", default=None, help="write the right embedding map")
    p_prod.set_defaults(func=cmd_product)

    p_ext = sub.add_parser("extend", help="embed into a capable or non-capable group")
    p_ext.add_argument("--mode", required=True, choices=("capable", "noncapable"))
    p_ext.add_argument("file")
    p_ext.add_argument("-o", "--output", required=True)
    p_ext.add_argument("--report", default=None)
    p_ext.add_argument("--map", default=None, help="write the embedding map")
    p_ext.set_defaults(func=cmd_extend)

    p_ver = sub.add_parser("verify-embed", help="check a stored embedding map")
    p_ver.add_argument("sub")
    p_ver.add_argument("big")
    p_ver.add_argument("--map", required=True)
    p_ver.set_defaults(func=cmd_verify_embed)

    p_dec = sub.add_parser("decompose", help="decide whether the group is a central product")
    p_dec.add_argument("file")
    p_dec.set_defaults(func=cmd_decompose)

    p_self = sub.add_parser("selftest", help="run the acceptance battery")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as exc:  # --help and friends
        code = exc.code
        return int(code) if code else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (Nilp2Error, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
