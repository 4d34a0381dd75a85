"""The benchmark's three workloads: seeded inputs, timed operations, checks.

A workload is a fixed list of operations built from the seed.  Each
operation has

* ``run()``: the timed call into nilp2.  It rebuilds its presentations from
  plain data, so every pass does the same work;
* ``extract(raw)``: untimed; returns ``(definite, data, invariant)``, where
  ``data`` is plain Python data compared between passes and handed to the
  checker, and ``invariant`` must agree across a family of presentations
  of one group;
* ``check(data)``: untimed; a list of problems found by the independent
  checker (``checker.py``), empty when the output is right;
* ``fault``: ``None``, or the name of a known nilp2 fault that makes this
  operation fail (return an undetermined answer) every time.

nilp2 functions are always looked up through their module at call time
(``capability.capability_verdict``), so the traced run sees these calls.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import checker as ck
from checker import CAPABLE, NOT_CAPABLE, Group

from nilp2 import capability, cli, constructions, fileformats, group_core

PRIMES = (3, 5, 7)
UNDETERMINED = "undetermined"
# Inputs of the operations kept as failed do not depend on the seed.
FAULT_SEED = 20080528


class Op:
    __slots__ = ("kind", "label", "run", "extract", "check", "fault", "family")

    def __init__(self, kind, label, run, extract, check, fault=None, family=None):
        self.kind = kind
        self.label = label
        self.run = run
        self.extract = extract
        self.check = check
        self.fault = fault
        self.family = family


def presentation(g: Group):
    return group_core.GroupPresentation(g.p, g.n, g.m, g.c)


def group_data(pres) -> Group:
    return Group(pres.p, pres.n, pres.m, dict(pres.c_items))


def element_data(e) -> tuple:
    return (tuple(e.v), tuple(e.w))


# -- epicentre_ladder ---------------------------------------------------------------


def ladder_rungs():
    """(n, m) rungs: m = n, the middle, and C(n,2) - 1 for n = 8..12; rank 13
    stops at the middle rung, because (13, 77) alone costs about 2 s."""
    rungs = []
    for n in range(8, 14):
        top = n * (n - 1) // 2 - 1
        levels = (n, (n + top + 1) // 2, top) if n < 13 else (n, (n + top + 1) // 2)
        rungs.extend((n, m) for m in levels)
    return rungs


def verdict_op(kind, label, g: Group, expected=None, family=None, fault=None):
    """capability_verdict on g.  Groups with Z(G) = G' are checked against the
    recomputed epicentre; others only against ``expected``."""

    def run():
        return capability.capability_verdict(presentation(g))

    def extract(v):
        basis = v.evidence.get("epicentre_basis")
        return v.status != UNDETERMINED, (v.status, v.method, basis), v.status

    def check(data):
        status, method, basis = data
        if g.m and g.center_equals_derived():
            problems = ck.check_verdict(g, status, basis, expected)
            want = "epicentre_trivial" if status == CAPABLE else "epicentre_nontrivial"
            if method != want:
                problems.append(f"method {method} for a group with Z(G) = G'")
            return problems
        return [] if status == expected else [f"verdict {status}/{method}, known answer {expected}"]

    return Op(kind, label, run, extract, check, fault, family)


def build_ladder(rng: random.Random):
    ops = []
    for k, (n, m) in enumerate(ladder_rungs()):
        p = PRIMES[k % 3]
        g = ck.random_group(rng, p, n, m, center_is_derived=True)
        # Rungs under about 0.1 s carry four rebased copies: more samples for
        # the percentiles, and a check that the verdict ignores the basis.
        copies = 5 if n * m <= 200 else 1
        for c in range(copies):
            h = g if c == 0 else ck.rebase(g, ck.random_invertible(rng, p, n))
            ops.append(verdict_op("rung", f"n={n} m={m} p={p}", h, family=("rung", k)))
    for k, n in enumerate((8, 9, 10)):
        p = PRIMES[k % 3]
        g = ck.rebase(ck.free_class2(p, n), ck.random_invertible(rng, p, n))
        ops.append(verdict_op("free", f"free n={n} p={p}", g, expected=CAPABLE))
    for half in range(1, 7):
        for p in PRIMES:
            expected = CAPABLE if half == 1 else NOT_CAPABLE
            for _ in range(2):
                g = ck.rebase(ck.extraspecial(p, half), ck.random_invertible(rng, p, 2 * half))
                ops.append(verdict_op("extraspecial", f"extraspecial n={2 * half} p={p}", g, expected=expected))
    return ops


# -- extend_verify -------------------------------------------------------------------

MODES = ("capable", "noncapable")


def extend_inputs(rng: random.Random):
    """C_p^n and one random nonabelian group of derived dimension n - 1, for
    rank n = 1..7, with p cycling through 3, 5, 7.

    A nonabelian input of order <= 243 is redrawn until Z(G) = G', so that
    the construction never runs nilp2's brute-force decomposition search
    (desk_decide measures that search).
    """
    inputs = []
    for n in range(1, 8):
        for abelian in (True, False):
            if not abelian and n < 2:
                continue
            p = PRIMES[len(inputs) % 3]
            if abelian:
                inputs.append(ck.abelian(p, n))
            else:
                m = n - 1
                inputs.append(ck.random_group(rng, p, n, m, center_is_derived=p ** (n + m) <= 243))
    return inputs


def _extension_data(report, outcome) -> dict:
    return {
        "mode": report.mode,
        "branch": report.branch,
        "output": group_data(report.output_group).key(),
        "images": tuple(element_data(e) for e in report.embedding.images),
        "capability": report.capability.status,
        "rp": report.rp.status,
        "identified": tuple(report.identified_vector),
        "bound": report.rank_bound_claimed,
        "failed_checks": tuple(name for name, ok, _ in outcome.checks if not ok),
    }


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def extension_ops(idx: int, g: Group, tmpdir: str, use_cli: bool):
    """Five operations on one input: the two constructions with their
    verification, a file round trip, and restricted-class membership of
    each output re-read from its file (fault F2)."""
    label = f"{'abelian' if not g.m else 'nonabelian'} n={g.n} m={g.m} p={g.p}"
    slot = {}
    ops = []

    def construction(mode):
        builder = "build_capable_extension" if mode == "capable" else "build_noncapable_extension"

        def run():
            report = getattr(constructions, builder)(presentation(g))
            outcome = constructions.verify_extension(report)
            slot[mode] = report
            return report, outcome

        def extract(raw):
            data = _extension_data(*raw)
            return not data["failed_checks"], data, None

        def check(data):
            problems = [f"verify_extension failed {name}" for name in data["failed_checks"]]
            report = dict(data, output=Group.from_key(data["output"]))
            return problems + ck.check_extension(g, report)

        return Op(mode, f"{mode} {label}", run, extract, check)

    def roundtrip_run():
        texts = {"input": fileformats.format_group(presentation(g))}
        source = fileformats.parse_group_text(texts["input"])
        reread = {"input": source}
        for mode in MODES:
            report = slot[mode]
            texts[mode] = fileformats.format_group(report.output_group)
            texts[mode + "_map"] = fileformats.format_generator_map(report.embedding)
            out = fileformats.parse_group_text(texts[mode])
            reread[mode] = out
            reread[mode + "_map"] = fileformats.parse_generator_map_text(texts[mode + "_map"], source, out)
        slot["reread"] = reread
        cli_out = None
        if use_cli:
            paths = {}
            for key in ("input", "capable", "capable_map", "noncapable"):
                paths[key] = os.path.join(tmpdir, f"{idx}-{key}.txt")
                with open(paths[key], "w", encoding="utf-8") as fh:
                    fh.write(texts[key])
            cli_out = (
                _run_cli(["inspect", paths["noncapable"]]),
                _run_cli(["verify-embed", paths["input"], paths["capable"], "--map", paths["capable_map"]]),
            )
        return texts, reread, cli_out

    def roundtrip_extract(raw):
        texts, reread, cli_out = raw
        data = {
            "texts": texts,
            "written": {mode: group_data(slot[mode].output_group).key() for mode in MODES},
            "images": {mode: tuple(element_data(e) for e in slot[mode].embedding.images) for mode in MODES},
            "reread": {key: group_data(reread[key]).key() for key in ("input",) + MODES},
            "reread_maps": {
                mode: (reread[mode + "_map"].consistent, tuple(element_data(e) for e in reread[mode + "_map"].images))
                for mode in MODES
            },
            "cli": cli_out,
        }
        return True, data, None

    def roundtrip_check(data):
        problems = []
        if ck.read_group_text(data["texts"]["input"]).key() != g.key() or data["reread"]["input"] != g.key():
            problems.append("input group did not survive format/parse")
        for mode in MODES:
            written = data["written"][mode]
            if ck.read_group_text(data["texts"][mode]).key() != written or data["reread"][mode] != written:
                problems.append(f"{mode} output did not survive format/parse")
            images = data["images"][mode]
            if tuple(ck.read_map_text(data["texts"][mode + "_map"])) != images:
                problems.append(f"{mode} map text does not list the embedding's images")
            if data["reread_maps"][mode] != (True, images):
                problems.append(f"{mode} map did not survive format/parse")
        if data["cli"] is not None:
            (code, text), (vcode, vtext) = data["cli"]
            out = Group.from_key(data["written"]["noncapable"])
            want = {
                "p": str(out.p),
                "n": str(out.n),
                "m": str(out.m),
                "order_exp": str(out.n + out.m),
                "abelian": "false",
                "center_equals_derived": "true" if out.center_equals_derived() else "false",
                "nonzero_commutators": str(len(out.c)),
            }
            if code != 0 or ck.read_report(text) != want:
                problems.append(f"nilp2 inspect printed {text!r} (exit {code})")
            if vcode != 0 or ck.read_report(vtext) != {"embedding_ok": "true"}:
                problems.append(f"nilp2 verify-embed printed {vtext!r} (exit {vcode})")
        return problems

    ops.append(construction("capable"))
    ops.append(construction("noncapable"))
    ops.append(Op("roundtrip", f"roundtrip {label}", roundtrip_run, roundtrip_extract, roundtrip_check))

    def reread_rp(mode):
        def run():
            return capability.rp_membership(slot["reread"][mode])

        def extract(v):
            return v.status != UNDETERMINED, (v.status, v.reasons), None

        def check(data):
            # The outputs are amalgamated coproducts of nontrivial factors, so
            # the paper puts them in the restricted class.
            status, reasons = data
            if status != "member" or "center_equals_derived" not in reasons:
                return [f"re-read {mode} output: rp {status} {reasons}"]
            return []

        return Op("rp_reread", f"rp_reread {mode} {label}", run, extract, check, fault="F2")

    ops.append(reread_rp("capable"))
    ops.append(reread_rp("noncapable"))
    return ops


def build_extend(rng: random.Random, tmpdir: str):
    ops = []
    for idx, g in enumerate(extend_inputs(rng)):
        ops.extend(extension_ops(idx, g, tmpdir, use_cli=idx % 2 == 0))
    return ops


# -- desk_decide ---------------------------------------------------------------------


def h_times(p: int, r: int) -> Group:
    return ck.direct_product(ck.heisenberg(p), ck.abelian(p, r))


# The amalgamated coproduct of C3^2 and C3 with nothing glued: the
# 2-nilpotent product, with [x3, x1] and [x3, x2] independent.
AMALGAM = Group(3, 3, 2, {(3, 1): (1, 0), (3, 2): (0, 1)})


def rebased(rng, g: Group) -> Group:
    return ck.rebase(g, ck.random_invertible(rng, g.p, g.n)) if g.n else g


def adapted_basis(rng, p: int, r: int) -> Group:
    """H_p x C_p^r on a random basis adapted to the radical: one hyperbolic
    pair, r radical generators, in random positions.  Exactly one
    commutator is nonzero, so the stored commutators form a basis."""
    n = r + 2
    a = [[0] * n for _ in range(n)]
    while True:
        top = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
        if (top[0][0] * top[1][1] - top[0][1] * top[1][0]) % p:
            break
    tail = ck.random_invertible(rng, p, r) if r else []
    for col in range(2):
        for row in range(2):
            a[row][col] = top[row][col]
        for row in range(2, n):
            a[row][col] = rng.randrange(p)
    for col in range(r):
        for row in range(r):
            a[2 + row][2 + col] = int(tail[row][col])
    order = list(range(n))
    rng.shuffle(order)
    return ck.rebase(h_times(p, r), [[a[row][col] for col in order] for row in range(n)])


def fault_basis(g: Group) -> Group:
    """A change of generators drawn from a fixed seed, redrawn until the stored
    commutators are not a basis (F1 needs exactly that)."""
    rng = random.Random(FAULT_SEED)
    while True:
        h = rebased(rng, g)
        if len(h.c) > h.m:
            return h


def axioms_op(rng, g: Group, size: int):
    def rand():
        return (tuple(rng.randrange(g.p) for _ in range(g.n)), tuple(rng.randrange(g.p) for _ in range(g.m)))

    triples = [(rand(), rand(), rand()) for _ in range(size)]
    exps = [rng.randrange(2, 4 * g.p) for _ in range(size)]

    def run():
        pres = presentation(g)
        out = []
        for (a, b, c), e in zip(triples, exps):
            a, b, c = pres.element(*a), pres.element(*b), pres.element(*c)
            ab = group_core.multiply(a, b)
            out.append(
                (
                    ab,
                    group_core.multiply(ab, c),
                    group_core.multiply(a, group_core.multiply(b, c)),
                    group_core.inverse(a),
                    group_core.power(a, e),
                )
            )
        return out

    def extract(out):
        return True, tuple(tuple(element_data(e) for e in row) + (e,) for row, e in zip(out, exps)), None

    def check(data):
        return ck.check_axioms(g, triples, data)

    return Op("axioms", f"axioms order={g.p ** (g.n + g.m)} p={g.p}", run, extract, check)


def subgroups_op(label, g: Group, expected=None, family=None):
    def run():
        return group_core.enumerate_subgroups(presentation(g))

    def extract(subs):
        return True, len(subs), len(subs)

    def check(count):
        return [] if expected is None or count == expected else [f"{count} subgroups, known count {expected}"]

    return Op("subgroups", f"subgroups {label}", run, extract, check, family=family)


def _decode(index: int, p: int, size: int) -> tuple:
    digits = []
    for _ in range(size):
        index, d = divmod(index, p)
        digits.append(d)
    return tuple(reversed(digits))


def decompose_op(label, g: Group, expected: str, count=None, family=None):
    """central_decomposition_search; a witness is recomputed element by
    element.  Subgroup element indices are the mixed-radix numbers of the
    digits (v, w), as documented by nilp2's element tables."""

    def run():
        return capability.central_decomposition_search(presentation(g))

    def extract(s):
        sides = None
        if s.witness is not None:
            sides = (s.witness.left.element_indices, s.witness.right.element_indices)
        return s.status in ("witness", "none"), (s.status, s.subgroup_count, sides), s.status

    def check(data):
        status, subgroups, sides = data
        problems = []
        if status != expected:
            problems.append(f"decomposition {status}, known answer {expected}")
        if count is not None and subgroups != count:
            problems.append(f"search saw {subgroups} subgroups, known count {count}")
        if sides is not None:
            size = g.n + g.m
            left, right = ([(e[: g.n], e[g.n :]) for e in (_decode(i, g.p, size) for i in side)] for side in sides)
            problems += ck.check_decomposition(g, left, right)
        return problems

    return Op("decompose", f"decompose {label}", run, extract, check, family=family)


def rp_op(label, g: Group, expected_reason: str):
    def run():
        return capability.rp_membership(presentation(g))

    def extract(v):
        return v.status != UNDETERMINED, (v.status, v.reasons), None

    def check(data):
        status, reasons = data
        zg = "center_equals_derived" if g.m and g.center_equals_derived() else "center_exceeds_derived"
        problems = []
        if status != "non_member" or zg not in reasons:
            problems.append(f"rp {status} {reasons}, known non_member with {zg}")
        if not any(r.startswith(expected_reason) for r in reasons):
            problems.append(f"rp reasons {reasons} lack {expected_reason}")
        return problems

    return Op("rp", f"rp {label}", run, extract, check)


def mono_op(label, dom: Group, cod: Group, images, fault=None):
    def run():
        cod_p = presentation(cod)
        f = group_core.hom_from_images(presentation(dom), cod_p, [cod_p.element(*im) for im in images])
        return group_core.is_monomorphism(f)

    def extract(res):
        witness = None if res.witness is None else element_data(res.witness)
        return res.status != UNDETERMINED, (res.status, witness), None

    def check(data):
        status, witness = data
        problems = ck.check_embedding(dom, cod, images, claimed_mono=status == "mono")
        if witness is not None:
            lmat = ck.induced_derived_map(dom, cod, images)
            if witness == dom.identity() or ck.apply_map(dom, cod, images, lmat, witness) != cod.identity():
                problems.append(f"witness {witness} is not a nontrivial kernel element")
        return problems

    return Op("mono", f"mono {label}", run, extract, check, fault)


def central_embedding(rng, p: int, k: int):
    """C_p^k -> H_p x C_p^(k-1): x1 to the central z, x_i to x_(i+1) for
    i >= 2, then a change of generators of the domain (none when rng is None).
    Injective, but the abelianised map is not."""
    dom = ck.abelian(p, k)
    cod = h_times(p, k - 1)
    z = ((0,) * cod.n, (1,))
    base = [z] + [(tuple(int(t == i) for t in range(cod.n)), (0,)) for i in range(2, k + 1)]
    if rng is None:
        return dom, cod, base
    a = ck.random_invertible(rng, p, k)
    images = []
    for col in range(k):
        acc = cod.identity()
        for row in range(k):
            acc = cod.mul(acc, cod.pow(base[row], int(a[row][col])))
        images.append(acc)
    return dom, cod, images


def build_desk(rng: random.Random):
    h3, h5, e5 = ck.heisenberg(3), ck.heisenberg(5), ck.extraspecial(3, 2)
    h3c3, h3c32 = h_times(3, 1), h_times(3, 2)
    ops = []
    for g in (h3, h5, e5, h3c3, h3c32, AMALGAM):
        ops.append(axioms_op(rng, rebased(rng, g), 150))

    for p, k in ((3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3)):
        ops.append(subgroups_op(f"C{p}^{k}", ck.abelian(p, k), ck.subspace_count(k, p)))
    for p, g in ((3, h3), (5, h5)):
        ops.append(subgroups_op(f"H{p}", rebased(rng, g), p * p + 2 * p + 4))
    for name, g in (("E5", e5), ("H3xC3", h3c3), ("amalgam(C3^2,C3)", AMALGAM)):
        for _ in range(2):
            ops.append(subgroups_op(name, rebased(rng, g), family=("subgroups", name)))

    for p, k in ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3)):
        ops.append(decompose_op(f"C{p}^{k}", ck.abelian(p, k), "witness", ck.subspace_count(k, p)))
    for p, g in ((3, h3), (5, h5)):
        ops.append(decompose_op(f"H{p}", rebased(rng, g), "none", p * p + 2 * p + 4))
    for _ in range(2):
        ops.append(decompose_op("amalgam(C3^2,C3)", rebased(rng, AMALGAM), "none", family=("decompose", "amalgam")))
    ops.append(decompose_op("E5", rebased(rng, e5), "witness"))
    ops.append(decompose_op("H3xC3", rebased(rng, h3c3), "witness"))

    ops.append(rp_op("H3", rebased(rng, h3), "commutators_linearly_independent"))
    ops.append(rp_op("H5", rebased(rng, h5), "commutators_linearly_independent"))
    ops.append(rp_op("E5", rebased(rng, e5), "central_decomposition_found"))
    ops.append(rp_op("H3xC3", rebased(rng, h3c3), "center_exceeds_derived"))
    ops.append(rp_op("C3^3", ck.abelian(3, 3), "center_exceeds_derived"))

    for p, k in ((3, 3), (3, 4), (3, 5), (5, 2), (5, 3)):
        dom, cod, images = central_embedding(rng, p, k)
        ops.append(mono_op(f"C{p}^{k} -> H{p}xC{p}^{k - 1}", dom, cod, images))
    dom, cod = ck.abelian(3, 4), ck.abelian(3, 3)
    images = [(tuple(rng.randrange(3) for _ in range(3)), ()) for _ in range(4)]
    ops.append(mono_op("C3^4 -> C3^3", dom, cod, images))
    # Images in the abelian subgroup <u, z> of H3, so a homomorphism of C3^3.
    dom, cod = ck.abelian(3, 3), rebased(rng, h3)
    u, z = ((rng.randrange(1, 3), rng.randrange(3)), (rng.randrange(3),)), ((0, 0), (1,))
    images = [u, cod.mul(cod.pow(u, rng.randrange(3)), cod.pow(z, rng.randrange(3))), cod.pow(z, rng.randrange(3))]
    ops.append(mono_op("C3^3 -> H3", dom, cod, images))

    for r in (1, 2):
        ops.append(verdict_op("verdict", f"verdict H3xC3^{r}", adapted_basis(rng, 3, r), expected=CAPABLE))
    for p, k in ((3, 1), (3, 3), (5, 2)):
        ops.append(verdict_op("verdict", f"verdict C{p}^{k}", ck.abelian(p, k), expected=CAPABLE if k > 1 else NOT_CAPABLE))

    # F1: Z(G) > G' and the stored commutators are not a basis.
    ops.append(verdict_op("verdict", "F1 H3xC3", fault_basis(h3c3), expected=CAPABLE, fault="F1"))
    e5c3 = ck.direct_product(e5, ck.abelian(3, 1))
    ops.append(verdict_op("verdict", "F1 E5xC3", fault_basis(e5c3), expected=NOT_CAPABLE, fault="F1"))
    # F3: injective, abelianised map not injective, domain order 729 > 243.
    dom, cod, images = central_embedding(None, 3, 6)
    ops.append(mono_op("F3 C3^6 -> H3xC3^5", dom, cod, images, fault="F3"))
    return ops


WORKLOADS = {
    "epicentre_ladder": build_ladder,
    "extend_verify": build_extend,
    "desk_decide": build_desk,
}
