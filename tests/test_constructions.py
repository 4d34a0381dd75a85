import dataclasses
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from nilp2 import constructions, group_core, products
from nilp2.capability import central_decomposition, epicentre_in_derived, rp_membership
from nilp2.constructions import (
    _glued_row,
    _row_line,
    build_capable_extension,
    build_noncapable_extension,
    extraspecial_p5,
    heisenberg,
    verify_extension,
)
from nilp2.errors import Nilp2Error, NotOddPrime, TrivialInput
from nilp2.fileformats import format_group, parse_group_text
from nilp2.fplinalg import Subspace
from nilp2.group_core import GroupPresentation, cyclic, elementary_abelian, hom_from_images
from nilp2.products import (
    Identification,
    amalgamated_coproduct,
    central_product_identified,
    direct_product,
    nilpotent2_product,
)
from nilp2.selfcheck import _battery_p3, random_presentation, rebase
from oracles import assert_same_map, compose


def test_glued_lines_are_scaled_to_a_leading_one():
    g = GroupPresentation(5, 3, 2, {(2, 1): (0, 3), (3, 1): (4, 2)})
    assert _glued_row(g) == 0
    assert _row_line(g, 0) == (0, 1)
    assert _row_line(g, 1) == (1, 3)
    with pytest.raises(Nilp2Error, match="no nonzero commutators"):
        _glued_row(elementary_abelian(5, 3))


def test_heisenberg_builder():
    g = heisenberg(3)
    assert (g.p, g.n, g.m) == (3, 2, 1)
    assert g.c == {(2, 1): (1,)}
    assert heisenberg(5).order == 125
    with pytest.raises(NotOddPrime):
        heisenberg(2)


def test_extraspecial_builder():
    e = extraspecial_p5(3)
    assert (e.n, e.m) == (4, 1)
    assert e.c == {(2, 1): (1,), (4, 3): (1,)}
    with pytest.raises(NotOddPrime):
        extraspecial_p5(2)


def test_extraspecial_equals_central_product():
    h = heisenberg(3)
    ident = Identification(h, h, ((1,),), ((1,),))
    assert central_product_identified(h, h, ident).group == extraspecial_p5(3)


def test_trivial_input_rejected():
    trivial = elementary_abelian(3, 0)
    with pytest.raises(TrivialInput):
        build_capable_extension(trivial)
    with pytest.raises(TrivialInput):
        build_noncapable_extension(trivial)


# -- capable extensions ------------------------------------------------------------


def test_capable_extension_of_cyclic():
    rep = build_capable_extension(cyclic(3))
    assert rep.branch == "augmented"
    assert (rep.output_group.n, rep.output_group.m) == (4, 5)
    assert rep.capability.status == "capable"
    assert rep.capability.method == "epicentre_trivial"
    assert rep.rp.status == "member"
    assert rep.embedding_mono
    assert rep.rank_bound_claimed == 3
    assert rep.rank_bound_actual == 3
    assert rep.bound_ok


def test_capable_extension_of_heisenberg():
    rep = build_capable_extension(heisenberg(3))
    assert rep.branch == "nonabelian_capable"
    assert rep.output_group.n == 4
    assert rep.rank_bound_claimed == 2
    assert rep.rank_bound_actual == 2
    assert rep.capability.status == "capable"


def test_capable_extension_of_extraspecial_takes_otherwise_branch():
    rep = build_capable_extension(extraspecial_p5(3))
    assert rep.branch == "augmented"
    assert rep.output_group.n == 7
    assert rep.output_group.n <= 4 + 3
    assert rep.capability.status == "capable"
    assert rep.rp.status == "member"


def test_capable_extension_of_heisenberg_times_cyclic_on_a_non_basis():
    # Z(G) > G' and the stored commutators are not a basis: the input is
    # still decided capable, so it is used directly (+2)
    g = rebase(direct_product(heisenberg(3), cyclic(3)).group, np.triu(np.ones((3, 3), dtype=np.int64)))
    assert len(g.c_items) > g.m
    rep = build_capable_extension(g)
    assert rep.branch == "nonabelian_capable"
    assert rep.rank_bound_claimed == 2
    assert rep.rank_bound_actual == 2
    assert (rep.capability.status, rep.capability.method) == ("capable", "epicentre_trivial")
    outcome = verify_extension(rep)
    assert outcome.passed, outcome.checks


def test_capable_extension_p5():
    rep = build_capable_extension(heisenberg(5))
    assert rep.capability.status == "capable"
    assert rep.output_group.n == 4


# -- non-capable extensions ---------------------------------------------------------


def test_noncapable_extension_of_heisenberg():
    rep = build_noncapable_extension(heisenberg(3))
    assert rep.branch == "nonabelian"
    assert (rep.output_group.n, rep.output_group.m) == (8, 17)
    assert rep.capability.status == "not_capable"
    assert rep.capability.method == "epicentre_nontrivial"
    assert rep.rp.status == "member"
    assert rep.embedding_mono
    assert rep.rank_bound_claimed == 6
    assert rep.rank_bound_actual == 6
    assert epicentre_in_derived(rep.output_group).contains_vector(rep.identified_vector)


def test_noncapable_extension_of_cyclic():
    rep = build_noncapable_extension(cyclic(3))
    assert rep.branch == "abelian"
    assert rep.output_group.n == 8
    assert rep.rank_bound_claimed == 7
    assert rep.rank_bound_actual == 7
    assert rep.capability.status == "not_capable"


def test_noncapable_extension_of_plane():
    rep = build_noncapable_extension(elementary_abelian(3, 2))
    assert rep.output_group.n == 9
    assert rep.output_group.m == 22
    assert rep.output_group.n <= 2 + 7
    assert rep.capability.status == "not_capable"


def test_noncapable_extension_p5():
    rep = build_noncapable_extension(heisenberg(5))
    assert rep.capability.status == "not_capable"
    assert (rep.output_group.n, rep.output_group.m) == (8, 17)


# -- verification ----------------------------------------------------------------------


def test_verify_fresh_reports_pass():
    for rep in (build_capable_extension(cyclic(3)), build_noncapable_extension(heisenberg(3))):
        outcome = verify_extension(rep)
        assert outcome.passed, outcome.checks


def test_verify_detects_corrupted_presentation():
    rep = build_noncapable_extension(heisenberg(3))
    c = rep.output_group.c
    key = next(iter(c))
    vec = list(c[key])
    vec[0] = (vec[0] + 1) % 3
    c[key] = tuple(vec)
    tampered_group = GroupPresentation(
        rep.output_group.p, rep.output_group.n, rep.output_group.m, c
    )
    tampered = dataclasses.replace(rep, output_group=tampered_group)
    outcome = verify_extension(tampered)
    assert not outcome.passed
    failing = {name for name, ok, _ in outcome.checks if not ok}
    assert "embedding_endpoints" in failing


@pytest.mark.parametrize("side", ["input", "output"])
@pytest.mark.parametrize(("edit", "message"), [("entry", "outside [0, 3)"), ("column", "span")])
def test_verify_detects_rows_edited_in_place(side, edit, message):
    # Neither the rows nor the slot can be written, so the edited rows are
    # planted under the cached tables and hash past __setattr__, and the
    # original rows are put back afterwards.
    rep = build_noncapable_extension(heisenberg(3))
    group = getattr(rep, f"{side}_group")
    with pytest.raises(ValueError):
        group.pairs.flags.writeable = True
    original = group.pairs
    pairs = original.copy()
    if edit == "entry":
        pairs[tuple(np.argwhere(pairs)[0])] = 3
    else:
        pairs[:, 0] = 0
    with pytest.raises(AttributeError):
        group.pairs = pairs
    object.__setattr__(group, "pairs", pairs)
    try:
        failing = {name: detail for name, ok, detail in verify_extension(rep).checks if not ok}
    finally:
        object.__setattr__(group, "pairs", original)
    # The embedding's consistency is solved from the input's rows, so an
    # edited input fails it too.  The epicentre reads the output's rows:
    # with a derived coordinate cleared from every row, the output is
    # capable and the glued line leaves the epicentre.
    expected = {
        ("input", "entry"): {"input_valid", "embedding_mono"},
        ("input", "column"): {"input_valid", "embedding_mono"},
        ("output", "entry"): {"output_valid"},
        ("output", "column"): {"output_valid", "capability_matches", "identified_in_epicentre"},
    }[side, edit]
    assert set(failing) == expected
    assert message in failing[f"{side}_valid"]


def test_verify_detects_edited_bound():
    rep = build_noncapable_extension(heisenberg(3))
    tampered = dataclasses.replace(rep, rank_bound_claimed=rep.rank_bound_claimed + 1)
    outcome = verify_extension(tampered)
    assert not outcome.passed
    failing = {name for name, ok, _ in outcome.checks if not ok}
    assert failing == {"bounds"}


def test_verify_detects_wrong_capability_claim():
    rep = build_capable_extension(heisenberg(3))
    wrong = dataclasses.replace(rep, capability=dataclasses.replace(rep.capability, status="not_capable"))
    outcome = verify_extension(wrong)
    assert not outcome.passed
    failing = {name for name, ok, _ in outcome.checks if not ok}
    assert "capability_matches" in failing


def test_verify_detects_wrong_rp_claim():
    rep = build_capable_extension(heisenberg(3))
    wrong = dataclasses.replace(rep, rp=dataclasses.replace(rep.rp, status="undetermined"))
    failing = {name for name, ok, _ in verify_extension(wrong).checks if not ok}
    assert failing == {"rp_matches"}


@pytest.mark.parametrize("seed", range(6))
def test_outputs_re_read_from_file_are_members(seed):
    # Sym(kappa) of every output is one-dimensional, so the file alone
    # decides membership, as the report did.
    rng = random.Random(seed)
    p = (3, 5, 7)[seed % 3]
    g = random_presentation(rng, p, max_n=5)
    if g.order == 1:
        g = cyclic(p)
    for build in (build_capable_extension, build_noncapable_extension):
        rep = build(g)
        again = parse_group_text(format_group(rep.output_group))
        assert central_decomposition(again).sym_dim == 1
        assert rp_membership(again) == rep.rp
        assert rep.rp.status == "member"


def test_full_battery_bounds_and_centers():
    battery = [
        cyclic(3),
        elementary_abelian(3, 2),
        elementary_abelian(3, 3),
        heisenberg(3),
        extraspecial_p5(3),
        nilpotent2_product(heisenberg(3), cyclic(3)).group,
    ]
    from nilp2.group_core import center

    for g in battery:
        cap_rep = build_capable_extension(g)
        non_rep = build_noncapable_extension(g)
        assert cap_rep.bound_ok and non_rep.bound_ok
        assert center(cap_rep.output_group).center_equals_derived
        assert center(non_rep.output_group).center_equals_derived
        assert cap_rep.capability.status == "capable"
        assert non_rep.capability.status == "not_capable"


def test_verify_detects_vector_outside_epicentre():
    rep = build_noncapable_extension(heisenberg(3))
    epi = epicentre_in_derived(rep.output_group)
    m = rep.output_group.m
    units = [tuple(int(t == s) for t in range(m)) for s in range(m)]
    outside = next(v for v in units if not epi.contains_vector(v))
    outcome = verify_extension(dataclasses.replace(rep, identified_vector=outside))
    failing = {name for name, ok, _ in outcome.checks if not ok}
    assert failing == {"identified_in_epicentre"}


def test_verify_computes_the_epicentre_once(monkeypatch):
    from nilp2 import capability, constructions

    rep = build_noncapable_extension(heisenberg(3))
    calls = []

    def counting(group):
        calls.append(group)
        return epicentre_in_derived(group)

    monkeypatch.setattr(capability, "epicentre_in_derived", counting)
    monkeypatch.setattr(constructions, "epicentre_in_derived", counting)
    assert verify_extension(rep).passed
    assert calls == [rep.output_group]


def _composite_embedding(rep):
    """The report's embedding rebuilt as the composite of the maps into
    each intermediate product, ending with the canonical projection of the
    last 2-nilpotent product onto the output."""
    g, out = rep.input_group, rep.output_group
    if rep.branch in ("augmented", "abelian"):
        stage = nilpotent2_product(g, cyclic(g.p))
        base, f = stage.group, stage.embed_left
    else:
        base, f = g, hom_from_images(g, g, g.generators())
    free2 = heisenberg(g.p)
    if rep.mode == "capable":
        last = nilpotent2_product(base, free2)
    else:
        glued = _row_line(base, _glued_row(base))
        cp = central_product_identified(base, free2, Identification(base, free2, (glued,), ((1,),)))
        f = compose(f, cp.embed_left)
        last = nilpotent2_product(cp.group, extraspecial_p5(g.p))
    f = compose(f, last.embed_left)
    return compose(f, hom_from_images(last.group, out, out.generators()))


def _random_of_rank(rng, p, n):
    while True:
        g = random_presentation(rng, p, max_n=n)
        if g.n == n:
            return g


def test_report_embedding_is_the_composite_through_the_intermediate_products():
    rng = random.Random(77)
    inputs = list(_battery_p3())
    for p in (3, 5, 7):
        for n in range(1, 6):
            inputs.append(elementary_abelian(p, n))
            inputs.append(_random_of_rank(rng, p, n))
    for g in inputs:
        for rep in (build_capable_extension(g), build_noncapable_extension(g)):
            assert_same_map(rep.embedding, _composite_embedding(rep))


def _branch_inputs():
    """The p = 3 battery and random presentations of rank 1 to 4 at p = 3,
    5 and 7, which between them take all four branches."""
    rng = random.Random(78)
    return list(_battery_p3()) + [_random_of_rank(rng, p, n) for p in (3, 5, 7) for n in range(1, 5)]


def _unit_line(p, vec):
    """vec mod p, scaled to a leading 1."""
    return Subspace(p, len(vec), [vec]).basis_tuples()[0]


def test_row_read_glue_is_the_inclusions_image_of_the_glued_commutator():
    # The oracle glues along the images that the inclusions into each
    # product, solved by hom_from_images, give the base's least nonzero
    # commutator, and pushes it into the output the same way.
    branches = set()
    for g in _branch_inputs():
        p = g.p
        for rep in (build_capable_extension(g), build_noncapable_extension(g)):
            branches.add((rep.mode, rep.branch))
            base = g if rep.branch in ("nonabelian_capable", "nonabelian") else nilpotent2_product(g, cyclic(p)).group
            glued = _unit_line(p, base.c_items[0][1])
            free2 = heisenberg(p)
            if rep.mode == "capable":
                out = amalgamated_coproduct(base, free2, Identification(base, free2, (glued,), ((1,),))).group
            else:
                cp = central_product_identified(base, free2, Identification(base, free2, (glued,), ((1,),)))
                mid = _unit_line(p, cp.embed_left.commutator_matrix @ np.array(glued))
                wide = extraspecial_p5(p)
                out = amalgamated_coproduct(cp.group, wide, Identification(cp.group, wide, (mid,), ((1,),))).group
            assert rep.output_group == out
            inclusion = hom_from_images(base, out, out.generators()[: base.n])
            assert rep.identified_vector == _unit_line(p, inclusion.commutator_matrix @ np.array(glued))
    assert branches == set(constructions.BOUND_BY_BRANCH)


@pytest.mark.parametrize("build", [build_capable_extension, build_noncapable_extension])
def test_each_construction_solves_one_homomorphism(monkeypatch, build):
    # Only the report's embedding is solved; every glued line is read from
    # a product's pairing rows.
    calls = []

    def counting(*args):
        calls.append(args)
        return hom_from_images(*args)

    for module in (constructions, products, group_core):
        monkeypatch.setattr(module, "hom_from_images", counting)
    for g in _branch_inputs():
        calls.clear()
        rep = build(g)
        assert len(calls) == 1 and calls[0][:2] == (g, rep.output_group)


PAPER_SCALE = """
import re

import numpy as np

from nilp2.constructions import build_capable_extension, build_noncapable_extension, verify_extension
from nilp2.group_core import from_kappa

n = 24
kap = np.zeros((n, n, n * (n - 1) // 2), dtype=np.int64)
kap[np.tri(n, k=-1, dtype=bool), np.arange(kap.shape[2])] = 1
free = from_kappa(3, kap)
for build in (build_capable_extension, build_noncapable_extension):
    report = build(free)
    out = report.output_group
    print(report.mode, out.n, out.m, verify_extension(report).passed, report.capability.evidence["epicentre_dim"])
with open("/proc/self/status") as status:
    print("peak_mb", int(re.search(r"VmHWM:\\s+(\\d+) kB", status.read()).group(1)) // 1024)
"""


def _fresh_process(script, *args):
    """The stdout lines of ``script`` run in a fresh interpreter on this
    checkout's nilp2."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(constructions.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    return proc.stdout.splitlines()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
def test_constructions_over_the_free_group_of_rank_24_stay_under_300_mb():
    # The noncapable output is (30, 380), and a dense basis of its ker J
    # would be 7,340 x 11,400 int64 cells: such a run peaked at about
    # 1.3 GB.  On entries both builds and both verifications peak below
    # 300 MB.  A fresh process, whose VmHWM is its own peak; its ru_maxrss
    # would also count the test process's peak, which the exec inherits.
    lines = _fresh_process(PAPER_SCALE)
    assert lines[:2] == ["capable 26 324 True 0", "noncapable 30 380 True 1"]
    peak = int(lines[2].split()[1])
    assert peak < 300, f"peak RSS {peak} MB"


REBASED_FREE = """
import re
import sys

import numpy as np

from nilp2.capability import epicentre_in_derived
from nilp2.fplinalg import Subspace
from nilp2.group_core import from_kappa
from nilp2.selfcheck import rebase

n = int(sys.argv[1])
kap = np.zeros((n, n, n * (n - 1) // 2), dtype=np.int64)
kap[np.tri(n, k=-1, dtype=bool), np.arange(kap.shape[2])] = 1
free = from_kappa(3, kap)
rng = np.random.default_rng(1)
lower = np.tril(rng.integers(0, 3, (n, n)), -1) + np.eye(n, dtype=np.int64)
upper = np.triu(rng.integers(0, 3, (n, n)), 1) + np.eye(n, dtype=np.int64)
g = rebase(free, lower @ upper % 3)
epicentre = epicentre_in_derived(g)
print(2 * np.count_nonzero(g.pairs) > g.pairs.size, epicentre == epicentre_in_derived(free) == Subspace.zero(3, g.m))
with open("/proc/self/status") as status:
    print("peak_mb", int(re.search(r"VmHWM:\\s+(\\d+) kB", status.read()).group(1)) // 1024)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
@pytest.mark.parametrize("n", [23, 24])
def test_epicentre_of_the_free_group_on_a_dense_basis_stays_under_300_mb(n):
    # On a random basis the pairing rows are dense, J peels nowhere, and its
    # dense null rows alone would be 4,048 x 5,819 (rank 23) or
    # 4,600 x 6,624 (rank 24) cells, past RESIDUE_CELL_LIMIT.  In the
    # coordinates where the first C(n, 2) independent commutators are unit
    # vectors, the rows are the standard basis's and J peels entirely.
    lines = _fresh_process(REBASED_FREE, str(n))
    assert lines[0] == "True True"
    peak = int(lines[1].split()[1])
    assert peak < 300, f"peak RSS {peak} MB"
