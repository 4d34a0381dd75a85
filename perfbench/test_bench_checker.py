"""The benchmark's checker rejects tampered outputs, and its tracer is exact.

Runs under pytest from the repository root; imports nilp2 from ``src``.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checker as ck  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import nilp2  # noqa: E402
from nilp2 import fplinalg, group_core  # noqa: E402


def verdict_data(g):
    v = nilp2.capability_verdict(workloads.presentation(g))
    return v.status, v.evidence["epicentre_basis"]


def test_flipped_verdict_is_rejected():
    for g in (ck.extraspecial(3, 2), ck.rebase(ck.free_class2(5, 4), ck.random_invertible(random.Random(1), 5, 4))):
        status, basis = verdict_data(g)
        assert ck.check_verdict(g, status, basis) == []
        flipped = ck.CAPABLE if status == ck.NOT_CAPABLE else ck.NOT_CAPABLE
        assert ck.check_verdict(g, flipped, basis)


def test_wrong_epicentre_basis_is_rejected():
    g = ck.extraspecial(5, 3)
    status, basis = verdict_data(g)
    assert basis == ((1,),)
    assert ck.check_verdict(g, status, ((2,),))
    g = ck.random_group(random.Random(4), 3, 6, 6, center_is_derived=True)
    status, basis = verdict_data(g)
    assert ck.check_verdict(g, status, basis) == []
    wrong = basis[:-1] if basis else ((1,) + (0,) * (g.m - 1),)
    assert ck.check_verdict(g, status, wrong)


def test_non_injective_map_is_rejected():
    dom, cod, images = workloads.central_embedding(random.Random(2), 3, 4)
    assert ck.check_embedding(dom, cod, images) == []
    # x1 and x2 to the same image: a homomorphism, but not injective.
    collapsed = [images[0], images[0]] + images[2:]
    assert ck.check_embedding(dom, cod, collapsed)
    assert ck.check_embedding(dom, cod, collapsed, claimed_mono=False) == []
    # The construction's own embedding passes; a collapsed copy of it does not.
    source = ck.heisenberg(3)
    report = nilp2.build_noncapable_extension(workloads.presentation(source))
    data = workloads._extension_data(report, nilp2.verify_extension(report))
    out = ck.Group.from_key(data["output"])
    assert ck.check_extension(source, dict(data, output=out)) == []
    bad = (data["images"][0], data["images"][0])
    assert ck.check_extension(source, dict(data, output=out, images=bad))
    assert ck.check_extension(source, dict(data, output=out, capability=ck.CAPABLE))
    assert ck.check_extension(source, dict(data, output=out, bound=7))


def test_wrong_subgroup_count_is_rejected():
    for p, k in ((3, 3), (5, 2)):
        op = workloads.subgroups_op("C", ck.abelian(p, k), ck.subspace_count(k, p))
        definite, count, _ = op.extract(op.run())
        assert definite and op.check(count) == []
        assert op.check(count + 1)
    op = workloads.subgroups_op("H3", ck.heisenberg(3), 19)
    assert op.check(op.extract(op.run())[1]) == []


def test_decomposition_witness_is_recomputed():
    op = workloads.decompose_op("C3^3", ck.abelian(3, 3), "witness", ck.subspace_count(3, 3))
    definite, data, _ = op.extract(op.run())
    assert definite and op.check(data) == []
    status, count, (left, right) = data
    assert op.check((status, count, (left, left)))


def test_gaussian_counts():
    assert [ck.subspace_count(k, 3) for k in range(1, 6)] == [2, 6, 28, 212, 2664]


def test_benchmark_lists_every_traced_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracing.per_layer_metrics()


def test_tracer_wraps_every_binding_and_restores_it():
    rref = fplinalg.rref
    t = tracing.Tracer()
    t.install()
    try:
        assert group_core.rref is fplinalg.rref is not rref
        ops = workloads.build_desk(random.Random(3))[:8]
        counts = []
        for _ in range(2):
            group_core._tables.cache_clear()
            t.reset()
            t.enabled = True
            for op in ops:
                op.run()
            t.enabled = False
            counts.append({k: v for k, v in t.snapshot().items() if not k.endswith(".self_s")})
    finally:
        t.uninstall()
    assert group_core.rref is rref and fplinalg.rref is rref
    assert counts[0] == counts[1]
    assert counts[0]["group_core.element_ops.calls"] > 0
