"""The order contract of the evaluation contexts: Phi, Gamma and the
gauge tensor are first order everywhere, the metric and transport
checks build first-order contexts, and a first-order evaluation gives
the value and gradient bits of a second-order one."""

from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from normality_lab import calculus, cli, experiments, expr, normality, system
from normality_lab.calculus import _paired_contexts
from normality_lab.errors import MissingJets
from normality_lab.normality import momentum_bundle, velocity_bundle
from normality_lab.phase import PhasePoint
from normality_lab.sysfile import read_system_file

FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.glob("*.system"))
# the fields a context may hold, by attribute name
FIELDS = ("L_dense", "phi", "gamma", "V", "transform", "gamma_p")


def _same_to_first_order(a, b):
    assert a.order >= 1 and b.order >= 1
    assert np.array_equal(a.val, b.val)
    assert np.array_equal(a.grad, b.grad)


def _points(sysdef, lone, seed=3):
    rng = np.random.default_rng(seed)
    shape = (sysdef.n,) if lone else (8, sysdef.n)
    return PhasePoint.velocity(rng.uniform(*system.X_BOX, shape),
                               rng.uniform(*system.FIBER_BOX, shape))


def _scalar(rng, n, kind, count):
    return cli._Scalar([cli._scalar_draw(rng, n, kind) for _ in range(count)])


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_the_dense_fiber_map_is_its_float_evaluation_and_derivative_trees(
        path):
    # a constant divisor divides Dense data as it divides floats, so the
    # first-order fiber map has the bits of the float evaluation and its
    # Jacobian those of the expr.derivative trees, bit for bit
    sysdef = read_system_file(str(path)).sysdef
    n, rng = sysdef.n, np.random.default_rng(5)
    x = rng.uniform(*system.X_BOX, (50, n))
    v = rng.uniform(*system.FIBER_BOX, (50, n))
    env = system._env(x.T, v.T, "v")
    dense = system._fiber_jets(sysdef, x, v)
    assert dense.val.tobytes() == system._values(
        sysdef.legendre, env, (50,)).tobytes()
    trees = [[expr.derivative(L, f"v{j + 1}") for j in range(n)]
             for L in sysdef.legendre]
    assert dense.grad.tobytes() == system._values(
        trees, env, (50,)).reshape(50, n, n).tobytes()


@pytest.mark.parametrize("lone", [True, False], ids=["point", "batch"])
@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_first_order_contexts_give_the_bits_of_second_order_ones(path, lone):
    sysdef = read_system_file(str(path)).sysdef
    pt = _points(sysdef, lone)
    v1, p1 = _paired_contexts(sysdef, pt)
    v2, p2 = _paired_contexts(sysdef, pt, order=2)
    assert (v1.order, p1.order, v2.order, p2.order) == (1, 1, 2, 2)

    # Phi, Gamma and T against a second-order evaluation of their
    # components
    _same_to_first_order(v1.phi, v2.eval_native(sysdef.force))
    _same_to_first_order(p1.inner.phi, p2.inner.eval_native(sysdef.force))
    _same_to_first_order(v1.gamma, v2.eval_native(sysdef.connection))
    _same_to_first_order(p1.gamma_p, p2.eval_velocity_native(sysdef.connection))
    if sysdef.gauge is not None:
        _same_to_first_order(v1._dense(sysdef.gauge, what="T", order=1),
                             v2.eval_native(sysdef.gauge))
    _same_to_first_order(v1.L_dense, v2.L_dense)
    _same_to_first_order(p1.inner.L_dense, p2.inner.L_dense)
    _same_to_first_order(p1.V, p2.V)
    _same_to_first_order(p1.transform, p2.transform)

    # the random scalars of the transport check, directly and composed
    rng = np.random.default_rng(5)
    count = 1 if lone else 8
    sv = _scalar(rng, sysdef.n, "v", count)
    sp = _scalar(rng, sysdef.n, "p", count)
    _same_to_first_order(v1.eval_native(sv), v2.eval_native(sv))
    _same_to_first_order(p1.eval_velocity_native(sv),
                         p2.eval_velocity_native(sv))
    _same_to_first_order(p1.eval_native(sp), p2.eval_native(sp))
    _same_to_first_order(v1.eval_momentum_native(sp),
                         v2.eval_momentum_native(sp))

    # no field of a first-order context carries a Hessian, and none of
    # Phi, Gamma and the connection through the inverse map does in a
    # second-order one
    for ctx in (v1, p1, p1.inner):
        for name in FIELDS:
            if hasattr(type(ctx), name):
                assert getattr(ctx, name).hess is None, name
    for field in (v2.phi, v2.gamma, p2.gamma_p, p2.inner.phi):
        assert field.order == 1 and field.hess is None
    assert v2.L_dense.order == p2.V.order == p2.transform.order == 2

    with pytest.raises(MissingJets):
        velocity_bundle(v1)
    with pytest.raises(MissingJets):
        momentum_bundle(p1)


def _record_contexts(monkeypatch):
    """The list of every context built from here on."""
    made = []

    class V(system.VContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    class P(system.PContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    for module in (system, calculus, normality, experiments):
        for name, cls in (("VContext", V), ("PContext", P)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, cls)
    return made


@pytest.mark.parametrize("check, order", [
    ("metric", 1), ("transport", 1), ("cross", 2), ("normality", 2),
    ("gauge", 2),
])
def test_each_check_builds_contexts_of_its_order(monkeypatch, check, order):
    made = _record_contexts(monkeypatch)
    path = str(FIXTURE_DIR / "cubic.system")
    report, _ = cli.run_checks(cli.RunConfig(path, checks=(check,),
                                             samples=3, seed=2))
    assert "error" not in report["checks"][0]
    assert made
    for ctx in made:
        assert ctx.order == order
        for name in FIELDS:
            if name in ctx.__dict__:
                data = ctx.__dict__[name]
                assert (data.hess is None) == (order == 1 or name in
                                               ("phi", "gamma", "gamma_p")), name


def _count_fiber_corrections(monkeypatch):
    """(name, context) of every computation of a context's fiber
    correction N and its gradient dN from here on."""
    work = []
    for name in ("N", "dN"):
        def counted(ctx, name=name,
                    compute=getattr(system._Context, name).func):
            work.append((name, ctx))
            return compute(ctx)
        prop = cached_property(counted)
        prop.__set_name__(system._Context, name)
        monkeypatch.setattr(system._Context, name, prop)
    return work


@pytest.mark.parametrize("check, order", [
    ("transport", 1), ("cross", 2), ("normality", 2), ("gauge", 2),
])
def test_each_context_computes_its_fiber_correction_once(monkeypatch, check,
                                                         order):
    # every horizontal derivative of a job reads its context's kept N;
    # dN is computed once at most, and never in a first-order context
    work = _count_fiber_corrections(monkeypatch)
    path = str(FIXTURE_DIR / "cubic.system")
    report, _ = cli.run_checks(cli.RunConfig(path, checks=(check,),
                                             samples=3, seed=2))
    assert "error" not in report["checks"][0]
    contexts = {id(ctx): ctx for _, ctx in work}
    assert contexts
    for ctx in contexts.values():
        counts = Counter(name for name, c in work if c is ctx)
        assert ctx.order == order
        assert counts["N"] == 1
        assert counts["dN"] <= (1 if order == 2 else 0)
    assert any(name == "dN" for name, _ in work) == (order == 2)
