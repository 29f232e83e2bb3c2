import numpy as np
import pytest

import helpers
from normality_lab import normality
from normality_lab.errors import DegeneratePoint, DimensionError, \
    MixedRepresentationError, ValidationError
from normality_lab.normality import (CROSS_FIELDS, RESIDUAL_IDS, bundle_at,
                                     cross_check_all,
                                     lambda_scalar, momentum_bundle,
                                     normality_residuals, velocity_bundle)
from normality_lab.phase import PhasePoint
from normality_lab.system import PContext, VContext, legendre_forward


def test_cross_representation_agreement():
    # the central certificate: every field from its closed velocity
    # form against the same field from the inverse-map route
    rng = np.random.default_rng(31)
    fixtures = [helpers.sys_cubic(), helpers.sys_lagrangian(),
                helpers.sys_linear_mode_a(), helpers.sys_cubic3()]
    for sysdef in fixtures:
        for _ in range(10):
            x, v = helpers.random_box_point(rng, sysdef.n)
            checks = cross_check_all(sysdef, PhasePoint.velocity(x, v))
            assert set(checks) == set(CROSS_FIELDS)
            for c in checks.values():
                assert c.deviation < 1e-6, (c.field, c.deviation)
    with pytest.raises(MixedRepresentationError):
        cross_check_all(fixtures[0],
                        PhasePoint.momentum([0.0, 0.0], [1.0, 1.0]))


def test_projector_laws():
    rng = np.random.default_rng(32)
    for sysdef in (helpers.sys_cubic(), helpers.sys_cubic3()):
        n = sysdef.n
        for _ in range(5):
            x, v = helpers.random_box_point(rng, n)
            pt = PhasePoint.velocity(x, v)
            for bundle in (bundle_at(sysdef, pt),
                           bundle_at(sysdef, legendre_forward(sysdef, pt))):
                P = bundle.P
                assert np.max(np.abs(P @ P - P)) < 1e-9
                assert np.max(np.abs(P @ bundle.W)) < 1e-9
                assert np.trace(P) == pytest.approx(n - 1, abs=1e-9)
                assert np.linalg.matrix_rank(P) == n - 1


def test_parallel_force_is_weakly_normal():
    # force proportional to velocity on the trivial map: the first
    # variation covector is 3*c*p and the reduced second variation is
    # -2*c^2*p, both parallel to the momentum, so the projected
    # residuals vanish identically
    c = 0.7
    sysdef = helpers.sys_parallel(c)
    rng = np.random.default_rng(33)
    for _ in range(10):
        x, v = helpers.random_box_point(rng, 2)
        b = velocity_bundle(VContext(sysdef, x, v))
        assert np.max(np.abs(b.alpha - 3 * c * v)) < 1e-12
        assert np.max(np.abs(b.eta + 2 * c * c * v)) < 1e-12
        for r in normality_residuals(sysdef, PhasePoint.velocity(x, v)):
            assert r.norm < 1e-8
            assert r.passed


def test_identity_system_residuals_vanish():
    sysdef = helpers.sys_identity(2)
    rng = np.random.default_rng(34)
    for _ in range(10):
        x, v = helpers.random_box_point(rng, 2)
        for pt in (PhasePoint.velocity(x, v), PhasePoint.momentum(x, v)):
            for r in normality_residuals(sysdef, pt):
                assert r.norm < 1e-10


def test_shear_force_breaks_normality():
    sysdef = helpers.sys_shear()
    rng = np.random.default_rng(35)
    for _ in range(10):
        x, v = helpers.random_box_point(rng, 2)
        res = {r.check_id: r for r in
               normality_residuals(sysdef, PhasePoint.velocity(x, v))}
        assert res["weak-alpha"].norm > 1e-3
        assert not res["weak-alpha"].passed


def test_residuals_consistent_between_representations():
    sysdef = helpers.sys_cubic()
    rng = np.random.default_rng(36)
    for _ in range(5):
        x, v = helpers.random_box_point(rng, 2)
        pt = PhasePoint.velocity(x, v)
        rv = {r.check_id: r.norm for r in normality_residuals(sysdef, pt)}
        rp = {r.check_id: r.norm
              for r in normality_residuals(sysdef, legendre_forward(sysdef, pt))}
        for cid in RESIDUAL_IDS:
            assert rv[cid] == pytest.approx(rp[cid], abs=1e-9)


def test_additional_equations_carry_no_content_at_n2():
    # rank-one projector: the skew and trace conditions hold for any
    # system at n = 2, so they are reported as non-decisive there
    sysdef = helpers.sys_linear_mode_a()     # non-symmetric lower metric
    rng = np.random.default_rng(37)
    x, v = helpers.random_box_point(rng, 2)
    res = {r.check_id: r for r in
           normality_residuals(sysdef, PhasePoint.velocity(x, v))}
    for cid in ("skew-A", "trace-B", "skew-C"):
        assert res[cid].norm < 1e-12
        assert not res[cid].decisive
    for cid in ("weak-alpha", "weak-eta"):
        assert res[cid].decisive

    res3 = {r.check_id: r for r in
            normality_residuals(helpers.sys_cubic3(),
                                PhasePoint.velocity(*helpers.random_box_point(rng, 3)))}
    assert all(r.decisive for r in res3.values())
    assert res3["skew-A"].norm > 1e-6      # cross term makes g asymmetric


def test_mutation_hook_is_detected():
    sysdef = helpers.sys_cubic()
    pt = PhasePoint.velocity([0.3, -0.2], [1.2, 0.9])
    clean = cross_check_all(sysdef, pt)
    mutated = cross_check_all(sysdef, pt, mutate="flip-beta-term")
    assert clean["beta"].deviation < 1e-8
    assert mutated["beta"].deviation > 1e-2
    assert mutated["eta"].deviation > 1e-2
    assert mutated["W"].deviation < 1e-8   # mutation is localized
    with pytest.raises(ValidationError):
        cross_check_all(sysdef, pt, mutate="no-such-hook")


def test_degenerate_point_guard():
    sysdef = helpers.sys_identity(2)
    with pytest.raises(DegeneratePoint):
        velocity_bundle(VContext(sysdef, np.zeros(2), np.zeros(2)))
    with pytest.raises(DegeneratePoint):
        momentum_bundle(PContext(sysdef, np.zeros(2), np.zeros(2)))


def test_lambda_scalar_contract():
    sysdef = helpers.sys_cubic()
    b = bundle_at(sysdef, PhasePoint.velocity([0.1, 0.4], [0.9, 1.2]))
    assert lambda_scalar(b.B, b.P) == pytest.approx(b.lam)
    with pytest.raises(DimensionError):
        lambda_scalar(np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(DimensionError):
        velocity_bundle(VContext(helpers.sys_identity(1), [0.1], [1.0]))


def test_eta_reduction_identity():
    # eta must equal beta minus the U-projection of alpha against the
    # fiber coordinate; checked on the momentum route where the fiber
    # coordinate is stored in the bundle
    sysdef = helpers.sys_cubic()
    pt = legendre_forward(sysdef, PhasePoint.velocity([0.2, 0.1], [1.3, 0.7]))
    b = bundle_at(sysdef, pt)
    expected = b.beta - b.U * float(b.alpha @ b.fiber) / b.Omega
    assert np.max(np.abs(b.eta - expected)) < 1e-12
