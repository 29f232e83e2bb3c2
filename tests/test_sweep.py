"""Batched point sweeps: the points of a check evaluated as one batch
give the rows, resample counts and error records the same points give
one at a time, and a batch evaluates each component once."""

from pathlib import Path

import numpy as np
import pytest

import helpers
from normality_lab import cli, jets, system
from normality_lab.cli import RunConfig, run_checks
from normality_lab.errors import DegeneratePoint, EvalError
from normality_lab.sysfile import read_system_file

FIXTURES = Path(__file__).parent / "fixtures"
POINT_CHECKS = ("metric", "transport", "cross", "normality", "gauge")


def fixture(name):
    return str(FIXTURES / f"{name}.system")


def _sweep(monkeypatch, chunk, **config):
    """The report of run_checks with CHUNK points a batch, and the shapes
    of the x every builder call was given."""
    calls = []
    for check_id, real in list(cli._BUILDERS.items()):
        def spy(*args, real=real):
            calls.append(args[-4].shape)    # x of (sysdef, doc, x, v, draws, tol)
            return real(*args)
        monkeypatch.setitem(cli._BUILDERS, check_id, spy)
    monkeypatch.setattr(cli, "CHUNK", chunk)
    report, status = run_checks(RunConfig(**config))
    monkeypatch.undo()
    return report, status, calls


def _point_checks(path):
    doc = read_system_file(path)
    return tuple(c for c in POINT_CHECKS
                 if c != "gauge" or doc.sysdef.gauge is not None)


def test_every_sampled_point_lies_in_the_box():
    report, _ = run_checks(RunConfig(fixture("cubic"),
                                     checks=_point_checks(fixture("cubic")),
                                     samples=12))
    (x_lo, x_hi), (f_lo, f_hi) = system.X_BOX, system.FIBER_BOX
    assert [c["id"] for c in report["checks"]] == list(POINT_CHECKS)
    for record in helpers.expand(report)["checks"]:
        assert {row["index"] for row in record["rows"]} == set(range(12))
        for row in record["rows"]:
            assert all(x_lo <= c <= x_hi for c in row["point"]["x"])
            assert all(f_lo <= c <= f_hi for c in row["point"]["fiber"])


@pytest.mark.parametrize("name", ["cubic", "cubic3", "lagrangian",
                                  "linear_mode_a", "identity_full"])
def test_a_batch_gives_each_point_its_rows_alone(monkeypatch, name):
    config = dict(path=fixture(name), checks=_point_checks(fixture(name)),
                  samples=6, seed=4)
    alone, status_alone, lone_calls = _sweep(monkeypatch, 1, **config)
    batched, status, batch_calls = _sweep(monkeypatch, 64, **config)
    n = read_system_file(fixture(name)).sysdef.n
    assert set(lone_calls) == {(n,)}
    assert batch_calls == [(6, n)] * len(config["checks"])  # no split
    assert status == status_alone
    assert cli.render_json(batched) == cli.render_json(alone)


# half_singular's fiber Jacobian is singular on half of the box, so its
# chunks raise by design (test_a_chunk_with_a_singular_point_splits_...)
@pytest.mark.parametrize("path", [p for p in sorted(FIXTURES.glob("*.system"))
                                  if p.stem != "half_singular"],
                         ids=lambda path: path.stem)
def test_a_batch_that_raises_nothing_is_built_once_a_chunk(monkeypatch, path):
    # a batch that raises splits down to lone points, which take their
    # own branch of every solve and can pass where the batch's branch is
    # wrong; where no point raised, each chunk must be one builder call
    # (a Newton step that moves its live nodes the wrong way fails here)
    n = read_system_file(str(path)).sysdef.n
    for check in _point_checks(str(path)):
        report, _, calls = _sweep(monkeypatch, 8, path=str(path),
                                  checks=(check,), samples=16)
        record, = report["checks"]
        assert "error" not in record and record["summary"]["resampled"] == 0
        assert calls == [(8, n)] * 2, (path.stem, check)


def test_a_chunk_with_a_singular_point_splits_and_resamples(monkeypatch):
    # half_singular's fiber Jacobian is singular for x1 <= 0: a chunk
    # holding such a point raises SingularMetric at the condition gate
    # and splits down to lone points, and each singular one resamples
    # from its own substream; the report is the one of lone points
    path = fixture("half_singular")
    n = read_system_file(path).sysdef.n
    for check in _point_checks(path):
        config = dict(path=path, checks=(check,), samples=16)
        batched, status, calls = _sweep(monkeypatch, 8, **config)
        alone, status_alone, _ = _sweep(monkeypatch, 1, **config)
        record, = batched["checks"]
        assert "error" not in record and record["summary"]["resampled"] > 0
        assert calls[0] == (8, n) and (n,) in calls, check
        assert cli.render_json(batched) == cli.render_json(alone), check
        assert status == status_alone


def _first_draws(seed, check, samples, n, attempts=1):
    """The x of the first `attempts` draws of each point of a metric or
    gauge sweep (no extra draws), by replaying the substreams."""
    out = []
    for index in range(samples):
        rng = np.random.default_rng([seed, cli.CHECK_IDS.index(check), index])
        draws = []
        for _ in range(attempts):
            draws.append(rng.uniform(-1.0, 1.0, n).tobytes())
            rng.uniform(0.5, 1.5, n)
        out.append(draws)
    return out


def _raising_at(monkeypatch, check, doomed, error):
    """Patch the check's builder to raise `error` for any call whose
    points include one of the x in `doomed`."""
    real = cli._BUILDERS[check]

    def builder(sysdef, doc, x, v, draws, tol):
        if any(p.tobytes() in doomed for p in np.atleast_2d(x)):
            raise error(f"synthetic at x={x.tolist()}")
        return real(sysdef, doc, x, v, draws, tol)
    monkeypatch.setitem(cli._BUILDERS, check, builder)


def test_degenerate_points_in_a_batch_resample_as_alone(monkeypatch):
    seed, samples, n = 3, 8, 2
    firsts = _first_draws(seed, "metric", samples, n)
    doomed = {firsts[k][0] for k in (2, 5, 6)}
    reports = []
    for chunk in (1, 64):
        _raising_at(monkeypatch, "metric", doomed, DegeneratePoint)
        monkeypatch.setattr(cli, "CHUNK", chunk)
        reports.append(run_checks(RunConfig(fixture("cubic"),
                                            checks=("metric",),
                                            samples=samples, seed=seed)))
        monkeypatch.undo()
    (one, status_one), (batch, status) = reports
    assert status == status_one == 0
    assert batch["checks"][0]["summary"]["resampled"] == 3
    assert cli.render_json(batch) == cli.render_json(one)
    # the resampled points are the second draws of their substreams
    rows = helpers.expand(batch)["checks"][0]["rows"]
    seconds = _first_draws(seed, "metric", samples, n, attempts=2)
    for k in (2, 5, 6):
        x = np.array([r["point"]["x"] for r in rows if r["index"] == k][0])
        assert x.tobytes() == seconds[k][1]


def test_exhausted_resamples_in_a_batch_give_the_degenerate_record(
        monkeypatch):
    seed, samples, n = 3, 8, 2
    every = _first_draws(seed, "metric", samples, n,
                         attempts=cli.RESAMPLE_LIMIT + 1)
    records = []
    for chunk in (1, 64):
        _raising_at(monkeypatch, "metric", set(every[4]), DegeneratePoint)
        monkeypatch.setattr(cli, "CHUNK", chunk)
        report, status = run_checks(RunConfig(fixture("cubic"),
                                              checks=("metric",),
                                              samples=samples, seed=seed))
        monkeypatch.undo()
        assert status == 1
        records.append(report["checks"][0])
    assert records[0] == records[1]
    assert records[1]["error"]["type"] == "DegeneratePoint"
    assert records[1]["rows"] == []


PARTIAL = """
[system]
n = 2

[legendre]
L1 = "v1 + 0.1*v1^3 + 0.05*x1*v1"
L2 = "v2 + 0.1*v2^3 - 0.04*x2*v2"

[force]
Phi1 = "ln(x1 + 0.7)"
Phi2 = "0.3*v1^2"
"""


def test_an_eval_error_in_a_batch_is_the_record_the_point_gives_alone(
        tmp_path):
    # the force is undefined for x1 <= -0.7, a real EvalError at points
    # 4, 7 and 8 of this sweep
    path = tmp_path / "partial.system"
    path.write_text(PARTIAL, encoding="utf-8")
    doc = read_system_file(str(path))
    seed, k = 1, 4
    rng = np.random.default_rng([seed, cli.CHECK_IDS.index("cross"), k])
    x, v = rng.uniform(-1.0, 1.0, 2), rng.uniform(0.5, 1.5, 2)
    assert x[0] <= -0.7
    with pytest.raises(EvalError) as alone:
        cli._BUILDERS["cross"](doc.sysdef, doc, x, v, [None],
                               cli.DEFAULT_TOLERANCES)
    record = run_checks(RunConfig(str(path), checks=("cross",), samples=12,
                                  seed=seed))[0]["checks"][0]
    assert record["error"] == {"type": "EvalError",
                               "message": str(alone.value)}
    assert "node" not in record["error"]["message"]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["v", "p"])
def test_the_transport_template_gives_the_bits_of_the_tree(n, kind):
    rng = np.random.default_rng(40 + n)
    nodes = 9
    draws = [cli._scalar_draw(rng, n, kind) for _ in range(nodes - 1)]
    # a coefficient that rounds to -0.000000 keeps its sign
    draws.append((kind, 1, n, [-0.0, 0.25, -0.0, 0.5]))
    values = rng.uniform(0.5, 1.5, (2 * n, nodes))
    names = [f"x{i + 1}" for i in range(n)] + [f"{kind}{i + 1}" for i in range(n)]
    batch = cli._Scalar(draws).evaluate(dict(zip(names, jets.seeds(values))))
    for k, draw in enumerate(draws):
        env = dict(zip(names, jets.seeds(values[:, k])))
        tree = helpers.scalar_tree(draw, n).evaluate(env)
        lone = cli._Scalar([draw]).evaluate(env)
        for got, at in ((lone, ()), (batch, (k,))):
            for part, want in zip(got, tree):
                if part is not None and not isinstance(part, int):
                    assert np.asarray(part)[at].tobytes() \
                        == np.asarray(want).tobytes(), (draw, k)


class _Counted:
    """A component that counts its evaluations."""

    def __init__(self, inner, counter):
        self.inner, self.counter = inner, counter
        self.dimension, self.fiber_kind = inner.dimension, inner.fiber_kind

    def evaluate(self, env):
        self.counter[0] += 1
        return self.inner.evaluate(env)


def _evaluations(monkeypatch, path, check, samples):
    counter = [0]
    doc = read_system_file(path)
    sd = doc.sysdef

    def counted(funcs):
        return [_Counted(f, counter) for f in funcs]

    for name in ("legendre", "force", "v_inverse"):
        if getattr(sd, name) is not None:
            object.__setattr__(sd, name, tuple(counted(getattr(sd, name))))
    for name in ("connection", "gauge"):
        arr = getattr(sd, name)
        if arr is not None:
            for idx in np.ndindex(arr.shape):
                arr[idx] = _Counted(arr[idx], counter)
    monkeypatch.setattr(cli, "read_system_file", lambda p: doc)
    report, _ = run_checks(RunConfig(path, checks=(check,), samples=samples,
                                     seed=1))
    monkeypatch.undo()
    assert "error" not in report["checks"][0]
    return counter[0]


@pytest.mark.parametrize("samples", [1, 16])
def test_a_newton_pair_evaluates_each_velocity_template_once(monkeypatch,
                                                            samples):
    # the momentum context of a Newton pair shares the velocity context,
    # so a velocity-native template evaluated there is composed through
    # the inverse map, not evaluated again; a momentum-native one is
    # evaluated once on each side, at p and at L(x, v)
    counts = {"v": 0, "p": 0}
    real = cli._Scalar.evaluate

    def counted(scalar, env):
        counts[scalar.kind] += 1
        return real(scalar, env)

    monkeypatch.setattr(cli._Scalar, "evaluate", counted)
    report, _ = run_checks(RunConfig(fixture("cubic"), checks=("transport",),
                                     samples=samples, seed=1))
    record, = report["checks"]
    assert "error" not in record and record["summary"]["resampled"] == 0
    n = read_system_file(fixture("cubic")).sysdef.n
    assert counts == {"v": 1 + n, "p": 2 * (1 + n)}


@pytest.mark.parametrize("name", ["linear_mode_a", "identity_full"])
def test_a_batch_evaluates_each_component_once(monkeypatch, name):
    for check in _point_checks(fixture(name)):
        one = _evaluations(monkeypatch, fixture(name), check, 1)
        assert _evaluations(monkeypatch, fixture(name), check, 16) == one, check


def test_a_newton_batch_evaluates_the_map_once_per_iteration(monkeypatch):
    # the batched Newton solve runs until its slowest point converges,
    # so a batch may make a few more evaluations than one point, never
    # one set a point
    for check in ("metric", "transport", "cross"):
        one = _evaluations(monkeypatch, fixture("cubic"), check, 1)
        assert _evaluations(monkeypatch, fixture("cubic"), check, 16) < 2 * one
