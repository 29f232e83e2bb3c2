"""Seeded inputs of the benchmark: system files, jobs and expected verdicts.

A job is one `normality-lab check` invocation: one generated system
file, one check, a fixed sample count and a sampling seed. The shape of
every system is fixed per workload; the seed draws only coefficients,
surface placement and sampling seeds. So a workload's inputs change with
the seed while its cost barely does, which keeps runs on different seeds
comparable.

This module only writes text. The program sees nothing but these files.
"""

import os
from dataclasses import dataclass

import numpy as np

TAU = "6.283185307179586"

WORKLOADS = ("sweep-lowdim", "sweep-highdim", "shift-fronts")

POINT_CHECKS = ("metric", "transport", "cross", "normality", "gauge")


@dataclass(frozen=True)
class SystemSpec:
    """One generated file and the checks the workload runs on it.

    `role` decides the expected verdicts: every valid system passes
    metric, transport, cross and gauge; `mutated` must fail cross;
    `control` must pass normality and shift; `generic` and `shear`
    must fail them."""

    name: str
    role: str
    text: str
    checks: tuple
    samples: int = 1
    units_per_job: int = 0   # surface nodes of a shift job


@dataclass(frozen=True)
class Job:
    system: str     # SystemSpec.name
    path: str
    check: str
    samples: int
    seed: int
    units: int      # sampled points, or surface nodes for shift
    expect_pass: bool


def expected_pass(role: str, check: str) -> bool:
    if role == "mutated" and check == "cross":
        return False
    if check in ("normality", "shift"):
        return role == "control"
    return True


# --- system text -------------------------------------------------------

def _num(value: float) -> str:
    return f"({value:.6f})"


def _signed(rng, lo, hi) -> str:
    return _num(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)))


def _file(n, header, legendre, force=None, connection=None, inverse=None,
          gauge=None, surface=None, nu=None, options=None) -> str:
    lines = [f"# {header}", "", "[system]", f"n = {n}", "", "[legendre]"]
    lines += [f'{k} = "{v}"' for k, v in legendre.items()]
    for section, body in (("force", force), ("connection", connection),
                          ("inverse", inverse), ("gauge", gauge),
                          ("surface", surface)):
        if body:
            lines += ["", f"[{section}]"]
            lines += [f'{k} = "{v}"' for k, v in body.items()]
    if nu is not None:
        lines += ["", f'[nu] = "{nu}"']
    if options:
        lines += ["", "[options]"]
        lines += [f"{k} = {v}" for k, v in options.items()]
    return "\n".join(lines) + "\n"


def _cubic_legendre(rng, n):
    """Coupled cubic fiber map L_i = v_i + a v_i^3 + b x_i v_i + c x_j v_j
    with j the next index; diagonally dominant on the sampling box."""
    out = {}
    for i in range(1, n + 1):
        j = i % n + 1
        out[f"L{i}"] = (f"v{i} + {_num(rng.uniform(0.05, 0.15))}*v{i}^3"
                        f" + {_signed(rng, 0.02, 0.08)}*x{i}*v{i}"
                        f" + {_signed(rng, 0.02, 0.08)}*x{j}*v{j}")
    return out


def _closed_legendre(rng):
    """n=2 map with a closed-form inverse: L1 = e^(b1 x1) v1,
    L2 = e^(b2 x2) v2 + c x1 v1."""
    b1, b2 = (_signed(rng, 0.05, 0.2) for _ in range(2))
    c = _signed(rng, 0.05, 0.2)
    legendre = {"L1": f"exp({b1}*x1)*v1",
                "L2": f"exp({b2}*x2)*v2 + {c}*x1*v1"}
    v1 = f"p1*exp(-{b1}*x1)"
    inverse = {"V1": v1, "V2": f"(p2 - {c}*x1*{v1})*exp(-{b2}*x2)"}
    return legendre, inverse


def _lagrangian(rng):
    a = _num(rng.uniform(0.03, 0.08))
    b, c = _signed(rng, 0.03, 0.1), _signed(rng, 0.03, 0.1)
    return {"lagrangian": f"0.5*v1^2 + 0.5*v2^2 + {a}*v1^2*v2^2"
                          f" + {b}*sin(x1)*v2^2 + {c}*x2*v1^2"}


def _generic_force(rng, n):
    out = {}
    for i in range(1, n + 1):
        j = i % n + 1
        out[f"Phi{i}"] = (f"{_signed(rng, 0.1, 0.3)}*sin(x{j})*v{i}"
                          f" + {_signed(rng, 0.1, 0.3)}*v{j}^2")
    return out


def _parallel_force(rng, n):
    k = _num(rng.uniform(0.3, 0.9))
    return {f"Phi{i}": f"{k}*v{i}" for i in range(1, n + 1)}


def _connection(rng, n):
    """Symmetric, velocity-dependent: G^k_kj = G^k_jk = g v_k and
    G^j_kk = h x_k for j the index after k."""
    out = {}
    for k in range(1, n + 1):
        j = k % n + 1
        g = _signed(rng, 0.05, 0.15)
        out[f"Gamma_{k}_{k}{j}"] = f"{g}*v{k}"
        out[f"Gamma_{k}_{j}{k}"] = f"{g}*v{k}"
        out[f"Gamma_{j}_{k}{k}"] = f"{_signed(rng, 0.05, 0.15)}*x{k}"
    return out


def _gauge(rng):
    """Symmetric n=2 gauge tensor with constant, position and velocity
    entries."""
    t12 = f"{_signed(rng, 0.02, 0.08)}*v2"
    t212 = f"{_signed(rng, 0.02, 0.08)}*x1"
    return {"T_1_11": f"{_num(rng.uniform(0.1, 0.4))} + {_signed(rng, 0.05, 0.15)}*x1",
            "T_1_12": t12, "T_1_21": t12,
            "T_1_22": f"{_signed(rng, 0.1, 0.3)}*x2",
            "T_2_11": f"{_signed(rng, 0.05, 0.15)}*v1",
            "T_2_12": t212, "T_2_21": t212,
            "T_2_22": f"{_num(rng.uniform(0.1, 0.3))} + {_signed(rng, 0.03, 0.1)}*v2"}


def _circle(rng):
    c1, c2 = _signed(rng, 0.0, 0.3), _signed(rng, 0.0, 0.3)
    r = _num(rng.uniform(0.8, 1.2))
    surface = {"x1(u1)": f"{c1} + {r}*cos(u1)", "x2(u1)": f"{c2} + {r}*sin(u1)"}
    options = {"u_stop": TAU, "u_samples": 8, "periodic": "true",
               "t_final": 0.5, "time_steps": 4}
    return surface, options, 8


def _sphere(rng):
    """Latitude-longitude patch away from the poles; both parameter axes
    share one range because the file format takes one per option."""
    c = [_signed(rng, 0.0, 0.3) for _ in range(3)]
    r = _num(rng.uniform(0.8, 1.2))
    surface = {"x1(u1,u2)": f"{c[0]} + {r}*sin(u1)*cos(u2)",
               "x2(u1,u2)": f"{c[1]} + {r}*sin(u1)*sin(u2)",
               "x3(u1,u2)": f"{c[2]} + {r}*cos(u1)"}
    options = {"u_start": 0.6, "u_stop": 2.5, "u_samples": 3,
               "periodic": "false", "t_final": 0.5, "time_steps": 4}
    return surface, options, 9


def cubic_family(rng, n) -> str:
    """Generic coupled-cubic system with Newton inverse; the n-scaling
    probe and sweep-highdim draw from it."""
    return _file(n, f"coupled cubic, n={n}, Newton inverse",
                 _cubic_legendre(rng, n), _generic_force(rng, n),
                 _connection(rng, n))


# Points per sweep-lowdim job. The CLI's default is 100, but a pass of
# the 22 jobs at 100 points takes about 30 s on the baseline machine, and
# a run needs 110 timed jobs (five passes) for its p90, so a run would
# take 150 s. At 16 points a pass takes about 5 s, per-job costs (file
# read, validation, render) are under 2% of a job, and batching the
# points of a check can still gain up to 16 calls to one.
LOWDIM_SAMPLES = 16


def _lowdim(rng):
    closed_l, closed_v = _closed_legendre(rng)
    newton = (_cubic_legendre(rng, 2), _generic_force(rng, 2),
              _connection(rng, 2))
    return [
        SystemSpec("closed", "generic", _file(
            2, "closed-form inverse", closed_l, _generic_force(rng, 2),
            _connection(rng, 2), inverse=closed_v, gauge=_gauge(rng)),
            POINT_CHECKS, samples=LOWDIM_SAMPLES),
        SystemSpec("newton", "generic", _file(
            2, "cubic map, Newton inverse", *newton, gauge=_gauge(rng)),
            POINT_CHECKS, samples=LOWDIM_SAMPLES),
        SystemSpec("lagrangian", "generic", _file(
            2, "Lagrangian generator, Newton inverse", _lagrangian(rng),
            _generic_force(rng, 2), _connection(rng, 2), gauge=_gauge(rng)),
            POINT_CHECKS, samples=LOWDIM_SAMPLES),
        SystemSpec("control", "control", _file(
            2, "flat map with a force parallel to the velocity",
            {"L1": "v1", "L2": "v2"}, _parallel_force(rng, 2),
            gauge=_gauge(rng)),
            POINT_CHECKS, samples=LOWDIM_SAMPLES),
        SystemSpec("mutated", "mutated", _file(
            2, "cubic map with the flip-beta-term mutation", *newton,
            options={"mutate": "flip-beta-term"}),
            ("metric", "cross"), samples=LOWDIM_SAMPLES),
    ]


def _highdim(rng):
    # One point a job: a point costs 60 to 600 ms here (n=3 transport
    # about 200 ms) against under 10 ms of per-job cost, so the jobs
    # already time the per-point layers dense jets would change; two
    # points a job would take the 110 timed jobs of a run from 20 s to
    # over 30 s.
    # A quarter of the jobs at n=4 puts p50 inside the n=3 cross and
    # transport jobs and p90 inside the n=4 ones, not on a boundary
    # between job kinds where a small change of cost would jump it.
    checks = ("transport", "cross", "normality")
    return [SystemSpec(f"cubic{n}-{i}", "generic", cubic_family(rng, n),
                       checks)
            for n, count in ((3, 6), (4, 2)) for i in range(count)]


def _shift(rng):
    def front(name, n, role, header, legendre, force, inverse=None):
        # outward normals: the fronts grow instead of focusing
        if n == 3:
            surface, options, nodes = _sphere(rng)
            nu = "1"
        else:
            surface, options, nodes = _circle(rng)
            nu = "-1"
        text = _file(n, header, legendre, force, inverse=inverse,
                     surface=surface, nu=nu, options=options)
        return SystemSpec(name, role, text, ("shift",), units_per_job=nodes)

    # Integration cost moves with the drawn coefficients (a Newton
    # circle's cost varies by a quarter from one draw to the next), so
    # each kind comes many times and a run takes few passes over many
    # systems: twenty Newton circles sit between the ten cheap flat or
    # closed-form fronts and the eight spheres, so p50 falls inside the
    # circles and p90 inside the spheres, and each is an order statistic
    # of many draws, not of one or two.
    flat = {"L1": "v1", "L2": "v2"}
    specs = [front(f"circle-newton-{i}", 2, "generic",
                   "cubic map, Newton inverse, circle",
                   _cubic_legendre(rng, 2), _generic_force(rng, 2))
             for i in range(20)]
    for i in range(8):
        legendre, inverse = _closed_legendre(rng)
        specs.append(front(f"circle-closed-{i}", 2, "generic",
                           "closed-form inverse, circle", legendre,
                           _generic_force(rng, 2), inverse))
        specs.append(front(f"sphere-newton-{i}", 3, "generic",
                           "coupled cubic map, Newton inverse, sphere patch",
                           _cubic_legendre(rng, 3), _generic_force(rng, 3)))
    specs.append(front("control", 2, "control",
                       "flat map, force parallel to the velocity, circle",
                       flat, _parallel_force(rng, 2)))
    specs.append(front("shear", 2, "shear",
                       "flat map with a shear force, circle", flat,
                       {"Phi1": f"{_num(rng.uniform(0.3, 0.7))}*v2^2*(1 + x1)",
                        "Phi2": "0"}))
    return specs


_GENERATORS = {"sweep-lowdim": _lowdim, "sweep-highdim": _highdim,
             "shift-fronts": _shift}


def systems(workload: str, seed: int) -> list:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _GENERATORS[workload](rng)


def write_workload(workload: str, seed: int, directory: str):
    """Write the workload's system files; return (specs, jobs)."""
    os.makedirs(directory, exist_ok=True)
    specs = systems(workload, seed)
    seeds = np.random.default_rng([seed, WORKLOADS.index(workload), 1])
    jobs = []
    for spec in specs:
        path = os.path.join(directory, f"{spec.name}.system")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(spec.text)
        for check in spec.checks:
            units = spec.units_per_job if check == "shift" else spec.samples
            jobs.append(Job(spec.name, path, check, spec.samples,
                            int(seeds.integers(0, 2**31)), units,
                            expected_pass(spec.role, check)))
    return specs, jobs
