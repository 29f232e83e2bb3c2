"""The benchmark's reference for machine speed.

`kernel_seconds()` times a fixed integration of a damped pendulum with
scipy's `solve_ivp` and a Python right-hand side: interpreter work,
small numpy arrays and scipy's stepping, the mix of work the program
does. It belongs to the benchmark, so no change to the program moves
it; its time follows the speed the machine gives the process at the
moment. A time measured next to it is reported at the reference speed
as `time * CALIBRATION_S / kernel time`.

Over ten seeds of sweep-lowdim and of shift-fronts (a noisy phase, raw
spreads 0.09 to 0.26), this kernel left quartile spreads of 0.03 to
0.06 in points_per_s, job_s.p50 and job_s.p90. A walk of an expression
tree over a dict of floats, which follows pure interpreter speed only,
left up to 0.10 on shift-fronts, whose jobs slow less than the
interpreter does in a slow phase.
"""

import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

# About the mean time of the kernel run back to back in the fast phases
# of the 2-core Xeon the baseline was taken on.
CALIBRATION_S = 4.0e-4


def _pendulum(t, y):
    return np.array([y[1], -np.sin(y[0]) - 0.1 * y[1] * y[1]])


def kernel():
    return solve_ivp(_pendulum, (0.0, 2.0), [0.5, 0.1], rtol=1e-6).y[0, -1]


def kernel_seconds():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed(kernel_times):
    """CALIBRATION_S over the mean of `kernel_times`: below 1 when the
    machine ran slower than the reference.

    The mean, not the median: a slow phase shows as a share of kernels
    that run much slower, and a timed call pays that share on average.
    Over 48 passes of sweep-lowdim, log pass time against log kernel
    time had slope 0.98 with the mean and 0.63 with the median (with
    the expression-tree kernel)."""
    return CALIBRATION_S / statistics.fmean(kernel_times)
