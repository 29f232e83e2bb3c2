"""The explicit Runge-Kutta pair DOP853 of Dormand and Prince, order 8
with error estimators of orders 5 and 3, and its dense output of order 7.

solve follows the path that scipy's
solve_ivp(fun, (t0, tf), y0, method="DOP853", rtol=rtol, atol=atol,
t_eval=t_eval) takes for t0 < tf, a float state, scalar tolerances and
an increasing t_eval in [t0, tf]. It performs scipy's numpy operations
in scipy's order, so it gives scipy's bits, and it leaves out the
solver, solution and dense-output objects, the conversion of each
right-hand-side value and the checks of t_eval. The tableau is that of
Hairer's dop853.f, each coefficient written as the shortest decimal of
its double.

E. Hairer, S. P. Norsett and G. Wanner, Solving Ordinary Differential
Equations I: Nonstiff Problems (2nd ed., Springer 1993), II.4-II.6.
J. R. Dormand and P. J. Prince, "A family of embedded Runge-Kutta
formulae", J. Comput. Appl. Math. 6(1), 1980.

Ported from scipy/integrate/_ivp (rk.py, common.py, ivp.py and
dop853_coefficients.py), under this notice:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from typing import NamedTuple

import numpy as np

# The nodes C and the rows of A of the 12 stages of a step, the weights
# B (A's row 12, whose node is the step's end) and the three extra
# stages 13-15 of the dense output; E5 and E3 weigh the 13 stages of a
# step for the error estimators, D the 16 stages for the interpolant
C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
A = np.zeros((16, 16))
for _s, _row in enumerate([
        [0.05260015195876773],
        [0.0197250569845379, 0.0591751709536137],
        [0.02958758547680685, 0, 0.08876275643042054],
        [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
        [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
        [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
         -0.017578125],
        [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023],
        [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996],
        [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486,
         -0.020331201708508627],
        [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505,
         2.4936055526796523, -3.0467644718982196],
        [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235,
         -8.87285693353063, 12.360567175794303, 0.6433927460157636],
        [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
         1.8915178993145003, -5.801203960010585, 0.3111643669578199,
         -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
        [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
         -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
         0.00820105229563469, 0.007567897660545699, -0.008298],
        [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
         0.053541988307438566, -0.05492374857139099, 0, 0,
         -0.00010834732869724932, 0.0003825710908356584,
         -0.00034046500868740456, 0.1413124436746325],
        [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164,
         7.683421196062599, 4.06898981839711, 0.3567271874552811, 0, 0, 0,
         -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
        ], start=1):
    A[_s, :_s] = _row
B = A[12, :12]
E3 = np.zeros(13)
E3[:-1] = B
E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294, 0])
D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564]])

# (stage, row of A up to it, node) of stages 1-11 and of the extra ones
STAGES = [(s, A[s, :s], C[s]) for s in range(1, 12)]
EXTRA = [(s, A[s, :s], C[s]) for s in range(13, 16)]
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_EXPONENT = -1 / 8             # -1 / (error estimator order + 1)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
REACHED = "The solver successfully reached the end of the integration interval."


class Solution(NamedTuple):
    """y (len(t_eval), state) holds the state at the output times, the
    rows reached before a failure if success is false. The right-hand
    side ran nfev times: twice to start, 12 times for each accepted or
    rejected step and dense_calls times for the dense output's extra
    stages, 3 at each step that holds output times."""
    y: np.ndarray
    success: bool
    message: str
    nfev: int
    accepted: int
    rejected: int
    dense_calls: int


def solve(fun, t_span, y0, t_eval, rtol, atol):
    """Integrate y' = fun(t, y) from y(t0) = y0 (a float vector) over
    t_span = (t0, tf), t0 < tf, with scalar tolerances, and give the
    state at t_eval, increasing in [t0, tf]. fun's value is used as it
    is returned, a float array of y's shape."""
    t, t_bound = map(float, t_span)
    y, out = y0, np.empty((len(t_eval), y0.size))
    K = np.empty((16, y0.size))
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, t_bound, f, rtol, atol)
    done = accepted = rejected = dense = 0
    message = None
    while message is None:
        t_new, y_new, f_new, h_abs, tries = _step(
            fun, t, y, f, h_abs, t_bound, rtol, atol, K)
        rejected += tries
        if t_new is None:
            message = TOO_SMALL_STEP
            break
        accepted += 1
        # the output times up to t_new, t_new included
        end = np.searchsorted(t_eval, t_new, side="right")
        if end > done:
            out[done:end] = _dense_output(fun, K, t, t_new, y, y_new, f_new,
                                          t_eval[done:end])
            dense += 1
            done = end
        t, y, f = t_new, y_new, f_new
        if t >= t_bound:
            message = REACHED
    return Solution(out[:done], message is REACHED, message,
                    2 + 12 * (accepted + rejected) + 3 * dense, accepted,
                    rejected, 3 * dense)


def _norm(x):
    """The RMS norm."""
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """The first step size, from one more call of fun (Hairer, Norsett &
    Wanner II.4), for an error estimator of order 7 and no largest
    step."""
    interval_length = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _step(fun, t, y, f, h_abs, t_bound, rtol, atol, K):
    """One step from (t, y), where f = fun(t, y), trying h_abs first and
    a smaller size after each rejected trial; the accepted trial's 13
    stages stay in K. Returns (t_new, y_new, f_new, the next step's
    h_abs, the rejected trials), t_new None once the step would fall
    below ten spacings of floats at t."""
    min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
    if h_abs < min_step:
        h_abs = min_step
    tries = 0
    while True:
        if h_abs < min_step:
            return None, None, None, h_abs, tries
        t_new = t + h_abs
        if t_new > t_bound:
            t_new = t_bound
        h = t_new - t
        h_abs = np.abs(h)

        K[0] = f
        for s, a, c in STAGES:
            dy = np.dot(K[:s].T, a) * h
            K[s] = fun(t + c * h, y + dy)
        y_new = y + h * np.dot(K[:12].T, B)
        f_new = fun(t + h, y_new)
        K[12] = f_new

        # the error norm of the 5th-order estimator, corrected by the 3rd
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5 = np.dot(K[:13].T, E5) / scale
        err3 = np.dot(K[:13].T, E3) / scale
        err5_norm_2 = np.linalg.norm(err5)**2
        err3_norm_2 = np.linalg.norm(err3)**2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            error_norm = 0.0
        else:
            denom = err5_norm_2 + 0.01 * err3_norm_2
            error_norm = h_abs * err5_norm_2 / np.sqrt(denom * len(scale))

        if error_norm < 1:
            if error_norm == 0:
                factor = MAX_FACTOR
            else:
                factor = min(MAX_FACTOR,
                             SAFETY * error_norm ** ERROR_EXPONENT)
            if tries:
                factor = min(1, factor)
            return t_new, y_new, f_new, h_abs * factor, tries
        h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        tries += 1


def _dense_output(fun, K, t_old, t, y_old, y, f, times):
    """The state (len(times), n) at times in [t_old, t] from the step
    (t_old, y_old) -> (t, y), f = fun(t, y), whose stages K holds: three
    more stages, then the interpolant's seven coefficient rows F, summed
    in x = (times - t_old) / h as scipy's Dop853DenseOutput sums them."""
    h = t - t_old
    for s, a, c in EXTRA:
        dy = np.dot(K[:s].T, a) * h
        K[s] = fun(t_old + c * h, y_old + dy)
    F = np.empty((7, y_old.size))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K)

    x = ((times - t_old) / h)[:, None]
    out = np.zeros((len(x), y_old.size))
    for i, row in enumerate(reversed(F)):
        out += row
        if i % 2 == 0:
            out *= x
        else:
            out *= 1 - x
    out += y_old
    return out
