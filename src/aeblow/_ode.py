"""Explicit Runge-Kutta integration of y' = f(t, y) with step-size control.

One embedded pair, DOP853: order 8 with a 7th-degree dense output (Hairer,
Norsett & Wanner 1993, Sec. II.5-II.6).  On its stepper sit two solutions,
both read off the steps' pieces by one rule, at a breakpoint the piece that
ends there: Dense, stepped on demand from t = 0 for array and float
queries, and solve, sampled at given times in the direction of its span.
Both raise IntegrationError on a failed step.

Every number is scipy.integrate's, bit for bit: each operation repeats
scipy's (solve_ivp, OdeSolution, the DOP853 solver and its dense output) in
scipy's order, on arrays of scipy's shapes and layouts, so the same BLAS
calls see the same operands; tests/test_ode.py checks it against scipy.
What is left out is scipy's per-step bookkeeping.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from types import SimpleNamespace

import numpy as np

from .errors import IntegrationError

EPS = float(np.finfo(float).eps)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_ORDER = 7              # of DOP853's embedded error estimate
_EXPONENT = -1 / (ERROR_ORDER + 1)


# -- tableaux ------------------------------------------------------------------

def _dop853():
    """DOP853's 12 stages, the 13th (f at the new point) and the dense
    output's 3 extra stages, as rows {column: a}."""
    c = np.array([
        0.0, 0.526001519587677318785587544488e-01,
        0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
        0.281649658092772603273242802490, 0.333333333333333333333333333333,
        0.25, 0.307692307692307692307692307692,
        0.651282051282051282051282051282, 0.6,
        0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
        0.777777777777777777777777777778])
    a = np.zeros((16, 16))
    for i, row in {
        1: {0: 5.26001519587677318785587544488e-2},
        2: {0: 1.97250569845378994544595329183e-2,
            1: 5.91751709536136983633785987549e-2},
        3: {0: 2.95875854768068491816892993775e-2,
            2: 8.87627564304205475450678981324e-2},
        4: {0: 2.41365134159266685502369798665e-1,
            2: -8.84549479328286085344864962717e-1,
            3: 9.24834003261792003115737966543e-1},
        5: {0: 3.7037037037037037037037037037e-2,
            3: 1.70828608729473871279604482173e-1,
            4: 1.25467687566822425016691814123e-1},
        6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
            4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
        7: {0: 3.70920001185047927108779319836e-2,
            3: 1.70383925712239993810214054705e-1,
            4: 1.07262030446373284651809199168e-1,
            5: -1.53194377486244017527936158236e-2,
            6: 8.27378916381402288758473766002e-3},
        8: {0: 6.24110958716075717114429577812e-1,
            3: -3.36089262944694129406857109825,
            4: -8.68219346841726006818189891453e-1,
            5: 2.75920996994467083049415600797e1,
            6: 2.01540675504778934086186788979e1,
            7: -4.34898841810699588477366255144e1},
        9: {0: 4.77662536438264365890433908527e-1,
            3: -2.48811461997166764192642586468,
            4: -5.90290826836842996371446475743e-1,
            5: 2.12300514481811942347288949897e1,
            6: 1.52792336328824235832596922938e1,
            7: -3.32882109689848629194453265587e1,
            8: -2.03312017085086261358222928593e-2},
        10: {0: -9.3714243008598732571704021658e-1,
             3: 5.18637242884406370830023853209,
             4: 1.09143734899672957818500254654,
             5: -8.14978701074692612513997267357,
             6: -1.85200656599969598641566180701e1,
             7: 2.27394870993505042818970056734e1,
             8: 2.49360555267965238987089396762,
             9: -3.0467644718982195003823669022},
        11: {0: 2.27331014751653820792359768449,
             3: -1.05344954667372501984066689879e1,
             4: -2.00087205822486249909675718444,
             5: -1.79589318631187989172765950534e1,
             6: 2.79488845294199600508499808837e1,
             7: -2.85899827713502369474065508674,
             8: -8.87285693353062954433549289258,
             9: 1.23605671757943030647266201528e1,
             10: 6.43392746015763530355970484046e-1},
        12: {0: 5.42937341165687622380535766363e-2,
             5: 4.45031289275240888144113950566,
             6: 1.89151789931450038304281599044,
             7: -5.8012039600105847814672114227,
             8: 3.1116436695781989440891606237e-1,
             9: -1.52160949662516078556178806805e-1,
             10: 2.01365400804030348374776537501e-1,
             11: 4.47106157277725905176885569043e-2},
        13: {0: 5.61675022830479523392909219681e-2,
             6: 2.53500210216624811088794765333e-1,
             7: -2.46239037470802489917441475441e-1,
             8: -1.24191423263816360469010140626e-1,
             9: 1.5329179827876569731206322685e-1,
             10: 8.20105229563468988491666602057e-3,
             11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
        14: {0: 3.18346481635021405060768473261e-2,
             5: 2.83009096723667755288322961402e-2,
             6: 5.35419883074385676223797384372e-2,
             7: -5.49237485713909884646569340306e-2,
             10: -1.08347328697249322858509316994e-4,
             11: 3.82571090835658412954920192323e-4,
             12: -3.40465008687404560802977114492e-4,
             13: 1.41312443674632500278074618366e-1},
        15: {0: -4.28896301583791923408573538692e-1,
             5: -4.69762141536116384314449447206,
             6: 7.68342119606259904184240953878,
             7: 4.06898981839711007970213554331,
             8: 3.56727187455281109270669543021e-1,
             12: -1.39902416515901462129418009734e-3,
             13: 2.9475147891527723389556272149,
             14: -9.15095847217987001081870187138},
    }.items():
        a[i, list(row)] = list(row.values())
    b = a[12, :12]
    e3 = np.zeros(13)
    e3[:-1] = b
    e3[[0, 8, 11]] -= [0.244094488188976377952755905512,
                       0.733846688281611857341361741547,
                       0.220588235294117647058823529412e-1]
    e5 = np.zeros(13)
    e5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
        0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
        -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
        -0.3503288487499736816886487290, 0.3341791187130174790297318841,
        0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]
    # the dense output's F[3:] = h D K; F[:3] come from y, y_new, f and f_new
    d = np.zeros((4, 16))
    cols = [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
    d[0, cols] = [
        -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
        -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
        0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
        0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
        -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
        -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1]
    d[1, cols] = [
        0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
        0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
        -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
        -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
        0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
        -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2]
    d[2, cols] = [
        0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
        -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
        -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
        -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
        -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
        0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2]
    d[3, cols] = [
        -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
        -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
        0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
        0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
        -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
        -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3]
    return SimpleNamespace(
        n_stages=12, n_extended=16, A=a[:12, :12], B=b,
        C=c[:12], E3=e3, E5=e5, D=d, A_EXTRA=a[13:], C_EXTRA=c[13:])


TABLEAU = _dop853()


# -- dense output --------------------------------------------------------------

def _horner(t, stack, seg):
    """DOP853's interpolant at the 1-D times t, shape (n, len(t)).  stack
    holds the pieces' t_old, h, y_old and F along a leading axis, seg is the
    piece of each time; each pass gathers one coefficient row per time."""
    t_old, h, y_old, F = stack
    x = ((t - t_old[seg]) / h[seg])[:, None]
    y = np.zeros((len(x), F.shape[-1]))
    for i in range(F.shape[1]):
        y += F[seg, -1 - i]
        y *= x if i % 2 == 0 else 1 - x
    y += y_old[seg]
    return y.T


def _stacked(pieces):
    """The pieces' t_old, h, y_old and F, each stacked along a leading axis."""
    return tuple(np.array([getattr(q, name) for q in pieces])
                 for name in ("t_old", "h", "y_old", "F"))


class Piece:
    """DOP853's 7th-degree interpolant over the step from t_old to t."""

    def __init__(self, t_old, t, y_old, F):
        self.t_old, self.t, self.h = t_old, t, t - t_old
        self.y_old, self.F = y_old, F
        self._floats = None

    def at(self, t: float, row: int) -> float:
        """Component `row` of y at the float t: the operations of _horner on
        Python floats, so the same bits."""
        if self._floats is None:
            self._floats = (float(self.t_old), float(self.h),
                            self.y_old.tolist(), self.F[::-1].T.tolist())
        t_old, h, y_old, rows = self._floats
        f6, f5, f4, f3, f2, f1, f0 = rows[row]
        x = (t - t_old) / h
        u = 1 - x
        return ((((((((0.0 + f6) * x + f5) * u + f4) * x + f3) * u + f2) * x
                  + f1) * u + f0) * x + y_old[row])


# -- stepper -------------------------------------------------------------------

def _norm(x) -> float:
    """RMS norm."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


class Stepper:
    """Solves y' = fun(t, y) from (t0, y0) towards t_bound, one accepted step
    per call of step().  fun returns a sequence of len(y0) floats; atol is a
    float or one per component."""

    def __init__(self, fun, t0: float, y0, t_bound: float, rtol: float,
                 atol: float):
        self._fun = fun
        self.t, self.t_old, self.t_bound = t0, None, t_bound
        self.y = np.asarray(y0).astype(float, copy=False)
        self.direction = np.sign(t_bound - t0) if t_bound != t0 else 1
        self.rtol, self.atol = max(rtol, 100 * EPS), atol
        self.status = "running"
        self.f = self.fun(t0, self.y)
        self.h_abs = self._initial_step()
        K = self._K = np.empty((TABLEAU.n_extended, self.y.size))
        self.K = K[:TABLEAU.n_stages + 1]
        self._stages = [(s, K[:s].T, TABLEAU.A[s, :s], float(TABLEAU.C[s]))
                        for s in range(1, TABLEAU.n_stages)]

    def fun(self, t, y):
        return np.asarray(self._fun(t, y), dtype=float)

    def _initial_step(self) -> float:
        """Hairer, Norsett & Wanner's empirical first step (Sec. II.4)."""
        t0, y0, f0, direction = self.t, self.y, self.f, self.direction
        interval_length = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _norm(y0 / scale), _norm(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0 * direction, y0 + h0 * direction * f0)
        d2 = _norm((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / (ERROR_ORDER + 1))
        return min(100 * h0, h1, interval_length)

    def _error_norm(self, h, scale) -> float:
        KT = self.K.T
        err5 = np.dot(KT, TABLEAU.E5) / scale
        err3 = np.dot(KT, TABLEAU.E3) / scale
        err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
        err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return abs(h) * err5_norm_2 / math.sqrt(denom * len(scale))

    def step(self) -> str | None:
        """Take one accepted step; on a step size below the spacing of the
        floats at t, set status "failed" and return why."""
        t, y, fun, K = self.t, self.y, self._fun, self.K
        direction, t_bound = self.direction, self.t_bound
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return TOO_SMALL_STEP
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K[0] = self.f
            for s, KT, a, c in self._stages:
                K[s] = fun(t + c * h, y + np.dot(KT, a) * h)
            y_new = y + h * np.dot(K[:-1].T, TABLEAU.B)
            f_new = self.fun(t + h, y_new)
            K[-1] = f_new
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._error_norm(h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** _EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _EXPONENT)
            rejected = True
        self.h_previous, self.t_old, self.y_old = h, t, y
        self.t, self.y, self.h_abs, self.f = t_new, y_new, h_abs, f_new
        if direction * (t_new - t_bound) >= 0:
            self.status = "finished"
        return None

    def dense_output(self) -> Piece:
        """The last step's interpolant."""
        h, t_old, y_old = self.h_previous, self.t_old, self.y_old
        K = self._K
        for s, (a, c) in enumerate(zip(TABLEAU.A_EXTRA, TABLEAU.C_EXTRA),
                                   start=TABLEAU.n_stages + 1):
            K[s] = self._fun(t_old + c * h, y_old + np.dot(K[:s].T, a[:s]) * h)
        F = np.empty((7, self.y.size))
        f_old = K[0]
        delta_y = self.y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self.f + f_old)
        F[3:] = h * np.dot(TABLEAU.D, K)
        return Piece(t_old, self.t, y_old, F)


# -- solutions -----------------------------------------------------------------

class Dense:
    """The dense solution of y' = fun(t, y), y(0) = y0, for t >= 0, stepped
    on demand.

    A stepper with no end time, made at the first query, advances until it
    passes the latest query and keeps each step's piece between breakpoints
    ts, so its steps are the same whatever the queries.  At a breakpoint the
    piece that ends there is read.  A failed step raises IntegrationError
    naming what.
    """

    def __init__(self, fun, y0, rtol: float, atol: float, what: str):
        self.fun, self._y0, self._tols, self._what = fun, y0, (rtol, atol), what
        self.tmax = -math.inf           # no step taken yet
        self._stepper = self._stack = None
        self.ts, self.pieces = [0.0], []

    def _ensure(self, t: float):
        if self._stepper is None:
            self._stepper = Stepper(self.fun, 0.0, self._y0, math.inf,
                                    *self._tols)
        while self.tmax < t:
            message = self._stepper.step()
            if message is not None:
                raise IntegrationError(f"{self._what} failed: {message}")
            self.tmax = float(self._stepper.t)
            self.ts.append(self.tmax)
            self.pieces.append(self._stepper.dense_output())

    def __call__(self, t, row: int = 0):
        """Component `row` of y at t: a float for a float or 0-d t, else an
        array over the 1-D t."""
        if isinstance(t, float) or not np.ndim(t):
            return self.at(float(t), row)
        self._ensure(np.max(t))
        if self._stack is None or len(self._stack[0]) < len(self.pieces):
            self._stack = _stacked(self.pieces)
        seg = np.maximum(np.searchsorted(self._stack[0], t) - 1, 0)
        return _horner(t, self._stack, seg)[row]

    def at(self, t: float, row: int = 0) -> float:
        """Component `row` of y at the float t, its piece evaluated in
        floats."""
        if self.tmax < t:
            self._ensure(t)
        return self.pieces[bisect_left(self.ts, t, 1) - 1].at(t, row)


def solve(fun, t_span, y0, rtol: float, atol: float, t_eval, what: str):
    """y' = fun(t, y) over t_span from y0, sampled at t_eval (ordered in the
    direction of t_span, inside it): shape (len(y0), len(t_eval)).

    A sample is read off the piece of the first step that reaches it, so at
    a breakpoint the piece that ends there.  Only those pieces are kept, and
    every sample is evaluated once, at the end.  A failed step raises
    IntegrationError naming what.
    """
    t0, tf = map(float, t_span)
    stepper = Stepper(fun, t0, y0, tf, rtol, atol)
    t_eval = np.asarray(t_eval, dtype=float)
    direction = stepper.direction
    keys = (direction * t_eval).tolist()     # ascending
    pieces, counts, done = [], [], 0
    while stepper.status == "running":
        message = stepper.step()
        if message is not None:
            raise IntegrationError(f"{what} failed: {message}")
        reached = bisect_right(keys, direction * stepper.t)
        if reached > done:
            pieces.append(stepper.dense_output())
            counts.append(reached - done)
            done = reached
    return _horner(t_eval, _stacked(pieces),
                   np.repeat(np.arange(len(pieces)), counts))
