/* One outward DOP853 shot of gslab.ode.integrate: the series start, the step
 * loop and the refinement of its terminal event (dop853_loop), and the dense
 * pass of a run with quadrature (dop853_dense), written line by line like the
 * Python reference, tests/dop853_reference.py (its _start, integrate, _refine
 * and numpy dense pass; the names in the comments below are its own).  A
 * third entry point, admissible_window, finds the window [u_F0, u_hi] that
 * every amplitude search of the eps families starts from
 * (shooting._f_positive_roots), written like its Python reference,
 * tests/window_reference.py: three Brent loops on f and F.
 *
 * Every float operation is the one Python performs, in its order: written
 * sums run left to right, and so does every dot product of the interpolant
 * (dot, _dot) and every sum over nodes, max and min pick the branches
 * Python's max and min pick, ints meet floats as Python converts them, **
 * is CPython's float_pow (py_pow below, the same libm pow with the same
 * error cases), and np.float_power is libm's pow.  Compiled with
 * -ffp-contract=off and without -ffast-math, the two give the same bits;
 * tests/test_kernel.py checks them on every call of the benchmark's and the
 * golden solves, tests/test_roots.py the window on every window of the
 * benchmark and on random draws.  Where Python's ** or / raises (a power out
 * of range, 0.0 ** negative, a division by zero), the kernel stops there
 * with its one arithmetic stop, STOP_ARITH, whatever Python would raise;
 * ode reports it as the solver's own error.
 *
 * The caller passes the tableau (ode._C, _A, _B, _E5, _E3, the dense
 * output's _EXTRA and _D_DENSE and the quadrature's nodes and weights,
 * packed by ode._TABLEAU), the shot's constants, the state and the
 * counters, and owns every buffer: the grid (radii, values and slopes, cap
 * points each), with quadrature the stage buffer (16 doubles per accepted
 * step: h, u' at the stages 6-12, u'' at the stages 6-13), and the dense
 * pass's output and node rows.  The first call of dop853_loop (no grid
 * point yet) computes the series start; the shot returns at a terminal
 * event (refined on the dense output where it is one), a failure (the
 * budget, a collapsed step or the arithmetic stop), or a full grid
 * (STOP_ROOM: the state is saved at the top of a step, so the caller grows
 * the grid and calls again).  The caller checks r_max and the amplitude
 * before the first call.  dop853_dense then reads the grid, the stages and
 * the state the loop left.
 */
#include <errno.h>
#include <math.h>
#include <stdint.h>

enum {
    STOP_ROOM = 0,        /* the grid is full: grow it and call again */
    STOP_RMAX = 1,        /* the clipped step reached r_max */
    STOP_SETTLED = 2,     /* an algebraic run's far-field B has settled */
    STOP_ZERO = 3,        /* u crossed zero: refined on u at level 0 */
    STOP_SLOPE = 4,       /* u' turned positive: refined on u' at level 0 */
    STOP_UNDERFLOW = 5,   /* u fell below the floor: refined on u at the floor */
    STOP_BUDGET = 6,      /* the step budget is spent */
    STOP_COLLAPSE = 7,    /* the step size collapsed */
    STOP_ARITH = 8,       /* a ** or / where Python raises */
    /* admissible_window's own: */
    WINDOW_NO_ROOTS = 9,  /* g <= 0 at its peak */
    WINDOW_NO_ZERO = 10,  /* F <= 0 at the largest root of f */
    WINDOW_NO_SIGN = 11,  /* a bracket without a sign change */
    WINDOW_OPEN = 12,     /* a root loop that did not close */
};

/* prm: the shot's constants */
enum { P_N1, P_LIN, P_QC, P_PM2, P_QM2, P_P, P_Q, P_N, P_A, P_RMAX, P_UNDERFLOW,
       P_ATOL, P_RTOL, P_MIN_STEP, P_SETTLE_G, P_SETTLE_MARGIN, P_EVENT_TOL, P_COUNT };
/* st: the loop state r, u, v, k1 (u'' at r) and h; (u, u') at the end of
 * the step a refined event moved; u'' at the hand-off radius; the settled
 * stop's a/2 (0: off), N-2 and _SETTLE_MARGIN D / (u g); then the series
 * coefficients c_0..c_K */
enum { S_R, S_U, S_V, S_K1, S_H, S_UEND, S_VEND, S_K10, S_HALF, S_N2, S_DRIFT, S_COEFFS };
/* cnt: grid points, RHS evaluations, steps, the step budget, quadrature on,
 * the number of series coefficients (K + 1, at least 2) and the trial steps
 * a power overflow shrank */
enum { C_N, C_NFEV, C_STEPS, C_MAX_STEPS, C_QUAD, C_NCOEF, C_OVERFLOWS, C_COUNT };
/* tab: C (16), A (16 rows of 16, row i holding A[i][0..i-1]), B (12),
 * E5 (13), E3 (13), then the dense output: the extra stages' nodes (3) and
 * rows (9, 10 and 11 entries, on the dense stages), and D (4 rows of 12);
 * then the dense pass's fractions of a step (ode._FRACS: the SUB - 1
 * interior grid points, then the NODES Gauss nodes of each of the SUB
 * sub-intervals), their Gauss weights over SUB (ode._GW_SUB), and the
 * series piece's BALL Gauss nodes and weights on [0, 1] (ode._BALL_X,
 * _BALL_W) */
#define TC(i) tab[(i) - 1]
#define TA(i, j) tab[16 + 16 * ((i) - 1) + (j) - 1]
#define TB(j) tab[272 + (j) - 1]
#define TE5(j) tab[284 + (j) - 1]
#define TE3(j) tab[297 + (j) - 1]
#define T_XC 310
#define T_XROWS 313
#define T_D 343
#define T_FRACS 391
#define T_GW 405
#define T_BALL_X 409
#define T_BALL_W 419
enum { SUB = 3, NODES = 4, BALL = 10 };

enum { POW_OK, POW_OVERFLOW, POW_FAILED };

/* x ** y as CPython's float_pow computes it, for x >= 0, -0.0 or NaN (every
 * base here is an absolute value or positive): its special cases, then
 * libm's pow with errno read as _Py_ADJUST_ERANGE1 reads it.  POW_OVERFLOW
 * is where ** raises OverflowError, POW_FAILED where it raises
 * ZeroDivisionError (0.0 ** negative) or ValueError. */
static int py_pow(double x, double y, double *out)
{
    if (y == 0.0) {
        *out = 1.0;
        return POW_OK;
    }
    if (isnan(x)) {
        *out = x;
        return POW_OK;
    }
    if (isnan(y)) {
        *out = x == 1.0 ? 1.0 : y;
        return POW_OK;
    }
    if (isinf(y)) {
        x = fabs(x);
        *out = x == 1.0 ? 1.0 : ((y > 0.0) == (x > 1.0) ? fabs(y) : 0.0);
        return POW_OK;
    }
    if (isinf(x)) {
        *out = y > 0.0 ? x : 0.0;
        return POW_OK;
    }
    if (x == 0.0) {
        if (y < 0.0)
            return POW_FAILED;
        *out = fmod(fabs(y), 2.0) == 1.0 ? x : 0.0;
        return POW_OK;
    }
    if (x == 1.0) {
        *out = 1.0;
        return POW_OK;
    }
    errno = 0;
    *out = pow(x, y);
    if (errno == 0) {
        if (isinf(*out))
            errno = ERANGE;
    }
    else if (errno == ERANGE && *out == 0.0)
        errno = 0;
    if (errno != 0)
        return errno == ERANGE ? POW_OVERFLOW : POW_FAILED;
    return POW_OK;
}

/* py_pow on the RHS's powers: libm's pow straight away where the base is
 * positive, finite and not 1 and the result is normal (pow then sets no
 * errno, so py_pow would return the same value), else py_pow itself */
static inline int rhs_pow(double x, double y, double *out)
{
    if (x > 0.0 && x < HUGE_VAL && x != 1.0) {
        *out = pow(x, y);
        if (isnormal(*out))
            return POW_OK;
    }
    return py_pow(x, y, out);
}

/* sum(row[j] * k[j]) over j < n, left to right from 0.0 (_dot) */
static double dot(const double *row, const double *k, int n)
{
    double s = 0.0;
    int i;

    for (i = 0; i < n; i++)
        s += row[i] * k[i];
    return s;
}

/* _start, into st: the series coefficients (ode.series_coefficients),
 * the hand-off radius r0 (ode.default_handoff_radius), (u, u', u'') there
 * (ode.series_piece), the first step, and the settled stop's constants
 * where it is on.  Returns 0, or STOP_ARITH where _start raises. */
static int series_start(const double *prm, int ncoef, int quad, double *st)
{
    const double N = prm[P_N], p = prm[P_P], q = prm[P_Q], a = prm[P_A], r_max = prm[P_RMAX];
    const double lin = prm[P_LIN], qc = prm[P_QC], pm2 = prm[P_PM2], qm2 = prm[P_QM2];
    double *coef = st + S_COEFFS, wp[ncoef], wq[ncoef];
    double x, y, growth = 0.0, r0, u, v, du, h;
    int n, j, k;

    /* c_0, c_1 = -f(a) / (2N), and the powers a^(p-1), a^(q-1) */
    if (py_pow(a, pm2, &x) || py_pow(a, qm2, &y))
        return STOP_ARITH;
    coef[0] = a;
    coef[1] = -(a * x - qc * a * y - lin * a) / (2.0 * N);
    if (py_pow(a, p - 1.0, &wp[0]) || py_pow(a, q - 1.0, &wq[0]))
        return STOP_ARITH;
    for (n = 1; n < ncoef - 1; n++) {
        double sp = 0.0, sq = 0.0, na = (double)n * a;
        for (j = 1; j <= n; j++) {
            sp += (p * (double)j - (double)n) * coef[j] * wp[n - j];
            sq += (q * (double)j - (double)n) * coef[j] * wq[n - j];
        }
        if (na == 0.0)
            return STOP_ARITH;
        wp[n] = sp / na;
        wq[n] = sq / na;
        coef[n + 1] = (qc * wq[n] + lin * coef[n] - wp[n])
                      / (2.0 * (double)(n + 1) * (double)(2 * n + (int64_t)N));
    }

    /* r0: growth = max |c_k / a|^(1/k), r0 = min(1e-3 r_max, (1e-16^(1/(K+1)) / growth)^0.5) */
    for (k = 1; k < ncoef; k++) {
        if (py_pow(fabs(coef[k] / a), 1.0 / (double)k, &x))
            return STOP_ARITH;
        if (k == 1 || x > growth)
            growth = x;
    }
    r0 = 1e-3 * r_max;
    if (growth > 0.0) {
        if (py_pow(1e-16, 1.0 / (double)ncoef, &x) || py_pow(x / growth, 0.5, &y))
            return STOP_ARITH;
        if (y < r0)
            r0 = y;
    }

    /* the series piece at r0 */
    x = r0 * r0;
    u = coef[ncoef - 1];
    du = 0.0;
    for (k = ncoef - 1; k > 0; k--) {
        du = du * x + 2.0 * (double)k * coef[k];
        u = u * x + coef[k - 1];
    }
    v = du * r0;
    st[S_R] = r0;
    st[S_U] = u;
    st[S_V] = v;
    if (py_pow(fabs(u), pm2, &x) || py_pow(fabs(u), qm2, &y) || r0 == 0.0)
        return STOP_ARITH;
    st[S_K1] = st[S_K10] = u * (lin - x + qc * y) - prm[P_N1] / r0 * v;

    /* a conservative first step; the controller grows it by up to 10x per step */
    h = 0.05 * r0 > 1e-6 ? 0.05 * r0 : 1e-6;
    x = 0.5 * (r_max - r0);
    st[S_H] = x < h ? x : h;

    /* an algebraic run without quadrature ends where B has settled */
    st[S_HALF] = 0.0;
    if (lin == 0.0 && !quad) {
        const double n2 = N - 2.0, den = n2 * (n2 * (p - 1.0) - 2.0);
        if (den == 0.0)
            return STOP_ARITH;
        st[S_HALF] = 0.5 * a;
        st[S_N2] = n2;
        st[S_DRIFT] = prm[P_SETTLE_MARGIN] * (1.0 / den);
    }
    return 0;
}

/* y0 plus the interpolant with coefficients f[0..6] at the fraction x of
 * its step (_dense_eval) */
static double dense_eval(double y0, const double *f, double x)
{
    const double y = 1.0 - x;
    return y0 + x * (f[0] + y * (f[1] + x * (f[2] + y * (f[3] + x * (f[4] + y * (
        f[5] + x * f[6]))))));
}

/* _dense_coefficients: the seventh-order interpolant of the step [r,
 * r + h] from (u, u') = (u, v) to (u1, v1), its coefficients F0-F6 for u
 * into fu and for u' into fv.  ku and kv hold u' and u'' at the 12 dense
 * stages, the step's own nine set; this sets the three extra ones.  strict:
 * the powers are ** and a division by zero raises, as on the floats of
 * _refine (returns 0, or STOP_ARITH where those raise); else they are
 * np.float_power and IEEE division, as on the arrays of the reference's
 * dense pass (returns 0). */
static int interpolant(const double *tab, const double *prm, int strict, double r, double h,
                       double u, double v, double u1, double v1, double *ku, double *kv,
                       double *fu, double *fv)
{
    const double N1 = prm[P_N1], lin = prm[P_LIN], qc = prm[P_QC];
    const double pm2 = prm[P_PM2], qm2 = prm[P_QM2];
    const double *row = tab + T_XROWS;
    int m, i;

    for (m = 0; m < 3; m++) {
        const int len = 9 + m;
        const double us = u + h * dot(row, ku, len);
        const double vs = v + h * dot(row, kv, len);
        const double au = fabs(us), rr = r + tab[T_XC + m] * h;
        double pp, qq;
        ku[9 + m] = vs;
        if (!strict) {
            pp = pow(au, pm2);
            qq = pow(au, qm2);
        }
        else if (py_pow(au, pm2, &pp) || py_pow(au, qm2, &qq) || rr == 0.0)
            return STOP_ARITH;
        kv[9 + m] = us * (lin - pp + qc * qq) - N1 / rr * vs;
        row += len;
    }
    for (m = 0; m < 2; m++) {
        const double y = m ? v : u, dy = (m ? v1 : u1) - y, *k = m ? kv : ku;
        double *c = m ? fv : fu;
        c[0] = dy;
        c[1] = h * k[0] - dy;
        c[2] = 2.0 * dy - h * (k[8] + k[0]);
        for (i = 0; i < 4; i++)
            c[3 + i] = h * dot(tab + T_D + 12 * i, k, 12);
    }
    return 0;
}

/* _refine: the event of the step [r, r1] from (u, v) to (u1, v1),
 * refined on its seventh-order dense output (interpolant, with ku and kv as
 * it takes them): bisects the interpolant of u (or of u' for SlopeSignFlip)
 * to the event tolerance (_bisect_event) and writes the event's (r, u,
 * u') to out.  Returns 0, or STOP_ARITH where _refine raises. */
static int refine(const double *tab, const double *prm, int event,
                  double floor_, double r, double h, double u, double v, double u1, double v1,
                  double r1, double *ku, double *kv, double *out)
{
    double fu[7], fv[7], lo = r, hi = r1, level, etol, y0, x;
    const double *f;
    int it, below, code;

    if ((code = interpolant(tab, prm, 1, r, h, u, v, u1, v1, ku, kv, fu, fv)))
        return code;

    level = event == STOP_UNDERFLOW ? floor_ : 0.0;
    etol = prm[P_EVENT_TOL] * (r1 > 1.0 ? r1 : 1.0);
    y0 = event == STOP_SLOPE ? v : u;
    f = event == STOP_SLOPE ? fv : fu;
    if (h == 0.0)
        return STOP_ARITH;
    below = dense_eval(y0, f, (lo - r) / h) - level <= 0.0;
    for (it = 0; it < 200; it++) {
        double mid;
        if (hi - lo <= etol)
            break;
        mid = 0.5 * (lo + hi);
        if ((dense_eval(y0, f, (mid - r) / h) - level <= 0.0) == below)
            lo = mid;
        else
            hi = mid;
    }
    x = (hi - r) / h;
    out[0] = hi;
    out[1] = dense_eval(u, fu, x);
    out[2] = dense_eval(v, fv, x);
    return 0;
}

/* k = u'' at the stage state (us, vs) and radius rr:
 * us (lin - |us|^(p-2) + qc |us|^(q-2)) - N1 / rr * vs */
#define RHS(k, us, vs, rr)                                                   \
    do {                                                                     \
        double au_ = (us) > 0.0 ? (us) : -(us), pp_, qq_, rr_;              \
        if ((pc = rhs_pow(au_, pm2, &pp_)) || (pc = rhs_pow(au_, qm2, &qq_))) \
            goto bad_pow;                                                    \
        rr_ = (rr);                                                          \
        if (rr_ == 0.0)                                                      \
            goto arith;                                                      \
        k = (us) * (lin - pp_ + qc * qq_) - N1 / rr_ * (vs);                 \
    } while (0)

int dop853_loop(const double *tab, const double *prm, double *st, int64_t *cnt,
                double *grid, int64_t cap, double *stages)
{
    const double N1 = prm[P_N1], lin = prm[P_LIN], qc = prm[P_QC];
    const double pm2 = prm[P_PM2], qm2 = prm[P_QM2];
    const double floor_ = prm[P_UNDERFLOW] * prm[P_A];
    const double atol = prm[P_ATOL], rtol = prm[P_RTOL], min_step = prm[P_MIN_STEP];
    const double r_max = prm[P_RMAX], settle_g = prm[P_SETTLE_G];
    const int64_t max_steps = cnt[C_MAX_STEPS];
    const int quad = cnt[C_QUAD] != 0;
    double *rs = grid, *us = grid + cap, *vs = grid + 2 * cap;
    double half, n2, drift;

    const double c2 = TC(2), c3 = TC(3), c4 = TC(4), c5 = TC(5), c6 = TC(6),
        c7 = TC(7), c8 = TC(8), c9 = TC(9), c10 = TC(10), c11 = TC(11);
    const double a2_1 = TA(2, 1), a3_1 = TA(3, 1), a3_2 = TA(3, 2),
        a4_1 = TA(4, 1), a4_3 = TA(4, 3),
        a5_1 = TA(5, 1), a5_3 = TA(5, 3), a5_4 = TA(5, 4),
        a6_1 = TA(6, 1), a6_4 = TA(6, 4), a6_5 = TA(6, 5),
        a7_1 = TA(7, 1), a7_4 = TA(7, 4), a7_5 = TA(7, 5), a7_6 = TA(7, 6),
        a8_1 = TA(8, 1), a8_4 = TA(8, 4), a8_5 = TA(8, 5), a8_6 = TA(8, 6),
        a8_7 = TA(8, 7),
        a9_1 = TA(9, 1), a9_4 = TA(9, 4), a9_5 = TA(9, 5), a9_6 = TA(9, 6),
        a9_7 = TA(9, 7), a9_8 = TA(9, 8),
        a10_1 = TA(10, 1), a10_4 = TA(10, 4), a10_5 = TA(10, 5), a10_6 = TA(10, 6),
        a10_7 = TA(10, 7), a10_8 = TA(10, 8), a10_9 = TA(10, 9),
        a11_1 = TA(11, 1), a11_4 = TA(11, 4), a11_5 = TA(11, 5), a11_6 = TA(11, 6),
        a11_7 = TA(11, 7), a11_8 = TA(11, 8), a11_9 = TA(11, 9), a11_10 = TA(11, 10),
        a12_1 = TA(12, 1), a12_4 = TA(12, 4), a12_5 = TA(12, 5), a12_6 = TA(12, 6),
        a12_7 = TA(12, 7), a12_8 = TA(12, 8), a12_9 = TA(12, 9), a12_10 = TA(12, 10),
        a12_11 = TA(12, 11);
    const double b1 = TB(1), b6 = TB(6), b7 = TB(7), b8 = TB(8), b9 = TB(9),
        b10 = TB(10), b11 = TB(11), b12 = TB(12);
    const double e5_1 = TE5(1), e5_6 = TE5(6), e5_7 = TE5(7), e5_8 = TE5(8),
        e5_9 = TE5(9), e5_10 = TE5(10), e5_11 = TE5(11), e5_12 = TE5(12);
    const double d1 = b1 - TE3(1), d9 = b9 - TE3(9), d12 = b12 - TE3(12);   /* B - E3 */

    double r, u, v, k1, h;
    int64_t n = cnt[C_N], nfev = cnt[C_NFEV], steps = cnt[C_STEPS];
    int64_t overflows = cnt[C_OVERFLOWS];
    int code, pc;

    if (n == 0) {   /* the first call: the start is the grid's first point */
        if ((code = series_start(prm, (int)cnt[C_NCOEF], quad, st)))
            return code;
        rs[0] = st[S_R];
        us[0] = st[S_U];
        vs[0] = st[S_V];
        n = nfev = 1;
    }
    r = st[S_R];
    u = st[S_U];
    v = st[S_V];
    k1 = st[S_K1];
    h = st[S_H];
    half = st[S_HALF];
    n2 = st[S_N2];
    drift = st[S_DRIFT];

    for (;;) {
        double hA, u2, v2, k2, u3, v3, k3, u4, v4, k4, u5, v5, k5, u6, v6, k6,
            u7, v7, k7, u8, v8, k8, u9, v9, k9, u10, v10, k10, u11, v11, k11,
            u12, v12, k12, su, sv, u_new, v_new, r_new, k13;
        double au, an, scale_u, scale_v, x, y, err5, den, err, fac;
        int clipped, event;

        if (n == cap) {
            code = STOP_ROOM;
            goto out;
        }
        steps += 1;
        if (steps > max_steps) {
            code = STOP_BUDGET;
            goto out;
        }
        if (h < min_step * (r > 1.0 ? r : 1.0)) {
            code = STOP_COLLAPSE;
            goto out;
        }
        clipped = r + h >= r_max;
        if (clipped)
            h = r_max - r;

        /* eleven fresh stages and the FSAL one (k1 is the last step's k13) */
        nfev += 12;
        hA = h * a2_1;
        u2 = u + hA * v;
        v2 = v + hA * k1;
        RHS(k2, u2, v2, r + c2 * h);
        u3 = u + h * (a3_1 * v + a3_2 * v2);
        v3 = v + h * (a3_1 * k1 + a3_2 * k2);
        RHS(k3, u3, v3, r + c3 * h);
        u4 = u + h * (a4_1 * v + a4_3 * v3);
        v4 = v + h * (a4_1 * k1 + a4_3 * k3);
        RHS(k4, u4, v4, r + c4 * h);
        u5 = u + h * (a5_1 * v + a5_3 * v3 + a5_4 * v4);
        v5 = v + h * (a5_1 * k1 + a5_3 * k3 + a5_4 * k4);
        RHS(k5, u5, v5, r + c5 * h);
        u6 = u + h * (a6_1 * v + a6_4 * v4 + a6_5 * v5);
        v6 = v + h * (a6_1 * k1 + a6_4 * k4 + a6_5 * k5);
        RHS(k6, u6, v6, r + c6 * h);
        u7 = u + h * (a7_1 * v + a7_4 * v4 + a7_5 * v5 + a7_6 * v6);
        v7 = v + h * (a7_1 * k1 + a7_4 * k4 + a7_5 * k5 + a7_6 * k6);
        RHS(k7, u7, v7, r + c7 * h);
        u8 = u + h * (a8_1 * v + a8_4 * v4 + a8_5 * v5 + a8_6 * v6 + a8_7 * v7);
        v8 = v + h * (a8_1 * k1 + a8_4 * k4 + a8_5 * k5 + a8_6 * k6 + a8_7 * k7);
        RHS(k8, u8, v8, r + c8 * h);
        u9 = u + h * (a9_1 * v + a9_4 * v4 + a9_5 * v5 + a9_6 * v6 + a9_7 * v7 + a9_8 * v8);
        v9 = v + h * (a9_1 * k1 + a9_4 * k4 + a9_5 * k5 + a9_6 * k6 + a9_7 * k7 + a9_8 * k8);
        RHS(k9, u9, v9, r + c9 * h);
        u10 = u + h * (a10_1 * v + a10_4 * v4 + a10_5 * v5 + a10_6 * v6 + a10_7 * v7
                       + a10_8 * v8 + a10_9 * v9);
        v10 = v + h * (a10_1 * k1 + a10_4 * k4 + a10_5 * k5 + a10_6 * k6 + a10_7 * k7
                       + a10_8 * k8 + a10_9 * k9);
        RHS(k10, u10, v10, r + c10 * h);
        u11 = u + h * (a11_1 * v + a11_4 * v4 + a11_5 * v5 + a11_6 * v6 + a11_7 * v7
                       + a11_8 * v8 + a11_9 * v9 + a11_10 * v10);
        v11 = v + h * (a11_1 * k1 + a11_4 * k4 + a11_5 * k5 + a11_6 * k6 + a11_7 * k7
                       + a11_8 * k8 + a11_9 * k9 + a11_10 * k10);
        RHS(k11, u11, v11, r + c11 * h);
        u12 = u + h * (a12_1 * v + a12_4 * v4 + a12_5 * v5 + a12_6 * v6 + a12_7 * v7
                       + a12_8 * v8 + a12_9 * v9 + a12_10 * v10 + a12_11 * v11);
        v12 = v + h * (a12_1 * k1 + a12_4 * k4 + a12_5 * k5 + a12_6 * k6 + a12_7 * k7
                       + a12_8 * k8 + a12_9 * k9 + a12_10 * k10 + a12_11 * k11);
        RHS(k12, u12, v12, r + h);
        su = (b1 * v + b6 * v6 + b7 * v7 + b8 * v8 + b9 * v9 + b10 * v10 + b11 * v11
              + b12 * v12);
        sv = (b1 * k1 + b6 * k6 + b7 * k7 + b8 * k8 + b9 * k9 + b10 * k10 + b11 * k11
              + b12 * k12);
        u_new = u + h * su;
        v_new = v + h * sv;
        r_new = clipped ? r_max : r + h;
        RHS(k13, u_new, v_new, r_new);

        /* the error norm of DOP853 (see the Python loop) */
        au = fabs(u);
        an = fabs(u_new);
        scale_u = atol + rtol * (an > au ? an : au);
        au = fabs(v);
        an = fabs(v_new);
        scale_v = atol + rtol * (an > au ? an : au);
        if (scale_u == 0.0 || scale_v == 0.0)
            goto arith;
        x = (e5_1 * v + e5_6 * v6 + e5_7 * v7 + e5_8 * v8 + e5_9 * v9 + e5_10 * v10
             + e5_11 * v11 + e5_12 * v12) / scale_u;
        y = (e5_1 * k1 + e5_6 * k6 + e5_7 * k7 + e5_8 * k8 + e5_9 * k9 + e5_10 * k10
             + e5_11 * k11 + e5_12 * k12) / scale_v;
        err5 = x * x + y * y;
        x = (su - (d1 * v + d9 * v9 + d12 * v12)) / scale_u;
        y = (sv - (d1 * k1 + d9 * k9 + d12 * k12)) / scale_v;
        den = err5 + 0.01 * (x * x + y * y);
        err = den != 0.0 ? h * err5 / sqrt(2.0 * den) : 0.0;

        if (!isfinite(err)) {
            h *= 0.2;
            continue;
        }
        if (err > 1.0) {
            fac = 0.9 * pow(err, -0.125);
            h *= fac > 0.2 ? fac : 0.2;
            continue;
        }

        /* terminal events, in the Python loop's priority order */
        event = 0;
        if (u_new <= 0.0)
            event = STOP_ZERO;
        else if (v_new >= 0.0 && u_new > 0.0)
            event = STOP_SLOPE;
        else if (u_new < floor_ && v_new < 0.0)
            event = STOP_UNDERFLOW;
        else if (clipped)
            event = STOP_RMAX;

        if (quad) {
            double *s = stages + 16 * (n - 1);
            s[0] = h;
            s[1] = v6; s[2] = v7; s[3] = v8; s[4] = v9; s[5] = v10; s[6] = v11; s[7] = v12;
            s[8] = k6; s[9] = k7; s[10] = k8; s[11] = k9; s[12] = k10; s[13] = k11;
            s[14] = k12; s[15] = k13;
        }
        if (event >= STOP_ZERO) {
            /* refined on the step's dense output, built only here */
            double ku[12] = {v, v6, v7, v8, v9, v10, v11, v12, v_new, 0.0, 0.0, 0.0};
            double kv[12] = {k1, k6, k7, k8, k9, k10, k11, k12, k13, 0.0, 0.0, 0.0};
            double ev[3];
            st[S_UEND] = u_new;
            st[S_VEND] = v_new;
            if ((code = refine(tab, prm, event, floor_, r, h, u, v, u_new, v_new,
                               r_new, ku, kv, ev)))
                goto out;
            nfev += 3;
            r_new = ev[0];
            u_new = ev[1];
            v_new = ev[2];
        }

        r = r_new;
        u = u_new;
        v = v_new;
        k1 = k13;
        rs[n] = r;
        us[n] = u;
        vs[n] = v;
        n += 1;
        if (event) {
            code = event;
            goto out;
        }

        /* u < a/2 here, so u^(p-2) cannot overflow where a^(p-1) did not */
        if (half != 0.0 && 0.0 < u && u < half && v < 0.0) {
            double g = pow(u, pm2) * r * r;
            if (g < settle_g && fabs(u + r * v / n2) > drift * u * g) {
                code = STOP_SETTLED;
                goto out;
            }
        }

        fac = 0.9 * pow(err + 1e-300, -0.125);
        h *= fac > 10.0 ? 10.0 : (fac > 0.2 ? fac : 0.2);
        continue;

    bad_pow:
        if (pc == POW_OVERFLOW) {
            /* a trial step so long that a stage's power overflows: shrink it */
            overflows += 1;
            h *= 0.2;
            continue;
        }
    arith:
        code = STOP_ARITH;
        goto out;
    }

out:
    st[S_R] = r;
    st[S_U] = u;
    st[S_V] = v;
    st[S_K1] = k1;
    st[S_H] = h;
    cnt[C_N] = n;
    cnt[C_NFEV] = nfev;
    cnt[C_STEPS] = steps;
    cnt[C_OVERFLOWS] = overflows;
    return code;
}


/* Node `at` of the dense pass's 8 node rows of nn nodes (dop853_dense): r,
 * u, u', the weight w, then w u^2, w |u|^p, w |u|^q and w u'^2. */
static void node_rows(double *nodes, int64_t nn, int64_t at, double p, double q, double r,
                      double u, double v, double w)
{
    const double au = fabs(u);

    nodes += at;
    nodes[0] = r;
    nodes[nn] = u;
    nodes[2 * nn] = v;
    nodes[3 * nn] = w;
    nodes[4 * nn] = w * u * u;
    nodes[5 * nn] = w * pow(au, p);
    nodes[6 * nn] = w * pow(au, q);
    nodes[7 * nn] = w * v * v;
}


/* The reference's dense pass: the grid and the quadrature nodes of a run
 * with quadrature, from what dop853_loop left: its grid of n + 1 points
 * (cnt[C_N]), the stage buffer and the state.  Each step's interpolant gives
 * the grid SUB - 1 interior points and SUB Gauss panels of NODES nodes.  moved:
 * a refined event moved the end of the last step, whose (u, u') before it are
 * st[S_UEND], st[S_VEND].  out holds 3 rows of SUB n + 1 points: the radii,
 * values and slopes.  nodes holds 8 rows of the BALL + SUB NODES n nodes, in
 * order the series piece's on [0, r0] (_ball_nodes), then each
 * sub-interval's: r, u, u' and the weight w (r^(N-1) dr included), then the
 * norm terms w u^2, w |u|^p, w |u|^q and w u'^2. */
void dop853_dense(const double *tab, const double *prm, const double *st, const int64_t *cnt,
                  const double *grid, int64_t cap, const double *stages, int moved,
                  double *out, double *nodes)
{
    const double p = prm[P_P], q = prm[P_Q], *coef = st + S_COEFFS;
    const int powers = (int)prm[P_N] - 2;   /* r^(N-1): r and N - 2 more factors */
    const int ncoef = (int)cnt[C_NCOEF];
    const int64_t n = cnt[C_N] - 1, m = SUB * n + 1, nn = BALL + SUB * NODES * n;
    const double *rs = grid, *us = grid + cap, *vs = grid + 2 * cap, r0 = rs[0];
    double *radii = out, *values = out + m, *slopes = out + 2 * m;
    int64_t i;
    int j, k;

    /* the series piece on [0, r0]: BALL Gauss nodes, weights r^(N-1) dr */
    for (j = 0; j < BALL; j++) {
        const double rr = r0 * tab[T_BALL_X + j], x = rr * rr;
        double rn = rr, u = coef[ncoef - 1], du = 0.0;
        for (k = 0; k < powers; k++)
            rn = rn * rr;
        for (k = ncoef - 1; k > 0; k--) {
            du = du * x + 2.0 * (double)k * coef[k];
            u = u * x + coef[k - 1];
        }
        node_rows(nodes, nn, j, p, q, rr, u, du * rr, tab[T_BALL_W + j] * r0 * rn);
    }

    for (i = 0; i < n; i++) {
        const double *s = stages + 16 * i, h = s[0], r = rs[i], hh = rs[i + 1] - r;
        const double u0 = us[i], v0 = vs[i];
        const int last = moved && i == n - 1;
        double ku[12], kv[12], fu[7], fv[7];
        double rr[SUB - 1 + SUB * NODES], uu[SUB - 1 + SUB * NODES], vv[SUB - 1 + SUB * NODES];

        ku[0] = v0;
        kv[0] = i ? s[-1] : st[S_K10];   /* the step before's FSAL stage */
        for (k = 1; k < 8; k++)
            ku[k] = s[k];
        ku[8] = last ? st[S_VEND] : vs[i + 1];
        for (k = 1; k < 9; k++)
            kv[k] = s[7 + k];
        interpolant(tab, prm, 0, r, h, u0, v0, last ? st[S_UEND] : us[i + 1], ku[8], ku, kv,
                    fu, fv);

        /* the interior grid points, then the Gauss nodes */
        for (j = 0; j < SUB - 1 + SUB * NODES; j++) {
            const double x = ((rr[j] = r + hh * tab[T_FRACS + j]) - r) / h;
            uu[j] = dense_eval(u0, fu, x);
            vv[j] = dense_eval(v0, fv, x);
        }
        radii[SUB * i] = r;
        values[SUB * i] = u0;
        slopes[SUB * i] = v0;
        for (j = 1; j < SUB; j++) {
            radii[SUB * i + j] = rr[j - 1];
            values[SUB * i + j] = uu[j - 1];
            slopes[SUB * i + j] = vv[j - 1];
        }

        /* each sub-interval's panel, node by node */
        for (j = 0; j < SUB * NODES; j++) {
            const int g = SUB - 1 + j;
            double w = tab[T_GW + j % NODES] * hh * rr[g];
            for (k = 0; k < powers; k++)
                w *= rr[g];
            node_rows(nodes, nn, BALL + SUB * NODES * i + j, p, q, rr[g], uu[g], vv[g], w);
        }
    }
    radii[m - 1] = rs[n];
    values[m - 1] = us[n];
    slopes[m - 1] = vs[n];
}


/* The admissible window of shooting._f_positive_roots where lin > 0 and
 * qc > 0 (ode.admissible_window), as the Python reference
 * (tests/window_reference.py) computes it: g(u) = f(u)/u and F(u)
 * (ProblemParams.F), Brent's loop of shooting._bracket_root and _zeroin to
 * 1e-15 (f_root), and the roots taken in the reference's order.  Divisions
 * by p, q, q - p and p - 2 are not checked: ProblemParams holds q > p > 2. */

struct window {
    double lin, qc, p, q;
    int max_probes;         /* shooting._MAX_PROBES */
};

/* g(u) = u ** (p - 2.0) - qc * u ** (q - 2.0) - lin, or with F set
 * F(u) = |u| ** p / p - qc * |u| ** q / q - 0.5 * lin * u * u, into *out.
 * Returns 0, or STOP_ARITH where ** raises. */
static int window_fun(const struct window *w, int F, double u, double *out)
{
    double x, y;

    if (F) {
        const double au = fabs(u);
        if (py_pow(au, w->p, &x) || py_pow(au, w->q, &y))
            return STOP_ARITH;
        *out = x / w->p - w->qc * y / w->q - 0.5 * w->lin * u * u;
    }
    else {
        if (py_pow(u, w->p - 2.0, &x) || py_pow(u, w->q - 2.0, &y))
            return STOP_ARITH;
        *out = x - w->qc * y - w->lin;
    }
    return 0;
}

/* _f_root(fun, a, fa, b, fb): the root of g (or F) in [a, b], fa and fb its
 * values there, closed to 1e-15 relative by _bracket_root's loop on
 * _zeroin's abscissas (the generator's body inlined, its rtol 0.5e-15), into
 * *root.  Returns 0, STOP_ARITH, or WINDOW_NO_SIGN (out: a, b, fa, fb) or
 * WINDOW_OPEN (out: a, b and the bracket's ends lo, hi). */
static int f_root(const struct window *w, int F, double a, double fa, double b, double fb,
                  double *root, double *out)
{
    const double rtol = 1e-15, ztol = 0.5 * rtol, a0 = a, b0 = b, f_lo = fa;
    double lo = a, hi = b, c, fc, d, e, x, fx;
    int n = 0, code;

    if (fa != 0.0 && fb != 0.0 && (fa > 0.0) == (fb > 0.0)) {
        out[0] = a;
        out[1] = b;
        out[2] = fa;
        out[3] = fb;
        return WINDOW_NO_SIGN;
    }
    if (fa == 0.0 || fb == 0.0) {
        lo = hi = fa == 0.0 ? a : b;
        goto closed;
    }
    c = a;
    fc = fa;
    d = e = b - a;
    for (;;) {
        /* _zeroin: the next abscissa x from (a, b, c) */
        double tol, xm;
        if ((fb > 0.0) == (fc > 0.0)) {
            c = a;
            fc = fa;
            d = e = b - a;
        }
        if (fabs(fc) < fabs(fb)) {
            a = b;
            b = c;
            c = a;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        tol = ztol * fabs(b);
        xm = 0.5 * (c - b);
        /* no division here is by zero: fa and fc are values of f at a
         * bracket end or a probe, never 0 (a zero ends the loop), and
         * 2 p < lim fails where q is 0 */
        if (fabs(e) >= tol && fabs(fa) > fabs(fb)) {
            double s, p, q, lim, y;
            s = fb / fa;
            if (a == c) {
                p = 2.0 * xm * s;
                q = 1.0 - s;
            }
            else {
                double qa, r;
                qa = fa / fc;
                r = fb / fc;
                p = s * (2.0 * xm * qa * (qa - r) - (b - a) * (r - 1.0));
                q = (qa - 1.0) * (r - 1.0) * (s - 1.0);
            }
            if (p > 0.0)
                q = -q;
            p = fabs(p);
            lim = 3.0 * xm * q - fabs(tol * q);   /* min(lim, y) as Python's min picks */
            y = fabs(e * q);
            if (y < lim)
                lim = y;
            if (2.0 * p < lim) {
                e = d;
                d = p / q;
            }
            else
                d = e = sqrt(b) * sqrt(c) - b;
        }
        else
            d = e = sqrt(b) * sqrt(c) - b;
        a = b;
        fa = fb;
        x = b + (fabs(d) > tol ? d : copysign(tol, xm));

        /* _bracket_root: stop, or probe x (the geometric mid where x is
         * outside the bracket) and send it back to _zeroin as b */
        if (lo == 0.0)
            return STOP_ARITH;
        if (!(hi / lo - 1.0 > rtol && n < w->max_probes))
            break;
        if (!(lo < x && x < hi))
            x = sqrt(lo) * sqrt(hi);
        n += 1;
        if ((code = window_fun(w, F, x, &fx)))
            return code;
        if (fx == 0.0) {
            lo = hi = x;
            break;
        }
        if ((fx > 0.0) == (f_lo > 0.0))
            lo = x;
        else
            hi = x;
        b = x;
        fb = fx;
    }
closed:
    if (lo == 0.0)
        return STOP_ARITH;
    if (hi / lo - 1.0 > 1e-15) {
        out[0] = a0;
        out[1] = b0;
        out[2] = lo;
        out[3] = hi;
        return WINDOW_OPEN;
    }
    *root = 0.5 * (lo + hi);
    return 0;
}

/* (u_F0, u_hi) into out[0], out[1]: the first positive zero of F and the
 * largest root of f, found as the reference finds them: g at its peak
 * u_peak, the lower end u_lo (u_peak 1e-14, or (lin/2)^(1/(p-2)) where g is
 * still positive there), the root m1 of g below the peak, the doubling scan
 * for an upper end, the root m2 above it, and the zero of F in [m1, m2].
 * Returns 0, STOP_ARITH, an f_root code (out as f_root leaves it), or
 * WINDOW_NO_ROOTS or WINDOW_NO_ZERO. */
int admissible_window(double lin, double qc, double p, double q, int max_probes, double *out)
{
    const struct window w = {lin, qc, p, q, max_probes};
    double den, u_peak, g_peak, u_lo, g_lo, m1, hi, g_hi, m2, F_m2, F_m1, u_f0;
    int code;

    den = qc * (q - 2.0);
    if (den == 0.0 || py_pow((p - 2.0) / den, 1.0 / (q - p), &u_peak))
        return STOP_ARITH;
    if ((code = window_fun(&w, 0, u_peak, &g_peak)))
        return code;
    if (g_peak <= 0.0)
        return WINDOW_NO_ROOTS;
    u_lo = u_peak * 1e-14;
    if ((code = window_fun(&w, 0, u_lo, &g_lo)))
        return code;
    if (g_lo > 0.0) {
        /* p close to 2: the lower end from lin */
        if (py_pow(0.5 * lin, 1.0 / (p - 2.0), &u_lo))
            return STOP_ARITH;
        if ((code = window_fun(&w, 0, u_lo, &g_lo)))
            return code;
    }
    if ((code = f_root(&w, 0, u_lo, g_lo, u_peak, g_peak, &m1, out)))
        return code;
    hi = u_peak;
    g_hi = g_peak;
    while (g_hi > 0.0) {
        hi *= 2.0;
        if ((code = window_fun(&w, 0, hi, &g_hi)))
            return code;
    }
    if ((code = f_root(&w, 0, u_peak, g_peak, hi, g_hi, &m2, out)))
        return code;
    if ((code = window_fun(&w, 1, m2, &F_m2)))
        return code;
    if (F_m2 <= 0.0)
        return WINDOW_NO_ZERO;
    if ((code = window_fun(&w, 1, m1, &F_m1)) || (code = f_root(&w, 1, m1, F_m1, m2, F_m2,
                                                                &u_f0, out)))
        return code;
    out[0] = u_f0;
    out[1] = m2;
    return 0;
}
