/* The CPython extension module bornsim._native (built and loaded by
 * bornsim.native): the native bodies of bornsim.streams.trial_uniforms, of
 * the first pass of bornsim.disk.up_indices, of
 * bornsim.rod.outcomes_from_uniforms, of bornsim.sphere.outcome_indices and
 * of bornsim.geometry.random_frame, and geometry._dot's fma chain.
 *
 * Build with -O3 -fno-math-errno -fno-trapping-math, never -ffast-math:
 * the disk pass's loop, quadrant selects and domain select vectorize only
 * without errno and traps, -ffast-math may reassociate the rounding of k in
 * trig() below, and its -ffinite-math-only would let the compares of
 * rod_count and sphere_count assume that no draw is NaN. Neither flag
 * changes the fill's integer arithmetic.
 *
 * The loop under each "hot loop:" comment must vectorize; CI builds this
 * file with -fopt-info-vec-optimized and fails if GCC does not report it.
 *
 * Each loop has one copy per x86-64 level, picked when the module loads:
 * AVX-512 has the 64-bit multiply and int64 -> double conversion as vector
 * instructions, which -O3 alone cannot assume. random_frame and dot, which
 * are not loops, have one copy. The clones are built with GCC only; other
 * compilers build the plain loops.
 *
 * Each body has a wrapper next to it that Python calls. The loop wrappers
 * take their arrays through the buffer protocol (array() checks that each
 * is C-contiguous float64 or int64 and of the right length) and release the
 * GIL around the loop, so the runner's worker threads run them in
 * parallel. No static state: the loops run without the GIL from several
 * threads at once.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define CLONES
#endif

/* ---- Arguments from Python. */

static Py_ssize_t items(const Py_buffer *view)
{
    return view->len / view->itemsize;
}

/* The buffer of obj, which must be a C-contiguous array of float64 (type
 * 'd') or int64 (type 'q') items, and writable for an upper-case type; -1
 * with an exception set otherwise. */
static int array(PyObject *obj, Py_buffer *view, char type)
{
    int writable = type == 'D' || type == 'Q', real = type == 'd' || type == 'D';
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT
                           | (writable ? PyBUF_WRITABLE : 0)) < 0)
        return -1;
    const char *format = view->format ? view->format : "B";
    const char *f = format[0] == '@' ? format + 1 : format;
    int ok = real ? f[0] == 'd' : f[0] == 'q' || f[0] == 'l';
    if (ok && f[1] == '\0' && view->itemsize == 8)
        return 0;
    PyErr_Format(PyExc_TypeError, "expected a C-contiguous %s array, not format '%s'",
                 real ? "float64" : "int64", format);
    PyBuffer_Release(view);
    return -1;
}

static void release(Py_buffer *views, int n)
{
    while (n-- > 0)
        PyBuffer_Release(&views[n]);
}

/* The buffers of args[i], one per letter of types (see array), all of n
 * items, or all as many as the first where n < 0; -1 with an exception set
 * and none held otherwise. */
static int arrays(PyObject *const *args, const char *types, Py_buffer *views, Py_ssize_t n)
{
    for (int i = 0; types[i]; i++) {
        if (array(args[i], &views[i], types[i]) < 0) {
            release(views, i);
            return -1;
        }
        if (n < 0)
            n = items(&views[i]);
        if (items(&views[i]) != n) {
            PyErr_Format(PyExc_ValueError, "an array has %zd items, not %zd",
                         items(&views[i]), n);
            release(views, i + 1);
            return -1;
        }
    }
    return 0;
}

/* args[0..n) as doubles; -1 with an exception set if one is not a number */
static int doubles(PyObject *const *args, int n, double *x)
{
    for (int i = 0; i < n; i++) {
        x[i] = PyFloat_AsDouble(args[i]);
        if (x[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* obj as a uint64; -1 with an exception set if it is not one */
static int uint64(PyObject *obj, uint64_t *x)
{
    *x = PyLong_AsUnsignedLongLong(obj);
    return *x == (uint64_t)-1 && PyErr_Occurred() ? -1 : 0;
}

static int nargs_is(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

/* ---- The fill of bornsim.streams.trial_uniforms.
 *
 * Fills out[k * n + i] with draw k of trial start + i:
 *
 *     state(t)   = mix64(seed ^ mix64((t + 1) * GOLDEN))
 *     draw(t, k) = mix64(state(t) + (k + 1) * GOLDEN) >> 11, times 2**-53
 *
 * ``base`` is (start + 1) * GOLDEN mod 2**64, so trial start + i starts from
 * base + i * GOLDEN. Only uint64 arithmetic (which wraps mod 2**64, as
 * SplitMix64 needs), an int64 -> double conversion of a value below 2**53
 * (exact) and a multiply by a power of two (exact) touch the bits, so the
 * values are those of the numpy and scalar paths on any compiler that keeps
 * IEEE doubles.
 *
 * Trials go in blocks of FILL_BLOCK: the block's trial states stay in L1
 * cache while each draw row is written contiguously.
 */

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define FILL_BLOCK 4096

static inline uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

CLONES
static void trial_uniforms(double *out, uint64_t seed, uint64_t base, int64_t n, int64_t ndraws)
{
    uint64_t state[FILL_BLOCK];
    for (int64_t a = 0; a < n; a += FILL_BLOCK) {
        int64_t m = n - a < FILL_BLOCK ? n - a : FILL_BLOCK;
        uint64_t first = base + (uint64_t)a * GOLDEN;
        for (int64_t i = 0; i < m; i++)
            state[i] = mix64(seed ^ mix64(first + (uint64_t)i * GOLDEN));
        for (int64_t k = 0; k < ndraws; k++) {
            uint64_t step = (uint64_t)(k + 1) * GOLDEN;
            double *row = out + k * n + a;
            /* hot loop: the fill's draws */
            for (int64_t i = 0; i < m; i++)
                row[i] = (double)(int64_t)(mix64(state[i] + step) >> 11) * 0x1p-53;
        }
    }
}

/* trial_uniforms(out, seed, base): fills out, float64 of shape (ndraws, n) */
static PyObject *py_trial_uniforms(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    uint64_t seed, base;
    Py_buffer out;
    if (nargs_is("trial_uniforms", nargs, 3) < 0 || uint64(args[1], &seed) < 0
        || uint64(args[2], &base) < 0 || arrays(args, "D", &out, -1) < 0)
        return NULL;
    if (out.ndim != 2) {
        PyErr_SetString(PyExc_ValueError, "out must be 2-d: (ndraws, n)");
        PyBuffer_Release(&out);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    trial_uniforms(out.buf, seed, base, out.shape[1], out.shape[0]);
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* ---- The first pass of bornsim.disk.up_indices.
 *
 * For each trial i, t.q = st (cos(phi) aq + sin(phi) bq) + ct pq with
 * st = sqrt(u1), ct = sqrt(1 - u1) and phi = 2 pi u2 (see disk._t_dot_q).
 * The pass counts the trials with t.q < -margin as down and writes the
 * indices of the trials with |t.q| <= margin to ``near``, for the float64
 * formula to decide; every other trial is up.
 *
 * cos and sin are polynomials on a reduced azimuth: k = round(4 u2) and
 * r = (4 u2 - k) pi/2, so phi = k pi/2 + r with |r| <= pi/4. 4 u2 - k is
 * exact, and the Taylor polynomials of degree 9 (sin) and 10 (cos) are
 * within r**11/11! < 1.8e-9 of sin r and cos r there, far inside the 2**-20
 * per trig value that disk.up_indices's margin argument allows. sqrt is
 * correctly rounded and the rest is float64 arithmetic, so every trial
 * outside the margin has the sign the float64 formula gives it. The
 * quadrant logic needs u2 in [0, 1] and the square roots u1 in [0, 1]: a
 * trial with any other value, NaN included, gets t.q = 0 by a select, so
 * that the float64 formula decides it too.
 */

#define DISK_BLOCK 256
#define HALF_PI 1.57079632679489661923

/* cos(2 pi u2) and sin(2 pi u2) for u2 in [0, 1]; k is compared as a
 * double, not cast to an int, so that every clone vectorizes the selects */
static inline void trig(double u2, double *c, double *s)
{
    double x = 4.0 * u2;
    double k = (x + 0x1.8p52) - 0x1.8p52;  /* nearest integer, 0 <= k <= 4 */
    double r = (x - k) * HALF_PI;
    double r2 = r * r;
    double sr = r * (1.0 + r2 * (-1.0 / 6 + r2 * (1.0 / 120 + r2 * (-1.0 / 5040
                + r2 * (1.0 / 362880)))));
    double cr = 1.0 + r2 * (-1.0 / 2 + r2 * (1.0 / 24 + r2 * (-1.0 / 720
                + r2 * (1.0 / 40320 + r2 * (-1.0 / 3628800)))));
    /* phi = k pi/2 + r: k odd swaps cos and sin; cos(phi) < 0 for k = 1, 2
     * and sin(phi) < 0 for k = 2, 3 */
    int odd = k == 1.0 || k == 3.0;
    double cp = odd ? sr : cr;
    double sp = odd ? cr : sr;
    *c = k > 0.5 && k < 2.5 ? -cp : cp;
    *s = k > 1.5 && k < 3.5 ? -sp : sp;
}

CLONES
static int64_t disk_first_pass(const double *u1, const double *u2, int64_t n, double aq,
                               double bq, double pq, double margin, int64_t *near,
                               int64_t *down)
{
    double tq[DISK_BLOCK];
    int64_t below = 0, m = 0;
    for (int64_t a = 0; a < n; a += DISK_BLOCK) {
        int64_t len = n - a < DISK_BLOCK ? n - a : DISK_BLOCK;
        int64_t close = 0;
        /* hot loop: the disk pass */
        for (int64_t i = 0; i < len; i++) {
            double x = u1[a + i], y = u2[a + i], c, s;
            trig(y, &c, &s);
            double t = sqrt(x) * (c * aq + s * bq) + sqrt(1.0 - x) * pq;
            if (!(x >= 0.0 && x <= 1.0 && y >= 0.0 && y <= 1.0))
                t = 0.0;
            tq[i] = t;
            below += t < -margin;
            close += fabs(t) <= margin;
        }
        if (close)
            for (int64_t i = 0; i < len; i++)
                if (fabs(tq[i]) <= margin)
                    near[m++] = a + i;
    }
    *down = below;
    return m;
}

/* disk_first_pass(u1, u2, near, aq, bq, pq, margin) -> (m, down): u1, u2
 * and near of one length, near int64 */
static PyObject *py_disk_first_pass(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    double x[4];
    Py_buffer v[3];
    if (nargs_is("disk_first_pass", nargs, 7) < 0 || doubles(args + 3, 4, x) < 0
        || arrays(args, "ddQ", v, -1) < 0)
        return NULL;
    int64_t m, down;
    Py_BEGIN_ALLOW_THREADS
    m = disk_first_pass(v[0].buf, v[1].buf, items(v), x[0], x[1], x[2], x[3], v[2].buf, &down);
    Py_END_ALLOW_THREADS
    release(v, 3);
    return Py_BuildValue("(LL)", (long long)m, (long long)down);
}

/* The pass's cos(2 pi u2) and sin(2 pi u2), for the tests that bound their error */
static void disk_trig(const double *u2, int64_t n, double *c, double *s)
{
    for (int64_t i = 0; i < n; i++)
        trig(u2[i], &c[i], &s[i]);
}

/* disk_trig(u2, c, s): writes c and s, all three float64 of one length */
static PyObject *py_disk_trig(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    Py_buffer v[3];
    if (nargs_is("disk_trig", nargs, 3) < 0 || arrays(args, "dDD", v, -1) < 0)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    disk_trig(v[0].buf, items(v), v[1].buf, v[2].buf);
    Py_END_ALLOW_THREADS
    release(v, 3);
    Py_RETURN_NONE;
}

/* ---- The count step of bornsim.rod.outcomes_from_uniforms.
 *
 * The compares of the numpy body, one trial at a time: tie 0 breaks first
 * where u1 <= t0 (lo), tie 2 where u1 > t1 (hi), tie 1 where neither holds.
 * n_s trials break tie s first, and k_s of them then break their first
 * retained tie, where u2 <= r_s. A NaN fails every compare, as in numpy:
 * a NaN u1 breaks tie 1 first, and a NaN u2 the second retained tie.
 * Writes the six path counts (k0, n0 - k0, k1, n1 - k1, k2, n2 - k2).
 */

CLONES
static void rod_count(const double *u1, const double *u2, int64_t n, double t0, double t1,
                      double r0, double r1, double r2, int64_t *counts)
{
    int64_t n0 = 0, n2 = 0, k0 = 0, k1 = 0, k2 = 0;
    /* hot loop: rod_count */
    for (int64_t i = 0; i < n; i++) {
        double x = u1[i], y = u2[i];
        int64_t lo = x <= t0, hi = x > t1;
        n0 += lo;
        n2 += hi;
        k0 += lo & (y <= r0);
        k2 += hi & (y <= r2);
        k1 += (y <= r1) & !(lo | hi);
    }
    int64_t n1 = n - n0 - n2;
    counts[0] = k0;
    counts[1] = n0 - k0;
    counts[2] = k1;
    counts[3] = n1 - k1;
    counts[4] = k2;
    counts[5] = n2 - k2;
}

/* rod_count(u1, u2, counts, t0, t1, r0, r1, r2): u1 and u2 float64 of one
 * length, counts int64 of 6 */
static PyObject *py_rod_count(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    double x[5];
    Py_buffer v[3];
    if (nargs_is("rod_count", nargs, 8) < 0 || doubles(args + 3, 5, x) < 0
        || arrays(args, "dd", v, -1) < 0)
        return NULL;
    if (arrays(args + 2, "Q", v + 2, 6) < 0) {
        release(v, 2);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    rod_count(v[0].buf, v[1].buf, items(v), x[0], x[1], x[2], x[3], x[4], v[2].buf);
    Py_END_ALLOW_THREADS
    release(v, 3);
    Py_RETURN_NONE;
}

/* ---- The count step of bornsim.sphere.outcome_indices.
 *
 * Counts the draws where the break point 2 u - 1 is at or above c (outcome
 * o2), with the numpy body's compare: a NaN draw or a NaN c fails it, so
 * the draw counts as o1, as in numpy. 2.0 * u is exact (or inf on both
 * paths), so a contracted fma(2.0, u, -1.0) rounds once, as 2.0 * u - 1.0
 * does, and gives the same bits.
 */

CLONES
static int64_t sphere_count(const double *u, int64_t n, double c)
{
    int64_t k = 0;
    /* hot loop: sphere_count */
    for (int64_t i = 0; i < n; i++)
        k += 2.0 * u[i] - 1.0 >= c;
    return k;
}

/* sphere_count(u, c) -> k: u float64 */
static PyObject *py_sphere_count(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    double c;
    Py_buffer u;
    if (nargs_is("sphere_count", nargs, 2) < 0 || doubles(args + 1, 1, &c) < 0
        || arrays(args, "d", &u, -1) < 0)
        return NULL;
    int64_t k;
    Py_BEGIN_ALLOW_THREADS
    k = sphere_count(u.buf, items(&u), c);
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&u);
    return PyLong_FromLongLong(k);
}

/* ---- The body of bornsim.geometry.random_frame for one draw.
 *
 * g holds the nine draws of one standard_normal((3, 3)), row by row. The
 * function makes random_frame's steps with the Python body's operations in
 * its order: the row norms sqrt((x*x + y*y) + z*z) (numpy's add.reduce
 * order) and the rejection of a norm below 1e-12, the three |cos| of the
 * rows divided by their norms and the rejection of one above 1 - 1e-6,
 * then Gram-Schmidt on the raw rows: each is scaled by a power of two and
 * divided by its norm (geometry._unit), projected off the axes before it
 * twice, and divided by its residual norm, which must be at least 1e-6.
 * Writes the three axes to out and returns 0, or returns 1 where the
 * Python body draws again.
 *
 * Every dot is ddot3, the chain of fused multiply-adds that OpenBLAS's
 * SkylakeX ddot makes of three terms, so that the frame's bits do not
 * depend on the compiler, the CPU or the BLAS kernel. The rest must round
 * as written, so contraction is off here: wherever the target has an FMA
 * instruction a compiler may otherwise fuse x - d*b into one (GCC 12 does
 * at -march=x86-64-v3). The function has no CLONES for the same reason:
 * the explicit fma() is the only FMA it may make.
 */

#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
#endif

static double ddot3(const double *a, const double *b)
{
    return fma(a[2], b[2], fma(a[1], b[1], fma(a[0], b[0], 0.0)));
}

/* v scaled by 2**-e, where 2**(e-1) <= max |v_i| < 2**e, then divided by
 * its norm; 1 if a component is not finite or |v| < 1e-12 */
static int unit(const double *v, double *w)
{
    if (!(isfinite(v[0]) && isfinite(v[1]) && isfinite(v[2])))
        return 1;
    int e;
    frexp(fmax(fabs(v[0]), fmax(fabs(v[1]), fabs(v[2]))), &e);
    double s[3] = {ldexp(v[0], -e), ldexp(v[1], -e), ldexp(v[2], -e)};
    double n = sqrt(ddot3(s, s));
    if (ldexp(n, e < 0 ? e : 0) < 1e-12)
        return 1;
    for (int i = 0; i < 3; i++)
        w[i] = s[i] / n;
    return 0;
}

static int random_frame(const double *g, double *out)
{
    double u[9];
    for (int r = 0; r < 3; r++) {
        const double *x = g + 3 * r;
        double n = sqrt((x[0] * x[0] + x[1] * x[1]) + x[2] * x[2]);
        if (n < 1e-12)
            return 1;
        for (int i = 0; i < 3; i++)
            u[3 * r + i] = x[i] / n;
    }
    if (fabs(ddot3(u, u + 3)) > 1.0 - 1e-6 || fabs(ddot3(u, u + 6)) > 1.0 - 1e-6
        || fabs(ddot3(u + 3, u + 6)) > 1.0 - 1e-6)
        return 1;
    for (int r = 0; r < 3; r++) {
        double w[3];
        if (unit(g + 3 * r, w))
            return 1;
        for (int pass = 0; pass < 2; pass++)
            for (int b = 0; b < r; b++) {
                const double *axis = out + 3 * b;
                double d = ddot3(w, axis);
                for (int i = 0; i < 3; i++)
                    w[i] = w[i] - d * axis[i];
            }
        double n = sqrt(ddot3(w, w));
        if (n < 1e-6)
            return 1;
        for (int i = 0; i < 3; i++)
            out[3 * r + i] = w[i] / n;
    }
    return 0;
}

/* random_frame(g) -> the three axes as tuples of floats, or None: g float64
 * of 9 items */
static PyObject *py_random_frame(PyObject *self, PyObject *g)
{
    (void)self;
    Py_buffer v;
    double a[9];
    if (arrays(&g, "d", &v, 9) < 0)
        return NULL;
    int again = random_frame(v.buf, a);
    PyBuffer_Release(&v);
    if (again)
        Py_RETURN_NONE;
    return Py_BuildValue("((ddd)(ddd)(ddd))", a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7],
                         a[8]);
}

/* The three items of a sequence of numbers; -1 with an exception set if it
 * is not one */
static int vector(PyObject *obj, double *x)
{
    PyObject *seq = PySequence_Fast(obj, "expected a sequence of three numbers");
    if (seq == NULL)
        return -1;
    int ok = PySequence_Fast_GET_SIZE(seq) == 3;
    if (!ok)
        PyErr_SetString(PyExc_ValueError, "expected a sequence of three numbers");
    for (int i = 0; ok && i < 3; i++) {
        x[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(seq, i));
        ok = !(x[i] == -1.0 && PyErr_Occurred());
    }
    Py_DECREF(seq);
    return ok ? 0 : -1;
}

/* dot(u, v): ddot3 of two 3-vectors, the body of geometry._dot */
static PyObject *py_dot(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    double u[3], v[3];
    if (nargs_is("dot", nargs, 2) < 0 || vector(args[0], u) < 0 || vector(args[1], v) < 0)
        return NULL;
    return PyFloat_FromDouble(ddot3(u, v));
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

/* ---- The module. */

#define FASTCALL(f) (PyCFunction)(void (*)(void))(f), METH_FASTCALL

static PyMethodDef methods[] = {
    {"trial_uniforms", FASTCALL(py_trial_uniforms), "trial_uniforms(out, seed, base)"},
    {"disk_first_pass", FASTCALL(py_disk_first_pass),
     "disk_first_pass(u1, u2, near, aq, bq, pq, margin) -> (m, down)"},
    {"disk_trig", FASTCALL(py_disk_trig), "disk_trig(u2, c, s)"},
    {"rod_count", FASTCALL(py_rod_count), "rod_count(u1, u2, counts, t0, t1, r0, r1, r2)"},
    {"sphere_count", FASTCALL(py_sphere_count), "sphere_count(u, c) -> k"},
    {"random_frame", py_random_frame, METH_O, "random_frame(g) -> axes or None"},
    {"dot", FASTCALL(py_dot), "dot(u, v) -> float"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "bornsim._native",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__native(void)
{
    return PyModule_Create(&module);
}
