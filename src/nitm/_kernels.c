/* Compiled integration kernel for the Blasius family.
 *
 * Twin of nitm._kernels_py; see that module for the contract. rk4_step
 * is the same sequence of operations in the same order as the pure
 * fill's step, and it must be compiled with -ffp-contract=off and
 * without -ffast-math (no fused multiply-add, no reassociation) so that
 * the two kernels agree bit for bit. It is the only RK4 step here.
 * fill steps one member and tests each node for a blow-up:
 * fill_blasius_family runs it, storing every node. The batched walk
 * steps its blocks through walk_lanes, which stores no node and tests
 * each lane once, at the block's end; a lane that left the bound steps
 * again alone through fill, which finds the node. Every lane runs the
 * same operations, so vectorising across lanes changes no bit.
 * series_check, the wall-series check, steps the classic star IVP
 * through rk4_step with fill's test per node and stores no node: it
 * compares each node's f with the wall series as it goes, and fits the
 * order from the logs it keeps of the window's nodes.
 *
 * On x86-64 Linux with glibc, target_clones builds walk_lanes once for
 * each target of WALK_TARGETS (AVX-512F and AVX2) and once as the
 * default, and the dynamic linker picks one for the CPU when the module
 * loads. Every clone keeps the bits: -ffp-contract=off forbids fused
 * multiply-add (and neither the avx512f nor the avx2 target enables
 * FMA), and a lane of a 512- or 256-bit add, multiply, compare or max
 * rounds as the scalar IEEE operation does. A host runs only the clone
 * for its widest target; the default clone is the code built without
 * the attribute. Elsewhere walk_lanes is one plain function.
 *
 * Built by setup.py as the extension nitm._kernels, or on first import
 * by nitm.kernels into the package's __pycache__.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

#define BLOWUP_LIMIT 1e12

/* members advanced side by side in the batched walk: a whole number of
 * vectors of every clone */
#define LANES 32

/* rk4_step is inlined wherever it is called, each walk clone's copy
 * built for that clone's target */
#if defined(__GNUC__)
#define STEP_INLINE inline __attribute__((always_inline))
#else
#define STEP_INLINE inline
#endif

/* X(target, width) for each target walk_lanes is cloned for, with the
 * doubles its vectors hold, in the order of GCC's resolver: the widest
 * first. The default clone follows them. */
#define WALK_TARGETS(X) X("avx512f", 8) X("avx2", 4)

/* a clone of walk_lanes for each of WALK_TARGETS and a default one,
 * where the compiler and the C library can pick one at load time
 * (ifunc); each clone inlines its own copy of rk4_step, built for its
 * target. WALK_CLONE and WALK_WIDTH are the name and the vector
 * width of the clone the loader picks, by the CPU tests its resolver
 * makes: the first target the CPU supports, else the default. */
#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBC__) \
    && defined(__has_attribute)
#if __has_attribute(target_clones)
#define TARGET_NAME(target, width) target,
#define PICK_NAME(target, width) __builtin_cpu_supports(target) ? target :
#define PICK_WIDTH(target, width) __builtin_cpu_supports(target) ? width :
#define WALK_CLONES \
    __attribute__((target_clones(WALK_TARGETS(TARGET_NAME) "default")))
#define WALK_CLONE (__builtin_cpu_init(), WALK_TARGETS(PICK_NAME) "default")
#define WALK_WIDTH (__builtin_cpu_init(), WALK_TARGETS(PICK_WIDTH) 1)
#endif
#endif
#ifndef WALK_CLONES
#define WALK_CLONES
#define WALK_CLONE "single"
#define WALK_WIDTH 1
#endif

/* the vector width of the walk_lanes that runs, set when the module
 * loads: walk_lanes pads a block to a whole number of its vectors */
static int walk_width = 1;

/* One RK4 step of f''' = -beta*f*f'' of size h, from the state *f, *fp,
 * *fpp to the next node's, in place, with mb = -beta, h2 = h/2 and
 * h6 = h/6: the operations of the pure fill's step, in its order. */
static STEP_INLINE void
rk4_step(double mb, double h, double h2, double h6, double *f, double *fp,
         double *fpp)
{
    const double cf = *f, cp = *fp, cq = *fpp;
    double k1f, k1p, k1q, k2f, k2p, k2q, k3f, k3p, k3q, k4f, k4p, k4q;
    double tf, tp, tq;
    k1f = cp;
    k1p = cq;
    k1q = mb * cf * cq;
    tf = cf + h2 * k1f;
    tp = cp + h2 * k1p;
    tq = cq + h2 * k1q;
    k2f = tp;
    k2p = tq;
    k2q = mb * tf * tq;
    tf = cf + h2 * k2f;
    tp = cp + h2 * k2p;
    tq = cq + h2 * k2q;
    k3f = tp;
    k3p = tq;
    k3q = mb * tf * tq;
    tf = cf + h * k3f;
    tp = cp + h * k3p;
    tq = cq + h * k3q;
    k4f = tp;
    k4p = tq;
    k4q = mb * tf * tq;
    *f = cf + h6 * (k1f + 2.0 * (k2f + k3f) + k4f);
    *fp = cp + h6 * (k1p + 2.0 * (k2p + k3p) + k4p);
    *fpp = cq + h6 * (k1q + 2.0 * (k2q + k3q) + k4q);
}

/* outcomes of a member of the batched walk, as in nitm._kernels_py */
enum { ACCEPTED, BLOWUP, BREAKDOWN, NO_AGREEMENT };

/* Advance one member from node start through node stop: the pure
 * fill, step for step. state holds its f, fp and fpp at node start on
 * entry and, if it returns -1, at node stop on return. Where f is not
 * NULL, nodes start+1 .. stop are written to f, fp and fpp. Returns the
 * first node at which the state left [-BLOWUP_LIMIT, BLOWUP_LIMIT] (NaN
 * counts as outside), which is not written and ends the fill, or -1. */
static Py_ssize_t
fill(double beta, double h, double state[3], double *f, double *fp,
     double *fpp, Py_ssize_t start, Py_ssize_t stop)
{
    const double mb = -beta;
    const double h2 = 0.5 * h;
    const double h6 = h / 6.0;
    double cf = state[0], cp = state[1], cq = state[2];
    Py_ssize_t i;

    for (i = start; i < stop; i++) {
        rk4_step(mb, h, h2, h6, &cf, &cp, &cq);
        if (!(fabs(cf) <= BLOWUP_LIMIT && fabs(cp) <= BLOWUP_LIMIT
              && fabs(cq) <= BLOWUP_LIMIT))
            return i + 1;
        if (f != NULL) {
            f[i + 1] = cf;
            fp[i + 1] = cp;
            fpp[i + 1] = cq;
        }
    }
    state[0] = cf;
    state[1] = cp;
    state[2] = cq;
    return -1;
}

/* Advance n <= LANES members of the batched walk from node start
 * through node stop side by side, in the clones WALK_CLONES names,
 * testing each for a blow-up once, at the block's end. state[m] holds
 * member m's f, fp and fpp at node start on entry. The lanes step from
 * start to stop untested, each keeping the running maximum of |f|, |fp|
 * and |fpp| over its nodes. A lane that left [-BLOWUP_LIMIT,
 * BLOWUP_LIMIT] steps again alone through fill from its start state,
 * still in state[m], which finds the node as a test per node does, and
 * bad[m] becomes that node. One test per lane is exact:
 *  - a finite value past the limit at any node raises the running
 *    maximum past the limit, and so does an infinity;
 *  - a NaN raises no maximum, but each of a step's three new values
 *    depends arithmetically on all three old ones, so a NaN spreads to
 *    the whole lane at the next step and stays there; the end test
 *    also tests the end state, and so finds it.
 * Every other lane gets the state at node stop that fill would give it,
 * as it ran the same steps, and bad[m] = -1.
 *
 * A block of more lanes than one vector holds steps a whole number of
 * vectors of the clone that runs (walk_width doubles), so that no lane
 * is left to a narrower vector or to scalar code. The pad lanes hold
 * the zero state, which every step keeps at zero, and are left out of
 * the test and of state. */
WALK_CLONES static void
walk_lanes(double beta, double h, int n, double (*state)[3], Py_ssize_t start,
           Py_ssize_t stop, Py_ssize_t *bad)
{
    const double mb = -beta;
    const double h2 = 0.5 * h;
    const double h6 = h / 6.0;
    const int w = walk_width;
    const int lanes = n > w ? (n + w - 1) / w * w : n;
    double cf[LANES], cp[LANES], cq[LANES], top[LANES];
    int m;
    Py_ssize_t i;

    for (m = 0; m < lanes; m++) {
        if (m < n) {
            cf[m] = state[m][0];
            cp[m] = state[m][1];
            cq[m] = state[m][2];
        }
        else
            cf[m] = cp[m] = cq[m] = 0.0;
        top[m] = 0.0;
    }
    for (i = start; i < stop; i++)
        for (m = 0; m < lanes; m++) {
            double a, b, c;
            rk4_step(mb, h, h2, h6, &cf[m], &cp[m], &cq[m]);
            a = fabs(cf[m]);
            b = fabs(cp[m]);
            c = fabs(cq[m]);
            /* a comparison false for a NaN keeps the maximum */
            top[m] = a > top[m] ? a : top[m];
            top[m] = b > top[m] ? b : top[m];
            top[m] = c > top[m] ? c : top[m];
        }
    for (m = 0; m < n; m++) {
        if (!(top[m] <= BLOWUP_LIMIT) || isnan(cf[m]) || isnan(cp[m])
                || isnan(cq[m])) {
            bad[m] = fill(beta, h, state[m], NULL, NULL, NULL, start, stop);
            continue;
        }
        state[m][0] = cf[m];
        state[m][1] = cp[m];
        state[m][2] = cq[m];
        bad[m] = -1;
    }
}

/* Acquire a writable, C-contiguous, one-dimensional float64 buffer. */
static int
get_array(PyObject *obj, const char *name, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view,
                           PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != sizeof(double)
            || strcmp(view->format, "d") != 0) {
        PyErr_Format(PyExc_ValueError,
                     "%s must be a one-dimensional float64 array", name);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static PyObject *
fill_blasius_family(PyObject *self, PyObject *args)
{
    static const char *names[3] = {"f", "fp", "fpp"};
    double beta, h, *f, *fp, *fpp, state[3];
    PyObject *objs[3], *result = NULL;
    Py_buffer views[3];
    Py_ssize_t start, stop;
    int k, acquired;

    if (!PyArg_ParseTuple(args, "dOOOdnn:fill_blasius_family", &beta,
                          &objs[0], &objs[1], &objs[2], &h, &start, &stop))
        return NULL;
    for (acquired = 0; acquired < 3; acquired++)
        if (get_array(objs[acquired], names[acquired], &views[acquired]) < 0)
            goto done;
    for (k = 0; k < 3; k++)
        if (start < 0 || start > stop || stop >= views[k].shape[0]) {
            PyErr_Format(PyExc_IndexError,
                         "nodes %zd..%zd are not a range of %s (%zd nodes)",
                         start, stop, names[k], views[k].shape[0]);
            goto done;
        }
    f = views[0].buf;
    fp = views[1].buf;
    fpp = views[2].buf;
    state[0] = f[start];
    state[1] = fp[start];
    state[2] = fpp[start];
    result = PyLong_FromSsize_t(fill(beta, h, state, f, fp, fpp, start, stop));
done:
    for (k = 0; k < acquired; k++)
        PyBuffer_Release(&views[k]);
    return result;
}

/* One member of the batched walk. */
typedef struct {
    double state[3];        /* f, fp, fpp at the last stop walked */
    double offset;          /* lambda = sqrt(fp + offset) */
    int outcome;
    Py_ssize_t walked, bad;
} Member;

/* The stop indices, checked: nonempty, positive, strictly increasing,
 * and small enough that stop + 1 doubles, a table's column through that
 * stop, fit in a Py_ssize_t. */
static Py_ssize_t *
get_stops(PyObject *obj, Py_ssize_t *count)
{
    PyObject *seq = PySequence_Fast(obj, "stops must be a sequence of node indices");
    Py_ssize_t *stops = NULL, j, n;

    if (seq == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    if (n == 0) {
        PyErr_SetString(PyExc_ValueError, "stops must be nonempty");
        goto done;
    }
    stops = PyMem_New(Py_ssize_t, n);
    if (stops == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (j = 0; j < n; j++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, j);
        if (!PyIndex_Check(item)) {
            PyErr_Format(PyExc_TypeError, "stops[%zd] must be an integer", j);
            goto fail;
        }
        stops[j] = PyNumber_AsSsize_t(item, NULL);
        if (stops[j] == -1 && PyErr_Occurred())
            goto fail;
        if (stops[j] < 1 || stops[j] > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(double) - 1) {
            PyErr_Format(PyExc_ValueError,
                         "stops[%zd] = %zd is not a positive node index "
                         "that fits in memory", j, stops[j]);
            goto fail;
        }
        if (j > 0 && stops[j] <= stops[j - 1]) {
            PyErr_Format(PyExc_ValueError, "stops must be strictly increasing, "
                         "got %zd after %zd", stops[j], stops[j - 1]);
            goto fail;
        }
    }
    *count = n;
    goto done;
fail:
    PyMem_Free(stops);
    stops = NULL;
done:
    Py_DECREF(seq);
    return stops;
}

/* Read the seeds and offsets into members whose state is node 0. */
static Member *
get_members(PyObject *seeds_obj, PyObject *offsets_obj, Py_ssize_t *count)
{
    PyObject *seeds = NULL, *offsets = NULL;
    Member *members = NULL;
    Py_ssize_t m, k, n = 0;

    seeds = PySequence_Fast(seeds_obj, "seeds must be a sequence of seeds");
    if (seeds == NULL)
        return NULL;
    offsets = PySequence_Fast(offsets_obj, "offsets must be a sequence of floats");
    if (offsets == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(seeds);
    if (PySequence_Fast_GET_SIZE(offsets) != n) {
        PyErr_Format(PyExc_ValueError, "offsets must hold one float per seed "
                     "(%zd), got %zd", n, PySequence_Fast_GET_SIZE(offsets));
        goto done;
    }
    members = PyMem_New(Member, n);
    if (members == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memset(members, 0, sizeof(Member) * n);
    for (m = 0; m < n; m++) {
        Member *mem = &members[m];
        PyObject *seed = PySequence_Fast_GET_ITEM(seeds, m);
        int ok = (PyTuple_Check(seed) || PyList_Check(seed))
                 && PySequence_Fast_GET_SIZE(seed) == 3;

        for (k = 0; ok && k < 3; k++) {
            mem->state[k] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(seed, k));
            ok = isfinite(mem->state[k]) && !PyErr_Occurred();
        }
        if (!ok) {
            PyErr_Clear();
            PyErr_Format(PyExc_ValueError, "seeds[%zd] must be three finite floats", m);
            goto fail;
        }
        mem->offset = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(offsets, m));
        if (PyErr_Occurred()) {
            PyErr_Format(PyExc_TypeError, "offsets[%zd] must be a float", m);
            goto fail;
        }
    }
    *count = n;
    goto done;
fail:
    PyMem_Free(members);
    members = NULL;
done:
    Py_DECREF(seeds);
    Py_XDECREF(offsets);
    return members;
}

/* (outcome, lambda at each stop that passed Topfer's test, fp at the last
 * stop walked or None, blow-up node) */
static PyObject *
member_row(Member *mem, const double *lams)
{
    /* a breakdown's last stop has no lambda */
    Py_ssize_t count = mem->walked - (mem->outcome == BREAKDOWN), j;
    PyObject *taken = PyTuple_New(count), *fp_stop;

    if (taken == NULL)
        return NULL;
    for (j = 0; j < count; j++) {
        PyObject *x = PyFloat_FromDouble(lams[j]);
        if (x == NULL) {
            Py_DECREF(taken);
            return NULL;
        }
        PyTuple_SET_ITEM(taken, j, x);
    }
    if (mem->walked == 0) {
        Py_INCREF(Py_None);
        fp_stop = Py_None;
    }
    else if ((fp_stop = PyFloat_FromDouble(mem->state[1])) == NULL) {
        Py_DECREF(taken);
        return NULL;
    }
    return Py_BuildValue("(iNNn)", mem->outcome, taken, fp_stop, mem->bad);
}

static PyObject *
walk_blasius_family(PyObject *self, PyObject *args)
{
    double beta, h, tol;
    PyObject *stops_obj, *seeds_obj, *offsets_obj, *result = NULL;
    Py_ssize_t *stops = NULL, *live = NULL;
    Py_ssize_t nstops = 0, n = 0, nlive, j, m, start = 0;
    Member *members = NULL;
    double *lams = NULL;

    if (!PyArg_ParseTuple(args, "ddOOOd:walk_blasius_family", &beta, &h,
                          &stops_obj, &seeds_obj, &offsets_obj, &tol))
        return NULL;
    if (!isfinite(beta)) {
        PyErr_SetString(PyExc_ValueError, "beta must be finite");
        return NULL;
    }
    if (!(h > 0.0) || !isfinite(h)) {
        PyErr_SetString(PyExc_ValueError, "h must be positive and finite");
        return NULL;
    }
    if (!(tol > 0.0) || !isfinite(tol)) {
        PyErr_SetString(PyExc_ValueError, "lambda_tol must be positive and finite");
        return NULL;
    }
    stops = get_stops(stops_obj, &nstops);
    if (stops == NULL)
        return NULL;
    members = get_members(seeds_obj, offsets_obj, &n);
    if (members == NULL)
        goto done;
    /* PyMem_New(type, 0) is not NULL */
    live = PyMem_New(Py_ssize_t, n);
    lams = (n <= PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(double) / nstops)
           ? PyMem_New(double, n * nstops) : NULL;
    if (live == NULL || lams == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (m = 0; m < n; m++)
        live[m] = m;
    nlive = n;

    for (j = 0; j < nstops && nlive > 0; j++) {
        const Py_ssize_t stop = stops[j];
        Py_ssize_t kept = 0, first;

        for (first = 0; first < nlive; first += LANES) {
            double state[LANES][3];
            Py_ssize_t bad[LANES];
            int lanes = (int)(nlive - first < LANES ? nlive - first : LANES), i;

            for (i = 0; i < lanes; i++)
                memcpy(state[i], members[live[first + i]].state, sizeof state[i]);
            walk_lanes(beta, h, lanes, state, start, stop, bad);
            for (i = 0; i < lanes; i++) {
                Member *mem = &members[live[first + i]];
                /* a member that blew up keeps its last stop's state */
                if ((mem->bad = bad[i]) < 0)
                    memcpy(mem->state, state[i], sizeof state[i]);
            }
        }
        for (m = 0; m < nlive; m++) {
            Member *mem = &members[live[m]];
            double *lam = lams + live[m] * nstops, base;

            if (mem->bad >= 0) {
                mem->outcome = BLOWUP;
                continue;
            }
            mem->walked = j + 1;
            /* the tests of lambda_from_asymptote and lambda_moving_wall */
            base = mem->state[1] + mem->offset;
            if (!(base > 0.0) || !isfinite(base)) {
                mem->outcome = BREAKDOWN;
                continue;
            }
            lam[j] = sqrt(base);
            if (nstops == 1 || (j > 0 && fabs(lam[j] - lam[j - 1]) <= tol)) {
                mem->outcome = ACCEPTED;
                continue;
            }
            if (j == nstops - 1) {
                mem->outcome = NO_AGREEMENT;
                continue;
            }
            live[kept++] = live[m];
        }
        nlive = kept;
        start = stop;
    }

    result = PyList_New(n);
    if (result == NULL)
        goto done;
    for (m = 0; m < n; m++) {
        PyObject *row = member_row(&members[m], lams + m * nstops);
        if (row == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, m, row);
    }
done:
    PyMem_Free(members);
    PyMem_Free(live);
    PyMem_Free(lams);
    PyMem_Free(stops);
    return result;
}

/* The wall-series check: the beta = 1/2 star IVP from (0, 0, 1),
 * stepped as fill steps it through node n, against the series with
 * coefficients c (those of eta^2, eta^5, eta^8 and eta^11). Each node's
 * error is |f - series| at eta = i*h, with series_eval's operations in
 * its order; the maximum runs over nodes 0 .. n. The window is the
 * nodes at or past start whose error is above floor, and the order is
 * the least-squares slope of log err on log eta over it, in the
 * centred closed form: the means, then sum(dx (y - mean y)) / sum(dx^2),
 * each summed in node order, as the pure twin sums them. A blow-up ends the steps: bad is then its node,
 * the maximum and the order NaN and usable 0. */
static PyObject *
series_check(PyObject *self, PyObject *args)
{
    double h, start, floor_, c[4], *xs = NULL, *ys = NULL;
    double cf = 0.0, cp = 0.0, cq = 1.0, top = 0.0, order = NAN;
    PyObject *coeffs_obj, *coeffs, *result = NULL;
    Py_ssize_t n, i, k, usable = 0, bad = -1;

    if (!PyArg_ParseTuple(args, "dnOdd:series_check", &h, &n, &coeffs_obj,
                          &start, &floor_))
        return NULL;
    if (!(h > 0.0) || !isfinite(h)) {
        PyErr_SetString(PyExc_ValueError, "h must be positive and finite");
        return NULL;
    }
    if (n < 1 || n > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(double) - 1) {
        PyErr_Format(PyExc_ValueError, "n = %zd is not a positive node index "
                     "that fits in memory", n);
        return NULL;
    }
    /* log eta of node 0 and log err of an exact node are -inf */
    if (!(start > 0.0) || !isfinite(start)) {
        PyErr_SetString(PyExc_ValueError, "start must be positive and finite");
        return NULL;
    }
    if (!(floor_ >= 0.0) || !isfinite(floor_)) {
        PyErr_SetString(PyExc_ValueError, "floor must be non-negative and finite");
        return NULL;
    }
    coeffs = PySequence_Fast(coeffs_obj, "coefficients must be a sequence of 4 floats");
    if (coeffs == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(coeffs) != 4) {
        PyErr_Format(PyExc_ValueError, "coefficients must be 4 floats, got %zd",
                     PySequence_Fast_GET_SIZE(coeffs));
        goto done;
    }
    for (k = 0; k < 4; k++) {
        c[k] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(coeffs, k));
        if (PyErr_Occurred()) {
            PyErr_Format(PyExc_TypeError, "coefficients[%zd] must be a float", k);
            goto done;
        }
    }
    /* log eta and log err of the usable nodes, at most n + 1 */
    xs = PyMem_New(double, n + 1);
    ys = PyMem_New(double, n + 1);
    if (xs == NULL || ys == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    {
        const double mb = -0.5;
        const double h2 = 0.5 * h;
        const double h6 = h / 6.0;

        for (i = 0;; i++) {
            /* series_eval's operations, in its order */
            const double eta = (double)i * h;
            const double e3 = eta * eta * eta;
            const double series =
                eta * eta * (c[0] + e3 * (c[1] + e3 * (c[2] + e3 * c[3])));
            const double err = fabs(cf - series);

            top = err > top ? err : top;
            if (eta >= start && err > floor_) {
                xs[usable] = log(eta);
                ys[usable] = log(err);
                usable++;
            }
            if (i == n)
                break;
            rk4_step(mb, h, h2, h6, &cf, &cp, &cq);
            if (!(fabs(cf) <= BLOWUP_LIMIT && fabs(cp) <= BLOWUP_LIMIT
                  && fabs(cq) <= BLOWUP_LIMIT)) {
                bad = i + 1;
                top = NAN;
                usable = 0;
                break;
            }
        }
    }
    if (usable >= 2) {
        double mx = 0.0, my = 0.0, sxy = 0.0, sxx = 0.0;

        for (k = 0; k < usable; k++) {
            mx += xs[k];
            my += ys[k];
        }
        mx /= (double)usable;
        my /= (double)usable;
        for (k = 0; k < usable; k++) {
            const double dx = xs[k] - mx;
            sxy += dx * (ys[k] - my);
            sxx += dx * dx;
        }
        order = sxy / sxx;
    }
    result = Py_BuildValue("(nddn)", bad, top, order, usable);
done:
    PyMem_Free(xs);
    PyMem_Free(ys);
    Py_DECREF(coeffs);
    return result;
}

static PyMethodDef methods[] = {
    {"fill_blasius_family", fill_blasius_family, METH_VARARGS,
     "fill_blasius_family(beta, f, fp, fpp, h, start, stop)\n--\n\n"
     "Advance f''' = -beta*f*f'' from node start through node stop.\n\n"
     "Returns -1 on success, or the index of the first node whose state\n"
     "left [-1e12, 1e12] (that node is not written)."},
    {"walk_blasius_family", walk_blasius_family, METH_VARARGS,
     "walk_blasius_family(beta, h, stops, seeds, offsets, lambda_tol)\n--\n\n"
     "Walk each seed through the stop indices in lockstep, retiring it at\n"
     "lambda agreement, a blow-up, a scaling breakdown or the schedule's\n"
     "end. Steps lane state only and keeps no node. Returns one\n"
     "(outcome, lambdas, fp_stop, bad) per seed; see\n"
     "nitm._kernels_py.walk_blasius_family."},
    {"series_check", series_check, METH_VARARGS,
     "series_check(h, n, coefficients, start, floor)\n--\n\n"
     "Step the beta = 1/2 star IVP from (0, 0, 1) through node n against\n"
     "the wall series, keeping no node. Returns (bad, max_deviation,\n"
     "order, usable); see nitm._kernels_py.series_check."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "nitm._kernels",
    .m_doc = "Compiled RK4 fill, batched walk and wall-series check for the "
              "Blasius family; twin of nitm._kernels_py.",
    .m_size = -1,
    .m_methods = methods,
};

/* WALK_CLONE names the walk_lanes that runs: "avx512f", "avx2",
 * "default", or "single" where it is one plain function */
PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *m = PyModule_Create(&module);

    walk_width = WALK_WIDTH;

    if (m != NULL && PyModule_AddStringConstant(m, "WALK_CLONE", WALK_CLONE) < 0)
        Py_CLEAR(m);
    return m;
}
