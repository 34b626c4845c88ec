/* Compiled integration kernel for the Blasius family.
 *
 * Twin of nitm._kernels_py; see that module for the contract. The RK4
 * step in fill_lanes is the same sequence of operations in the same
 * order as the pure fill, and it must be compiled with -ffp-contract=off
 * and without -ffast-math (no fused multiply-add, no reassociation) so
 * that the two kernels agree bit for bit. fill_lanes is the only RK4
 * loop here: fill_blasius_family runs it with one lane, and the batched
 * walk with up to LANES members side by side. Every lane runs the same
 * operations, so vectorising across lanes changes no bit.
 *
 * The batched walk steps its blocks through walk_lanes, which on x86-64
 * Linux with glibc is built twice by target_clones: once for AVX2 and
 * once as the default, and the dynamic linker picks one for the CPU
 * when the module loads. Both clones
 * keep the bits: -ffp-contract=off forbids fused multiply-add (and the
 * avx2 target does not enable FMA), and a lane of a 256-bit add,
 * multiply or compare rounds as the scalar IEEE operation does. An AVX2
 * host never runs the default clone, which is the code built without
 * the attribute. Elsewhere walk_lanes is one plain function. The
 * single-lane fill is not cloned, so it keeps its own inlined
 * one-lane copy of fill_lanes.
 *
 * Built by setup.py as the extension nitm._kernels, or on first import
 * by nitm.kernels into the package's __pycache__.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

#define BLOWUP_LIMIT 1e12

/* members advanced side by side in the batched walk */
#define LANES 8

/* an AVX2 and a default build of walk_lanes, where the compiler and the
 * C library can pick one at load time (ifunc); each clone inlines its
 * own copy of fill_lanes, built for its target */
#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBC__) \
    && defined(__has_attribute)
#if __has_attribute(target_clones)
#define WALK_CLONES __attribute__((target_clones("avx2", "default")))
#define FILL_INLINE inline __attribute__((always_inline))
#endif
#endif
#ifndef WALK_CLONES
#define WALK_CLONES
#define FILL_INLINE
#endif

/* outcomes of a member of the batched walk, as in nitm._kernels_py */
enum { ACCEPTED, BLOWUP, BREAKDOWN, NO_AGREEMENT };

/* Advance n <= LANES members from node start through node stop in
 * lockstep. f[m], fp[m] and fpp[m] are member m's buffers; node start
 * must be filled. bad[m] becomes the first node at which member m's
 * state left [-BLOWUP_LIMIT, BLOWUP_LIMIT] (NaN counts as outside), and
 * that member's nodes from there on are not written; it stays -1
 * otherwise. */
static FILL_INLINE void
fill_lanes(double beta, double h, int n, double **f, double **fp,
           double **fpp, Py_ssize_t start, Py_ssize_t stop, Py_ssize_t *bad)
{
    const double mb = -beta;
    const double h2 = 0.5 * h;
    const double h6 = h / 6.0;
    double cf[LANES], cp[LANES], cq[LANES];
    int live = n, m;
    Py_ssize_t i;

    for (m = 0; m < n; m++) {
        cf[m] = f[m][start];
        cp[m] = fp[m][start];
        cq[m] = fpp[m][start];
        bad[m] = -1;
    }
    for (i = start; i < stop && live > 0; i++) {
        for (m = 0; m < n; m++) {
            double k1f, k1p, k1q, k2f, k2p, k2q, k3f, k3p, k3q, k4f, k4p, k4q;
            double tf, tp, tq;
            k1f = cp[m];
            k1p = cq[m];
            k1q = mb * cf[m] * cq[m];
            tf = cf[m] + h2 * k1f;
            tp = cp[m] + h2 * k1p;
            tq = cq[m] + h2 * k1q;
            k2f = tp;
            k2p = tq;
            k2q = mb * tf * tq;
            tf = cf[m] + h2 * k2f;
            tp = cp[m] + h2 * k2p;
            tq = cq[m] + h2 * k2q;
            k3f = tp;
            k3p = tq;
            k3q = mb * tf * tq;
            tf = cf[m] + h * k3f;
            tp = cp[m] + h * k3p;
            tq = cq[m] + h * k3q;
            k4f = tp;
            k4p = tq;
            k4q = mb * tf * tq;
            cf[m] = cf[m] + h6 * (k1f + 2.0 * (k2f + k3f) + k4f);
            cp[m] = cp[m] + h6 * (k1p + 2.0 * (k2p + k3p) + k4p);
            cq[m] = cq[m] + h6 * (k1q + 2.0 * (k2q + k3q) + k4q);
        }
        for (m = 0; m < n; m++) {
            if (bad[m] >= 0)
                continue;
            if (!(fabs(cf[m]) <= BLOWUP_LIMIT && fabs(cp[m]) <= BLOWUP_LIMIT
                  && fabs(cq[m]) <= BLOWUP_LIMIT)) {
                bad[m] = i + 1;
                /* it steps on until the block ends, from the zero
                 * state, which every step keeps at zero */
                cf[m] = cp[m] = cq[m] = 0.0;
                live--;
                continue;
            }
            f[m][i + 1] = cf[m];
            fp[m][i + 1] = cp[m];
            fpp[m][i + 1] = cq[m];
        }
    }
}

/* fill_lanes for a block of the batched walk, in the clones WALK_CLONES
 * names. */
WALK_CLONES static void
walk_lanes(double beta, double h, int n, double **f, double **fp,
           double **fpp, Py_ssize_t start, Py_ssize_t stop, Py_ssize_t *bad)
{
    fill_lanes(beta, h, n, f, fp, fpp, start, stop, bad);
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
    double beta, h, *f, *fp, *fpp;
    PyObject *objs[3], *result = NULL;
    Py_buffer views[3];
    Py_ssize_t start, stop, bad;
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
    fill_lanes(beta, h, 1, &f, &fp, &fpp, start, stop, &bad);
    result = PyLong_FromSsize_t(bad);
done:
    for (k = 0; k < acquired; k++)
        PyBuffer_Release(&views[k]);
    return result;
}

/* One member of the batched walk. */
typedef struct {
    PyObject *buf[3];       /* f, fp, fpp as bytearrays; NULL once freed */
    double offset;          /* lambda = sqrt(fp + offset) */
    double fp_stop;         /* fp at the last stop walked */
    int outcome;
    Py_ssize_t walked, bad;
} Member;

/* The stop indices, checked: nonempty, positive, strictly increasing,
 * and small enough that stop + 1 doubles fit in a Py_ssize_t. */
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

/* Read the seeds and offsets into members whose buffers hold node 0. */
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
        double state[3];
        int ok = (PyTuple_Check(seed) || PyList_Check(seed))
                 && PySequence_Fast_GET_SIZE(seed) == 3;

        for (k = 0; ok && k < 3; k++) {
            state[k] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(seed, k));
            ok = isfinite(state[k]) && !PyErr_Occurred();
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
        mem->bad = -1;
        for (k = 0; k < 3; k++) {
            mem->buf[k] = PyByteArray_FromStringAndSize(NULL, sizeof(double));
            if (mem->buf[k] == NULL)
                goto fail;
            ((double *)PyByteArray_AS_STRING(mem->buf[k]))[0] = state[k];
        }
    }
    *count = n;
    goto done;
fail:
    for (; m >= 0; m--)
        for (k = 0; k < 3; k++)
            Py_XDECREF(members[m].buf[k]);
    PyMem_Free(members);
    members = NULL;
done:
    Py_DECREF(seeds);
    Py_XDECREF(offsets);
    return members;
}

static void
retire(Member *mem, int outcome)
{
    mem->outcome = outcome;
    Py_CLEAR(mem->buf[0]);
    Py_CLEAR(mem->buf[1]);
    Py_CLEAR(mem->buf[2]);
}

/* (outcome, lambda at each stop that passed Topfer's test, fp at the last
 * stop walked or None, blow-up node, f, fp, fpp) */
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
    else if ((fp_stop = PyFloat_FromDouble(mem->fp_stop)) == NULL) {
        Py_DECREF(taken);
        return NULL;
    }
    return Py_BuildValue("(iNNnOOO)", mem->outcome, taken, fp_stop, mem->bad,
                         mem->buf[0] ? mem->buf[0] : Py_None,
                         mem->buf[1] ? mem->buf[1] : Py_None,
                         mem->buf[2] ? mem->buf[2] : Py_None);
}

static PyObject *
walk_blasius_family(PyObject *self, PyObject *args)
{
    double beta, h, tol;
    PyObject *stops_obj, *seeds_obj, *offsets_obj, *result = NULL;
    Py_ssize_t *stops = NULL, *live = NULL;
    Py_ssize_t nstops = 0, n = 0, nlive, j, m, k, start = 0;
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

        /* grown stop by stop: a live member never holds a node past its
         * current stop */
        for (m = 0; m < nlive; m++)
            for (k = 0; k < 3; k++)
                if (PyByteArray_Resize(members[live[m]].buf[k],
                                       (stop + 1) * (Py_ssize_t)sizeof(double)) < 0)
                    goto done;
        for (first = 0; first < nlive; first += LANES) {
            double *f[LANES], *fp[LANES], *fpp[LANES];
            Py_ssize_t bad[LANES];
            int lanes = (int)(nlive - first < LANES ? nlive - first : LANES), i;

            for (i = 0; i < lanes; i++) {
                Member *mem = &members[live[first + i]];
                f[i] = (double *)PyByteArray_AS_STRING(mem->buf[0]);
                fp[i] = (double *)PyByteArray_AS_STRING(mem->buf[1]);
                fpp[i] = (double *)PyByteArray_AS_STRING(mem->buf[2]);
            }
            walk_lanes(beta, h, lanes, f, fp, fpp, start, stop, bad);
            for (i = 0; i < lanes; i++)
                members[live[first + i]].bad = bad[i];
        }
        for (m = 0; m < nlive; m++) {
            Member *mem = &members[live[m]];
            double *lam = lams + live[m] * nstops, base;

            if (mem->bad >= 0) {
                retire(mem, BLOWUP);
                continue;
            }
            mem->fp_stop = ((double *)PyByteArray_AS_STRING(mem->buf[1]))[stop];
            mem->walked = j + 1;
            /* the tests of lambda_from_asymptote and lambda_moving_wall */
            base = mem->fp_stop + mem->offset;
            if (!(base > 0.0) || !isfinite(base)) {
                retire(mem, BREAKDOWN);
                continue;
            }
            lam[j] = sqrt(base);
            if (nstops == 1 || (j > 0 && fabs(lam[j] - lam[j - 1]) <= tol)) {
                mem->outcome = ACCEPTED;
                continue;
            }
            if (j == nstops - 1) {
                retire(mem, NO_AGREEMENT);
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
    if (members != NULL)
        for (m = 0; m < n; m++)
            for (k = 0; k < 3; k++)
                Py_XDECREF(members[m].buf[k]);
    PyMem_Free(members);
    PyMem_Free(live);
    PyMem_Free(lams);
    PyMem_Free(stops);
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
     "end. Returns one (outcome, lambdas, fp_stop, bad, f, fp, fpp) per\n"
     "seed; see nitm._kernels_py.walk_blasius_family."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "nitm._kernels",
    .m_doc = "Compiled RK4 fill and batched walk for the Blasius family; "
              "twin of nitm._kernels_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
