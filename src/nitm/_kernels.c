/* Compiled integration kernel for the Blasius family.
 *
 * Twin of nitm._kernels_py; see that module for the contract. The RK4
 * step below is the same sequence of operations in the same order, and
 * it must be compiled with -ffp-contract=off and without -ffast-math
 * (no fused multiply-add, no reassociation) so that the two kernels
 * agree bit for bit.
 *
 * Built by setup.py as the extension nitm._kernels, or on first import
 * by nitm.kernels into the package's __pycache__.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

#define BLOWUP_LIMIT 1e12

static Py_ssize_t
fill(double beta, double *f, double *fp, double *fpp, double h,
     Py_ssize_t start, Py_ssize_t stop)
{
    const double mb = -beta;
    const double h2 = 0.5 * h;
    const double h6 = h / 6.0;
    double cf = f[start], cp = fp[start], cq = fpp[start];
    double k1f, k1p, k1q, k2f, k2p, k2q, k3f, k3p, k3q, k4f, k4p, k4q;
    double tf, tp, tq;
    Py_ssize_t i;

    for (i = start; i < stop; i++) {
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
        cf = cf + h6 * (k1f + 2.0 * (k2f + k3f) + k4f);
        cp = cp + h6 * (k1p + 2.0 * (k2p + k3p) + k4p);
        cq = cq + h6 * (k1q + 2.0 * (k2q + k3q) + k4q);
        /* NaN fails every comparison, so it counts as a blow-up */
        if (!(fabs(cf) <= BLOWUP_LIMIT && fabs(cp) <= BLOWUP_LIMIT
              && fabs(cq) <= BLOWUP_LIMIT))
            return i + 1;
        f[i + 1] = cf;
        fp[i + 1] = cp;
        fpp[i + 1] = cq;
    }
    return -1;
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
    double beta, h;
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
    result = PyLong_FromSsize_t(fill(beta, views[0].buf, views[1].buf,
                                     views[2].buf, h, start, stop));
done:
    for (k = 0; k < acquired; k++)
        PyBuffer_Release(&views[k]);
    return result;
}

static PyMethodDef methods[] = {
    {"fill_blasius_family", fill_blasius_family, METH_VARARGS,
     "fill_blasius_family(beta, f, fp, fpp, h, start, stop)\n--\n\n"
     "Advance f''' = -beta*f*f'' from node start through node stop.\n\n"
     "Returns -1 on success, or the index of the first node whose state\n"
     "left [-1e12, 1e12] (that node is not written)."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "nitm._kernels",
    .m_doc = "Compiled RK4 fill for the Blasius family; twin of nitm._kernels_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
