/* Compiled twin of garside_py: left-greedy Garside normal forms in B_d.
 *
 * Same conventions as braidfact._kernel.garside_py, written directly
 * against the CPython API: normal_form(d, letters) folds the word into
 * runs of letters that stay one permutation braid, and product(d, keys)
 * multiplies normal-form keys (inf, factors) left to right; both entries
 * share one Delta shift and one comb.  The pure kernel checks nothing;
 * this one checks everything, because a bad letter or image would index
 * out of bounds here: the strand count and every letter, key and image
 * are validated (TypeError for a non-integer, ValueError for a value out
 * of range).  tests/test_kernel.py holds both entries to the pure twin and to
 * a brute-force reference.  setup.py builds it as an optional extension.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* Make the adjacent factor pair (a, b) left-weighted in place; ai and bi
 * are the inverses.  Returns 1 if a changed.  Sliding crossing i
 * (a <- a * s_i, b <- s_i * b) swaps the contents (ai[i], b[i]) and
 * (ai[i + 1], b[i + 1]); one insertion pass moves each position's content
 * left past every neighbour it may slide under (see garside_py._fix_pair). */
static int
fix_pair(int *a, int *ai, int *b, int *bi, int d)
{
    int changed = 0;
    for (int k = 1; k < d; k++) {
        int x = ai[k], y = b[k], j = k;
        while (j > 0 && b[j - 1] > y && ai[j - 1] < x) {
            ai[j] = ai[j - 1];
            b[j] = b[j - 1];
            a[ai[j]] = j;
            bi[b[j]] = j;
            j--;
        }
        if (j < k) {
            ai[j] = x;
            b[j] = y;
            a[x] = j;
            bi[y] = j;
            changed = 1;
        }
    }
    return changed;
}

static int
is_identity(const int *p, int d)
{
    for (int x = 0; x < d; x++)
        if (p[x] != x)
            return 0;
    return 1;
}

static int
is_w0(const int *p, int d)
{
    for (int x = 0; x < d; x++)
        if (p[x] != d - 1 - x)
            return 0;
    return 1;
}

/* p <- tau(p) = w0 . p . w0 in place. */
static void
tau(int *p, int d)
{
    for (int x = 0, y = d - 1; x <= y; x++, y--) {
        int u = d - 1 - p[y];
        p[y] = d - 1 - p[x];
        p[x] = u;
    }
}

/* Move every Delta power of Delta^p_0 raw_0 Delta^p_1 raw_1 ... Delta^t to
 * the front: a factor passing Delta^n becomes tau^n of itself, so only
 * parities matter here; odd[j] is that of p_j, odd_trailing that of t.  The
 * caller keeps the total power. */
static void
shift(int *raw, const char *odd, Py_ssize_t n, int odd_trailing, int d)
{
    int dp = odd_trailing;
    for (Py_ssize_t j = n - 1; j >= 0; j--) {
        if (dp)
            tau(raw + j * d, d);
        dp ^= odd[j];
    }
}

/* Remove factor m from the k factors held in fac and inv. */
static void
drop(int *fac, int *inv, Py_ssize_t m, Py_ssize_t k, int d)
{
    size_t size = (size_t)(k - m - 1) * d * sizeof(int);
    memmove(fac + m * d, fac + (m + 1) * d, size);
    memmove(inv + m * d, inv + (m + 1) * d, size);
}

static int *
alloc_ints(Py_ssize_t n, int d)
{
    int *p;
    if (n > PY_SSIZE_T_MAX / d / (Py_ssize_t)sizeof(int)) {
        PyErr_NoMemory();
        return NULL;
    }
    p = PyMem_Malloc((size_t)(n > 0 ? n : 1) * d * sizeof(int));
    if (p == NULL)
        PyErr_NoMemory();
    return p;
}

/* Left normal form of Delta^inf * raw_0 * ... * raw_(n-1) as (inf, factors);
 * raw holds n permutation braids of d ints each and is overwritten. */
static PyObject *
comb(int d, PyObject *inf, int *raw, Py_ssize_t n)
{
    int *fac = raw;
    int *inv = alloc_ints(n, d);
    Py_ssize_t k = 0, m, folds = 0;
    PyObject *out, *folds_obj, *total, *result;

    if (inv == NULL)
        return NULL;

    /* Append factors one at a time, combing backwards after each append
     * (one pass suffices by the domino rule; see garside_py._comb); the
     * kept factors are compacted to the front of raw.  A half twist at
     * slot m, appended or formed by a pair step, is folded into the Delta
     * power at once: it is dropped, the m factors before it become tau(x),
     * and the comb of this append stops (see garside_py._comb for why that
     * is the form the slides give). */
    for (Py_ssize_t j = 0; j < n; j++) {
        int *p = raw + j * d;
        if (is_identity(p, d))
            continue;
        if (k < j)
            memcpy(fac + k * d, p, (size_t)d * sizeof(int));
        for (int x = 0; x < d; x++)
            inv[k * d + fac[k * d + x]] = x;
        k++;
        for (m = k - 1; m > 0 && !is_w0(fac + m * d, d); m--) {
            if (!fix_pair(fac + (m - 1) * d, inv + (m - 1) * d,
                          fac + m * d, inv + m * d, d))
                break;
            if (is_identity(fac + m * d, d)) {
                drop(fac, inv, m, k, d);
                k--;
            }
        }
        if (is_w0(fac + m * d, d)) {
            drop(fac, inv, m, k, d);
            k--;
            for (Py_ssize_t r = 0; r < m; r++) {
                tau(fac + r * d, d);
                tau(inv + r * d, d);
            }
            folds++;
        }
    }

    PyMem_Free(inv);

    out = PyTuple_New(k);
    if (out == NULL)
        return NULL;
    for (m = 0; m < k; m++) {
        PyObject *t = PyTuple_New(d);
        if (t == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, m, t);
        for (int x = 0; x < d; x++) {
            PyObject *v = PyLong_FromLong(fac[m * d + x]);
            if (v == NULL) {
                Py_DECREF(out);
                return NULL;
            }
            PyTuple_SET_ITEM(t, x, v);
        }
    }

    result = NULL;
    folds_obj = PyLong_FromSsize_t(folds);
    if (folds_obj != NULL) {
        total = PyNumber_Add(inf, folds_obj);
        Py_DECREF(folds_obj);
        if (total != NULL) {
            result = PyTuple_Pack(2, total, out);
            Py_DECREF(total);
        }
    }
    Py_DECREF(out);
    return result;
}

PyDoc_STRVAR(normal_form_doc,
"normal_form(d, letters)\n--\n\n"
"Left normal form (inf, permutation factors) of a signed-letter word.");

static PyObject *
normal_form(PyObject *Py_UNUSED(self), PyObject *args)
{
    int d;
    PyObject *letters, *seq, *inf, *result = NULL;
    Py_ssize_t n;
    int *raw = NULL, *pi = NULL, *p = NULL;
    char *negative = NULL;
    Py_ssize_t m = 0;
    long dp = 0;

    if (!PyArg_ParseTuple(args, "iO:normal_form", &d, &letters))
        return NULL;
    if (d < 1) {
        PyErr_SetString(PyExc_ValueError, "strand count must be >= 1");
        return NULL;
    }
    seq = PySequence_Tuple(letters);
    if (seq == NULL)
        return NULL;
    n = PyTuple_GET_SIZE(seq);
    if (n == 0) {
        Py_DECREF(seq);
        return Py_BuildValue("(i())", 0);
    }

    raw = alloc_ints(n, d);
    pi = alloc_ints(1, d);
    negative = PyMem_Malloc((size_t)n);
    if (raw == NULL || pi == NULL || negative == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    /* Consecutive letters accumulate into one run r, a permutation braid
     * held as images p and inverse pi.  X_i joins r while s_i does not
     * right-divide it (pi[i] < pi[i+1]), adding a crossing; X_i^-1 joins
     * while s_i does, cancelling that crossing.  Either way r becomes
     * r s_i.  Any other letter opens a new run: the identity for X_i, and
     * for X_i^-1 = Delta^-1 (Delta X_i^-1) the half twist w0 with one
     * inverse half twist, before the letter is applied.  The m runs fill
     * the front of raw. */
    for (Py_ssize_t j = 0; j < n; j++) {
        PyObject *item = PyTuple_GET_ITEM(seq, j);
        int overflow, i, x, y;
        long k = PyLong_AsLongAndOverflow(item, &overflow);
        if (k == -1 && PyErr_Occurred())
            goto done;
        if (overflow || k == 0 || k > d - 1 || k < -(long)(d - 1)) {
            PyErr_Format(PyExc_ValueError,
                         "letter %R out of range for %d strands", item, d);
            goto done;
        }
        i = (int)(k > 0 ? k : -k) - 1;
        if (m == 0 || (pi[i] < pi[i + 1]) != (k > 0)) {
            p = raw + m * d;
            negative[m++] = k < 0;
            dp -= k < 0;
            for (x = 0; x < d; x++)
                p[x] = pi[x] = k > 0 ? x : d - 1 - x;
        }
        x = pi[i];
        y = pi[i + 1];
        p[x] = i + 1;
        p[y] = i;
        pi[i] = y;
        pi[i + 1] = x;
    }

    /* Each run opened by an inverse letter carries one Delta^-1. */
    shift(raw, negative, m, 0, d);
    inf = PyLong_FromLong(dp);
    if (inf != NULL) {
        result = comb(d, inf, raw, m);
        Py_DECREF(inf);
    }

done:
    PyMem_Free(raw);
    PyMem_Free(pi);
    PyMem_Free(negative);
    Py_DECREF(seq);
    return result;
}

PyDoc_STRVAR(product_doc,
"product(d, keys)\n--\n\n"
"Left normal form of the product of keys (inf, factors), left to right,\n"
"each (inf, factors) the braid Delta^inf * F_1 * ... * F_n, each F_i a\n"
"permutation braid given by its images of range(d) (the identity and\n"
"Delta allowed).");

static PyObject *
product(PyObject *Py_UNUSED(self), PyObject *args)
{
    int d, pending = 0;
    PyObject *keys, *it, *key, *rows = NULL, *odds = NULL, *total, *result = NULL;
    Py_ssize_t n;
    int *raw = NULL;
    char *odd = NULL, *seen = NULL;

    if (!PyArg_ParseTuple(args, "iO:product", &d, &keys))
        return NULL;
    if (d < 1) {
        PyErr_SetString(PyExc_ValueError, "strand count must be >= 1");
        return NULL;
    }
    it = PyObject_GetIter(keys);
    if (it == NULL)
        return NULL;
    total = PyLong_FromLong(0);
    rows = PyList_New(0);
    odds = PyList_New(0);
    if (total == NULL || rows == NULL || odds == NULL)
        goto done;

    /* Every factor becomes a tuple of length d before anything of size
     * n * d is allocated.  Each key's inf is summed whole, and its parity
     * is carried by the key's first factor, or by the next key's if it has
     * none; pending holds the parity not yet carried. */
    while ((key = PyIter_Next(it)) != NULL) {
        PyObject *pair = PySequence_Fast(key, "key is not an (inf, factors) pair");
        PyObject *inf, *sum, *fit, *f;
        Py_DECREF(key);
        if (pair == NULL)
            goto done;
        if (PySequence_Fast_GET_SIZE(pair) != 2) {
            PyErr_Format(PyExc_ValueError, "key %R is not an (inf, factors) pair", pair);
            Py_DECREF(pair);
            goto done;
        }
        inf = PyNumber_Index(PySequence_Fast_GET_ITEM(pair, 0));
        fit = inf == NULL ? NULL : PyObject_GetIter(PySequence_Fast_GET_ITEM(pair, 1));
        Py_DECREF(pair);
        if (fit == NULL) {
            Py_XDECREF(inf);
            goto done;
        }
        sum = PyNumber_Add(total, inf);
        pending ^= (int)(PyLong_AsUnsignedLongMask(inf) & 1);  /* inf mod 2^k */
        Py_DECREF(inf);
        if (sum == NULL) {
            Py_DECREF(fit);
            goto done;
        }
        Py_DECREF(total);
        total = sum;
        while ((f = PyIter_Next(fit)) != NULL) {
            PyObject *t = PySequence_Tuple(f);
            int bad = t == NULL;
            if (!bad && PyTuple_GET_SIZE(t) != d) {
                PyErr_Format(PyExc_ValueError,
                             "factor %R is not a permutation of range(%d)", f, d);
                bad = 1;
            }
            Py_DECREF(f);
            if (!bad)
                bad = PyList_Append(rows, t) < 0
                      || PyList_Append(odds, pending ? Py_True : Py_False) < 0;
            Py_XDECREF(t);
            if (bad) {
                Py_DECREF(fit);
                goto done;
            }
            pending = 0;
        }
        Py_DECREF(fit);
        if (PyErr_Occurred())
            goto done;
    }
    if (PyErr_Occurred())
        goto done;
    n = PyList_GET_SIZE(rows);

    raw = alloc_ints(n, d);
    odd = PyMem_Malloc((size_t)(n > 0 ? n : 1));
    seen = PyMem_Malloc((size_t)d);
    if (raw == NULL || odd == NULL || seen == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t j = 0; j < n; j++) {
        PyObject *t = PyList_GET_ITEM(rows, j);
        odd[j] = PyList_GET_ITEM(odds, j) == Py_True;
        memset(seen, 0, (size_t)d);
        for (int x = 0; x < d; x++) {
            int overflow;
            long v = PyLong_AsLongAndOverflow(PyTuple_GET_ITEM(t, x), &overflow);
            if (v == -1 && PyErr_Occurred())
                goto done;
            if (overflow || v < 0 || v >= d || seen[v]) {
                PyErr_Format(PyExc_ValueError,
                             "factor %R is not a permutation of range(%d)", t, d);
                goto done;
            }
            seen[v] = 1;
            raw[j * d + x] = (int)v;
        }
    }

    if (d == 1)  /* the half twist of B_1 is the identity */
        result = Py_BuildValue("(i())", 0);
    else {
        shift(raw, odd, n, pending, d);
        result = comb(d, total, raw, n);
    }

done:
    PyMem_Free(raw);
    PyMem_Free(odd);
    PyMem_Free(seen);
    Py_XDECREF(rows);
    Py_XDECREF(odds);
    Py_XDECREF(total);
    Py_DECREF(it);
    return result;
}

static PyMethodDef garside_methods[] = {
    {"normal_form", normal_form, METH_VARARGS, normal_form_doc},
    {"product", product, METH_VARARGS, product_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef garside_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_garside",
    .m_doc = "Compiled twin of garside_py: left-greedy Garside normal forms in B_d.",
    .m_size = -1,
    .m_methods = garside_methods,
};

PyMODINIT_FUNC
PyInit__garside(void)
{
    PyObject *m = PyModule_Create(&garside_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "IMPL_NAME", "compiled") < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
