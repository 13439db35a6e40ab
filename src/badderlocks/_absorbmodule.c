/* CPython extension module over the absorb loops of _absorb.c, which it
 * includes as it is, for badderlocks.fastcrc.
 *
 * Every function takes the vectorcall convention (METH_FASTCALL, PEP 590)
 * and its arrays as buffers: the register and each table as native 64-bit
 * words, the codeword map as 256 native 16-bit words, the data as bytes.
 * Each call checks every size against the word counts the tables carry,
 * and that the words it writes share no memory with those it reads, before
 * it writes a word: a buffer that is no buffer, not contiguous or not
 * writable where it must be raises TypeError, one of the wrong size or
 * alignment ValueError.  An absorb of RELEASE_BYTES or more runs without
 * the GIL; the buffers it holds keep their memory in place meanwhile.
 *
 *   absorb, absorb_clmul, absorb_vpclmul (reg, table, codewords, data)
 *   absorb_split_clmul, absorb_split_vpclmul (reg, table, codewords, data,
 *       n2, k) -> True if the worker thread absorbed its part
 *   combine_clmul, combine_vpclmul (reg, table, k, s)
 *   fill (table), fill_carryless (table)
 *   digest (reg, degree) -> the register's degree-bit value as
 *       ceil(degree / 8) big-endian bytes
 *   carryless () -> 0, 1 or 2, which carry-less loops this CPU runs
 *   TAIL_WORDS, the words of a carry-less table after G's whole blocks
 *
 * There are two kinds of table, rows (absorb, fill) and carry-less (the
 * rest), and one register bound for both and for digest: w <= MAX_WORDS.
 * Both carry-less kernels read the same table, whose mu' fill_carryless
 * computes in place.  The clmul, vpclmul and fill_carryless functions exist
 * on x86-64 only.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include "_absorb.c"

/* Releasing and retaking the GIL added about 0.05 us to a call on a 2-core
 * AVX-512 VM, where 4 KiB took 2-7 us to absorb on vpclmul and 5-22 us by
 * the clmul word step at 64-4288 bits; holding the GIL that long delays
 * other threads far less than the interpreter's 5 ms switch interval. */
#define RELEASE_BYTES 4096

typedef void loop_fn(uint64_t *restrict reg, const uint64_t *restrict table, const uint16_t *cw,
                     const uint8_t *data, size_t n);
typedef int split_fn(uint64_t *reg, const uint64_t *table, const uint16_t *cw, const uint8_t *data,
                     size_t n, size_t n2, const uint64_t *k);
typedef void combine_step(uint64_t *reg, const uint64_t *restrict table, const uint64_t *k,
                          const uint64_t *s);

/* The kinds of table: the table walk's and the carry-less kernels'. */
enum kind { ROWS_TABLE, CARRYLESS_TABLE };

/* One absorb path: its loop and, on the carry-less paths, its two-thread
 * entry and combine step, and the kind of table it reads. */
struct path {
    loop_fn *loop;
    split_fn *split;
    combine_step *combine;
    enum kind kind;
};

static const struct path table_path = {absorb, NULL, NULL, ROWS_TABLE};
#if defined(__x86_64__)
static const struct path clmul_path = {absorb_clmul, absorb_split_clmul, combine_clmul,
                                       CARRYLESS_TABLE};
static const struct path vpclmul_path = {absorb_vpclmul, absorb_split_vpclmul, combine_vpclmul,
                                         CARRYLESS_TABLE};
#endif

/* The buffers a call holds, released together. */
struct views {
    Py_buffer view[6];
    int held;
};

static void release(struct views *v)
{
    while (v->held)
        PyBuffer_Release(&v->view[--v->held]);
}

/* obj's buffer, contiguous and writable if asked, in whole aligned items of
 * item bytes; NULL with TypeError or ValueError naming it if not. */
static Py_buffer *take(struct views *v, PyObject *obj, const char *name, int writable, size_t item)
{
    Py_buffer *view = &v->view[v->held];
    if (PyObject_GetBuffer(obj, view, writable ? PyBUF_WRITABLE : PyBUF_SIMPLE) < 0) {
        PyErr_Format(PyExc_TypeError, "%s must be a %scontiguous bytes-like object, not %.100s",
                     name, writable ? "writable " : "", Py_TYPE(obj)->tp_name);
        return NULL;
    }
    v->held++;
    if ((size_t)view->len % item || (uintptr_t)view->buf % item) {
        PyErr_Format(PyExc_ValueError, "%s must be whole aligned %zu-byte words", name, item);
        return NULL;
    }
    return view;
}

static size_t items(const Py_buffer *view, size_t item) { return (size_t)view->len / item; }

/* Whether the register shares no byte with a buffer the call reads; ValueError if it does. */
static int apart(const Py_buffer *reg, const Py_buffer *read)
{
    const char *a = reg->buf, *b = read->buf;
    if (!read->len || a + reg->len <= b || b + read->len <= a)
        return 1;
    PyErr_SetString(PyExc_ValueError, "reg must not overlap what the call reads");
    return 0;
}

/* w, the word count the table starts with, if it is 1 to MAX_WORDS and the
 * table is long enough for it on the given kind of path; 0 with ValueError
 * if not.  The table walk reads 1 + 512w words, the carry-less loops
 * CARRYLESS_WORDS(w). */
static size_t table_words(const Py_buffer *table, enum kind kind)
{
    const uint64_t *t = table->buf;
    size_t n = items(table, 8), w = n ? t[0] : 0;
    if (w < 1 || w > MAX_WORDS || n < (kind == ROWS_TABLE ? 1 + 512 * w : CARRYLESS_WORDS(w))) {
        PyErr_Format(PyExc_ValueError,
                     "table must start with a word count from 1 to %d and hold the words "
                     "that count needs", MAX_WORDS);
        return 0;
    }
    return w;
}

/* Whether a buffer holds exactly w words; ValueError naming it if not. */
static int holds_words(const Py_buffer *view, size_t w, const char *name)
{
    if (items(view, 8) == w)
        return 1;
    PyErr_Format(PyExc_ValueError, "%s must hold the table's %zu words", name, w);
    return 0;
}

static int arguments(Py_ssize_t given, Py_ssize_t wanted, const char *name)
{
    if (given == wanted)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, wanted, given);
    return 0;
}

/* (reg, table, codewords, data), and with split (..., n2, k). */
static PyObject *absorb_call(const struct path *p, int split, PyObject *const *args,
                             Py_ssize_t nargs, const char *name)
{
    if (!arguments(nargs, split ? 6 : 4, name))
        return NULL;
    struct views v = {.held = 0};
    PyObject *result = NULL;
    Py_buffer *reg, *table, *cw, *data, *k = NULL;
    if (!(reg = take(&v, args[0], "reg", 1, 8)) || !(table = take(&v, args[1], "table", 0, 8)))
        goto done;
    size_t w = table_words(table, p->kind);
    if (!w || !holds_words(reg, w, "reg") || !(cw = take(&v, args[2], "codewords", 0, 2)) ||
        !(data = take(&v, args[3], "data", 0, 1)))
        goto done;
    if (items(cw, 2) < 256) {
        PyErr_SetString(PyExc_ValueError, "codewords must map all 256 byte values");
        goto done;
    }
    size_t n = (size_t)data->len, n2 = 0;
    if (split) {
        Py_ssize_t given = PyLong_AsSsize_t(args[4]);
        if (given == -1 && PyErr_Occurred())
            goto done;
        if (given < 0 || (size_t)given > n) {
            PyErr_SetString(PyExc_ValueError, "n2 must be from 0 to the data's length");
            goto done;
        }
        n2 = (size_t)given;
        if (!(k = take(&v, args[5], "k", 0, 8)) || !holds_words(k, w, "k"))
            goto done;
    }
    for (int i = 1; i < v.held; i++)
        if (!apart(reg, &v.view[i]))
            goto done;
    /* what Py_BEGIN_ALLOW_THREADS and Py_END_ALLOW_THREADS do, from RELEASE_BYTES up */
    PyThreadState *released = n >= RELEASE_BYTES ? PyEval_SaveThread() : NULL;
    int took = 0;
    if (split)
        took = p->split(reg->buf, table->buf, cw->buf, data->buf, n, n2, k->buf);
    else
        p->loop(reg->buf, table->buf, cw->buf, data->buf, n);
    if (released)
        PyEval_RestoreThread(released);
    result = split ? PyBool_FromLong(took) : Py_NewRef(Py_None);
done:
    release(&v);
    return result;
}

/* (reg, table, k, s): reg = reg * k * x^d + s mod g. */
static PyObject *combine_call(const struct path *p, PyObject *const *args, Py_ssize_t nargs,
                              const char *name)
{
    if (!arguments(nargs, 4, name))
        return NULL;
    struct views v = {.held = 0};
    PyObject *result = NULL;
    Py_buffer *reg, *table, *k, *s;
    if (!(reg = take(&v, args[0], "reg", 1, 8)) || !(table = take(&v, args[1], "table", 0, 8)))
        goto done;
    size_t w = table_words(table, p->kind);
    if (!w || !holds_words(reg, w, "reg") || !(k = take(&v, args[2], "k", 0, 8)) ||
        !holds_words(k, w, "k") || !(s = take(&v, args[3], "s", 0, 8)) ||
        !holds_words(s, w, "s"))
        goto done;
    for (int i = 1; i < v.held; i++)
        if (!apart(reg, &v.view[i]))
            goto done;
    p->combine(reg->buf, table->buf, k->buf, s->buf);
    result = Py_NewRef(Py_None);
done:
    release(&v);
    return result;
}

static PyObject *py_absorb(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return absorb_call(&table_path, 0, args, nargs, "absorb");
}

#if defined(__x86_64__)
static PyObject *py_absorb_clmul(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return absorb_call(&clmul_path, 0, args, nargs, "absorb_clmul");
}

static PyObject *py_absorb_vpclmul(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return absorb_call(&vpclmul_path, 0, args, nargs, "absorb_vpclmul");
}

static PyObject *py_absorb_split_clmul(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return absorb_call(&clmul_path, 1, args, nargs, "absorb_split_clmul");
}

static PyObject *py_absorb_split_vpclmul(PyObject *module, PyObject *const *args,
                                         Py_ssize_t nargs)
{
    (void)module;
    return absorb_call(&vpclmul_path, 1, args, nargs, "absorb_split_vpclmul");
}

static PyObject *py_combine_clmul(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return combine_call(&clmul_path, args, nargs, "combine_clmul");
}

static PyObject *py_combine_vpclmul(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return combine_call(&vpclmul_path, args, nargs, "combine_vpclmul");
}
#endif

/* (table): fill_fn(table) once the table is checked as the given kind. */
static PyObject *fill_call(void (*fill_fn)(uint64_t *), enum kind kind, PyObject *const *args,
                           Py_ssize_t nargs, const char *name)
{
    if (!arguments(nargs, 1, name))
        return NULL;
    struct views v = {.held = 0};
    Py_buffer *table = take(&v, args[0], "table", 1, 8);
    int ok = table && table_words(table, kind);
    if (ok)
        fill_fn(table->buf);
    release(&v);
    return ok ? Py_NewRef(Py_None) : NULL;
}

/* (table): the table walk's 503 rows that are sums of its nine basis rows. */
static PyObject *py_fill(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return fill_call(fill, ROWS_TABLE, args, nargs, "fill");
}

#if defined(__x86_64__)
/* (table): mu' into a carry-less table's zero tail. */
static PyObject *py_fill_carryless(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return fill_call(fill_carryless, CARRYLESS_TABLE, args, nargs, "fill_carryless");
}
#endif

/* (reg, degree): the register moved down pad = 64w - degree bits, as
 * size = ceil(degree / 8) big-endian bytes, written from the least
 * significant word up; the value has degree bits, so the top 8w - size bytes
 * it drops are zero. */
static PyObject *py_digest(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (!arguments(nargs, 2, "digest"))
        return NULL;
    struct views v = {.held = 0};
    PyObject *result = NULL;
    Py_buffer *view = take(&v, args[0], "reg", 0, 8);
    if (!view)
        goto done;
    size_t w = items(view, 8);
    Py_ssize_t degree = PyLong_AsSsize_t(args[1]);
    if (degree == -1 && PyErr_Occurred())
        goto done;
    if (w < 1 || w > MAX_WORDS || degree <= 64 * ((Py_ssize_t)w - 1) ||
        degree > 64 * (Py_ssize_t)w) {
        PyErr_Format(PyExc_ValueError, "reg must hold ceil(degree / 64) words, 1 to %d",
                     MAX_WORDS);
        goto done;
    }
    Py_ssize_t size = (degree + 7) / 8;
    if (!(result = PyBytes_FromStringAndSize(NULL, size)))
        goto done;
    const uint64_t *reg = view->buf;
    uint8_t *out = (uint8_t *)PyBytes_AS_STRING(result);
    unsigned pad = (unsigned)(64 * w - (size_t)degree);
    size_t at = (size_t)size;
    for (size_t i = w; i-- > 0 && at;) {
        uint64_t word = pad ? reg[i] >> pad | (i ? reg[i - 1] << (64 - pad) : 0) : reg[i];
        if (at >= 8) {
            at -= 8;
            for (unsigned j = 8; j-- > 0; word >>= 8)
                out[at + j] = (uint8_t)word;
        } else
            for (; at; word >>= 8)
                out[--at] = (uint8_t)word;
    }
done:
    release(&v);
    return result;
}

static PyObject *py_carryless(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    (void)args;
    return arguments(nargs, 0, "carryless") ? PyLong_FromLong(carryless()) : NULL;
}

#define FASTCALL(name, function) \
    {name, (PyCFunction)(void (*)(void))function, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    FASTCALL("absorb", py_absorb),
#if defined(__x86_64__)
    FASTCALL("absorb_clmul", py_absorb_clmul),
    FASTCALL("absorb_vpclmul", py_absorb_vpclmul),
    FASTCALL("absorb_split_clmul", py_absorb_split_clmul),
    FASTCALL("absorb_split_vpclmul", py_absorb_split_vpclmul),
    FASTCALL("combine_clmul", py_combine_clmul),
    FASTCALL("combine_vpclmul", py_combine_vpclmul),
    FASTCALL("fill_carryless", py_fill_carryless),
#endif
    FASTCALL("fill", py_fill),
    FASTCALL("digest", py_digest),
    FASTCALL("carryless", py_carryless),
    {NULL, NULL, 0, NULL},
};

static int add_constants(PyObject *module)
{
    return PyModule_AddIntConstant(module, "TAIL_WORDS", TAIL_WORDS);
}

static PyModuleDef_Slot slots[] = {{Py_mod_exec, add_constants}, {0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_absorb",
    .m_doc = "The absorb loops of badderlocks.fastcrc over buffers.", .m_size = 0,
    .m_methods = methods, .m_slots = slots,
};

PyMODINIT_FUNC PyInit__absorb(void) { return PyModuleDef_Init(&module); }
