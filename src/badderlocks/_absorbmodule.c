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
 *       q, k, k2) -> a Split, whose join() writes reg and returns how it
 *       went: 0 this thread absorbed the whole chunk, 1 it took the second
 *       part, 2 it waited for the worker thread to finish both parts, 3 the
 *       worker had finished them
 *   combine_clmul, combine_vpclmul (reg, table, k, s)
 *   fill (table), fill_carryless (table)
 *   carryless () -> 0, 1 or 2, which carry-less loops this CPU runs
 *   TAIL_WORDS, the words of a vpclmul table after G's whole blocks
 *   CrcEngine (entry, tables), fastcrc's engine over those functions
 *   tables_for (e) -> e's tables, from fastcrc's cache or build_tables
 *   engine_init (e) -> CrcEngine(e, _tables_for(e)), by fastcrc's names
 *   bind (namespace) -> (CrcEngine, engine_init, tables_for), once the
 *       three read fastcrc's names there
 *
 * Each function checks that its table holds what its kernel reads: rows
 * (absorb, fill), clmul's constants up to G's whole blocks, or vpclmul's,
 * which go on with the block step's tail that fill_carryless fills in place;
 * and one register bound, w <= MAX_WORDS, for all three and for the engine's
 * read of its register.  The clmul, vpclmul and fill_carryless functions
 * exist on x86-64 only.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <unistd.h>
#if defined(__linux__)
#include <sched.h>
#endif

#include "_absorb.c"

/* Releasing and retaking the GIL added about 0.05 us to a call on a 2-core
 * AVX-512 VM, where 4 KiB took 2-7 us to absorb on vpclmul and 5-22 us by
 * the clmul word step at 64-4288 bits; holding the GIL that long delays
 * other threads far less than the interpreter's 5 ms switch interval. */
#define RELEASE_BYTES 4096

struct split; /* _absorb.c's, on x86-64 */
typedef int split_fn(struct split *sp, uint64_t *reg, const uint64_t *table, const uint16_t *cw,
                     const uint8_t *data, size_t n, size_t q, const uint64_t *k,
                     const uint64_t *k2);

/* The kinds of table: the table walk's, the clmul kernel's and the vpclmul kernel's. */
enum kind { ROWS_TABLE, CLMUL_TABLE, VPCLMUL_TABLE };

/* One absorb path: its loop and, on the carry-less paths, its two-thread
 * entry and combine step, and the kind of table it reads. */
struct path {
    absorb_fn *loop;
    split_fn *split;
    combine_fn *combine;
    enum kind kind;
};

static const struct path table_path = {absorb, NULL, NULL, ROWS_TABLE};
#if defined(__x86_64__)
static const struct path clmul_path = {absorb_clmul, absorb_split_clmul, combine_clmul,
                                       CLMUL_TABLE};
static const struct path vpclmul_path = {absorb_vpclmul, absorb_split_vpclmul, combine_vpclmul,
                                         VPCLMUL_TABLE};
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
 * if not.  The table walk reads 1 + 512w words, clmul TAIL_AT(w) and vpclmul
 * CARRYLESS_WORDS(w). */
static size_t table_words(const Py_buffer *table, enum kind kind)
{
    const uint64_t *t = table->buf;
    size_t n = items(table, 8), w = n ? t[0] : 0;
    if (w < 1 || w > MAX_WORDS || n < (kind == ROWS_TABLE ? 1 + 512 * w
                                       : kind == CLMUL_TABLE ? TAIL_AT(w) : CARRYLESS_WORDS(w))) {
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

#if defined(__x86_64__)
/* A split chunk from its post to its join: the job, and the buffers it
 * reads and writes, which it holds until the join so that they stay in
 * place.  outcome is PENDING until the join, JOINING while it runs, then
 * what it gave; a split that found the worker owned is TOOK_ALL from the
 * start. */
typedef struct {
    PyObject_HEAD
    struct views v;
    int outcome;
    struct split sp;
} Split;

enum { PENDING = -1, JOINING = -2 };

PyDoc_STRVAR(split_join_doc,
             "join($self, /)\n--\n\n"
             "Finish the chunk into the register, from any thread, once; returns how it went: "
             "0 this\nthread absorbed the whole chunk, 1 it took the second part while the worker "
             "thread\nran the first, 2 it waited for the worker to finish both, 3 the worker had "
             "finished\nthem.  Repeat calls return the same.");

static PyObject *split_join_method(Split *self, PyObject *unused)
{
    (void)unused;
    if (self->outcome == JOINING) {
        PyErr_SetString(PyExc_RuntimeError, "the split is being joined on another thread");
        return NULL;
    }
    if (self->outcome == PENDING) {
        self->outcome = JOINING;
        int outcome;
        Py_BEGIN_ALLOW_THREADS
        outcome = split_join(&self->sp);
        Py_END_ALLOW_THREADS
        self->outcome = outcome;
        release(&self->v);
    }
    return PyLong_FromLong(self->outcome);
}

/* A split dropped before its join is joined here, with the GIL held, which
 * the worker does not need. */
static void split_dealloc(Split *self)
{
    PyTypeObject *type = Py_TYPE(self);
    if (self->outcome == PENDING)
        split_join(&self->sp);
    release(&self->v);
    type->tp_free(self);
    Py_DECREF(type);
}

static PyMethodDef split_methods[] = {
    {"join", (PyCFunction)split_join_method, METH_NOARGS, split_join_doc},
    {NULL, NULL, 0, NULL},
};

static PyType_Slot split_slots[] = {
    {Py_tp_doc, "A chunk absorbed on two threads, until its join."},
    {Py_tp_dealloc, split_dealloc},
    {Py_tp_methods, split_methods},
    {0, NULL},
};

static PyType_Spec split_spec = {
    .name = "badderlocks._absorb.Split", .basicsize = sizeof(Split),
    .flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_IMMUTABLETYPE | Py_TPFLAGS_DISALLOW_INSTANTIATION,
    .slots = split_slots,
};
#else
typedef struct {
    PyObject_HEAD
    struct views v;
} Split;
#endif

/* (reg, table, codewords, data), and with a split type (..., q, k, k2), which
 * returns a Split of that type holding the buffers until its join. */
static PyObject *absorb_call(const struct path *p, PyTypeObject *split_type, PyObject *const *args,
                             Py_ssize_t nargs, const char *name)
{
    if (!arguments(nargs, split_type ? 7 : 4, name))
        return NULL;
    struct views local = {.held = 0}, *v = &local;
    Split *job = NULL;
    if (split_type) { /* zeroed: no buffers held, nothing to join */
        if (!(job = (Split *)split_type->tp_alloc(split_type, 0)))
            return NULL;
        v = &job->v;
    }
    PyObject *result = NULL;
    Py_buffer *reg, *table, *cw, *data, *k = NULL, *k2 = NULL;
    int posted = 0;
    if (!(reg = take(v, args[0], "reg", 1, 8)) || !(table = take(v, args[1], "table", 0, 8)))
        goto done;
    size_t w = table_words(table, p->kind);
    if (!w || !holds_words(reg, w, "reg") || !(cw = take(v, args[2], "codewords", 0, 2)) ||
        !(data = take(v, args[3], "data", 0, 1)))
        goto done;
    if (items(cw, 2) < 256) {
        PyErr_SetString(PyExc_ValueError, "codewords must map all 256 byte values");
        goto done;
    }
    size_t n = (size_t)data->len;
    Py_ssize_t q = 0;
    if (split_type) {
        if ((q = PyLong_AsSsize_t(args[4])) == -1 && PyErr_Occurred())
            goto done;
        if (q < 0 || (size_t)q > n / 2) {
            PyErr_SetString(PyExc_ValueError, "q must be from 0 to half the data's length");
            goto done;
        }
        if (!(k = take(v, args[5], "k", 0, 8)) || !holds_words(k, w, "k") ||
            !(k2 = take(v, args[6], "k2", 0, 8)) || !holds_words(k2, w, "k2"))
            goto done;
    }
    for (int i = 1; i < v->held; i++)
        if (!apart(reg, &v->view[i]))
            goto done;
    /* what Py_BEGIN_ALLOW_THREADS and Py_END_ALLOW_THREADS do, from RELEASE_BYTES up */
    PyThreadState *released = n >= RELEASE_BYTES ? PyEval_SaveThread() : NULL;
#if defined(__x86_64__)
    if (job)
        posted = p->split(&job->sp, reg->buf, table->buf, cw->buf, data->buf, n, (size_t)q,
                          k->buf, k2->buf);
    else
#endif
        p->loop(reg->buf, table->buf, cw->buf, data->buf, n);
    if (released)
        PyEval_RestoreThread(released);
#if defined(__x86_64__)
    if (posted)
        job->outcome = PENDING;
#endif
    result = job ? Py_NewRef(job) : Py_NewRef(Py_None);
done:
    if (!posted)
        release(v);
    Py_XDECREF(job);
    return result;
}

static PyObject *py_absorb(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return absorb_call(&table_path, NULL, args, nargs, "absorb");
}

#if defined(__x86_64__)
static PyTypeObject *split_type_of(PyObject *module);

static PyObject *py_absorb_clmul(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return absorb_call(&clmul_path, NULL, args, nargs, "absorb_clmul");
}

static PyObject *py_absorb_vpclmul(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return absorb_call(&vpclmul_path, NULL, args, nargs, "absorb_vpclmul");
}

static PyObject *py_absorb_split_clmul(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return absorb_call(&clmul_path, split_type_of(module), args, nargs, "absorb_split_clmul");
}

static PyObject *py_absorb_split_vpclmul(PyObject *module, PyObject *const *args,
                                         Py_ssize_t nargs)
{
    return absorb_call(&vpclmul_path, split_type_of(module), args, nargs,
                       "absorb_split_vpclmul");
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
/* (table): mu' and the sums into a vpclmul table's zero tail. */
static PyObject *py_fill_carryless(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return fill_call(fill_carryless, VPCLMUL_TABLE, args, nargs, "fill_carryless");
}
#endif

static PyObject *py_carryless(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    (void)args;
    return arguments(nargs, 0, "carryless") ? PyLong_FromLong(carryless()) : NULL;
}

/* The engine type: fastcrc's CrcEngine class, without the interpreter's
 * frames and attribute lookups on the engine itself, and fastcrc's
 * engine_init and _tables_for, likewise.  The type adds the two-thread split,
 * which the Python class does not make: the split of a chunk, its join at
 * the next entry point (absorb, finish, register, _reg or dealloc), the
 * share rule and the split counters.  A chunk of _SPLIT_BYTES or more splits
 * on a table that has a split entry where the calling thread may run on two
 * CPUs or more, which it asks for that chunk.  The type's one constructor,
 * its vectorcall (no tp_new), fixes an engine's entry, tables and register,
 * and its counters are read-only, so its entry points read them in place.
 * The engine calls its tables' loop and split by vectorcall, never the C
 * loops directly, so each call passes the checks above, and joins a pending
 * split by its join method.  It reads its register itself (digest_of), which
 * every path lays out alike, with the same checks.  All three read fastcrc's
 * _SPLIT_BYTES, _shift, _CODEWORDS, _FILLER, ClassifierDigest, CrcEngine,
 * _tables_for, _table_cache and build_tables from the namespace bind() hands
 * them, at each call, as the Python class reads them, so what is patched
 * there reaches both.  The type is mutable, as a class is: attributes set on
 * it (a tracer's wrappers) take the place of its methods until restored. */

/* The names looked up: attributes of an engine's tables and entry and of a
 * digest, then globals of fastcrc; interned once per module. */
enum name {
    WORDS, MAIN, LOOP, SPLIT, PATH, DEGREE, INDEX, ALIGNED_BITS, FROM_BYTES, BIG, DATA, ENTRY,
    JOIN, SPLIT_BYTES, SHIFT, CODEWORDS, FILLER_MAP, CLASSIFIER_DIGEST, CRC_ENGINE, TABLES_FOR,
    TABLE_CACHE, BUILD_TABLES, NAMES
};
static const char *const name_text[NAMES] = {
    "words", "main", "loop", "split", "path", "degree", "index", "aligned_bits", "from_bytes",
    "big", "data", "entry", "join", "_SPLIT_BYTES", "_shift", "_CODEWORDS", "_FILLER",
    "ClassifierDigest", "CrcEngine", "_tables_for", "_table_cache", "build_tables",
};

typedef struct {
    PyObject *engine_type;
    PyObject *split_type; /* NULL where the split entries are not compiled */
    PyObject *namespace; /* fastcrc's globals, from bind(); NULL until then */
    PyObject *names[NAMES];
} module_state;

typedef struct {
    PyObject_HEAD
    PyObject *entry, *tables, *reg;
    PyObject *pending; /* the split of the last chunk until its join, or NULL */
    Py_ssize_t consumed, splits, splits_taken;
    size_t share; /* j of the last split's q = 2^j, moved by its join; SHARE_TOP before one */
    char finished;
} Engine;

/* The share rule: a split's q is 2^j, from 512 up to the largest power of two
 * <= n / 4, j = the engine's share cut to that range.  A join that found the
 * worker DONE lowers the share by one, any other raises it by one.  A chunk
 * under SPLIT_LEAST has no q with 2q <= n, so it never splits. */
enum { SHARE_FLOOR = 9, SHARE_TOP = 8 * sizeof(size_t) - 1, SPLIT_LEAST = 2 << SHARE_FLOOR };

static module_state *state_of(Engine *self) { return PyType_GetModuleState(Py_TYPE(self)); }

#if defined(__x86_64__)
static PyTypeObject *split_type_of(PyObject *module)
{
    return (PyTypeObject *)((module_state *)PyModule_GetState(module))->split_type;
}
#endif

static PyObject *attr(module_state *st, PyObject *obj, enum name name)
{
    return PyObject_GetAttr(obj, st->names[name]);
}

/* A new reference to fastcrc's global of that name; NameError if it has
 * none, RuntimeError before bind(). */
static PyObject *global(module_state *st, enum name name)
{
    if (!st->namespace) {
        PyErr_SetString(PyExc_RuntimeError, "the module is not bound: call bind() first");
        return NULL;
    }
    PyObject *value = PyDict_GetItemWithError(st->namespace, st->names[name]);
    if (!value && !PyErr_Occurred())
        PyErr_Format(PyExc_NameError, "name '%U' is not defined", st->names[name]);
    return Py_XNewRef(value);
}

/* fn(*args), for fn owner's attribute of that name, or fastcrc's global of
 * that name where owner is NULL. */
static PyObject *call(module_state *st, PyObject *owner, enum name name, PyObject *const *args,
                      size_t nargs)
{
    PyObject *fn = owner ? attr(st, owner, name) : global(st, name);
    PyObject *result = fn ? PyObject_Vectorcall(fn, args, nargs, NULL) : NULL;
    Py_XDECREF(fn);
    return result;
}

/* An engine's register, read at its entry's degree: moved down pad = 64w -
 * degree bits, as size = ceil(degree / 8) big-endian bytes, written from the
 * least significant word up; the value has degree bits, so the top 8w - size
 * bytes it drops are zero.  ValueError unless the register holds
 * ceil(degree / 64) whole aligned words, 1 to MAX_WORDS. */
static PyObject *digest_of(module_state *st, Engine *self)
{
    struct views v = {.held = 0};
    PyObject *entry_degree = attr(st, self->entry, DEGREE), *result = NULL;
    Py_buffer *view;
    if (!entry_degree || !(view = take(&v, self->reg, "reg", 0, 8)))
        goto done;
    size_t w = items(view, 8);
    Py_ssize_t degree = PyLong_AsSsize_t(entry_degree);
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
    Py_XDECREF(entry_degree);
    return result;
}

/* fastcrc's ClassifierDigest(data, entry) without the frame of its
 * __init__: that __init__'s length check, then the class's __new__ and its
 * two slots set. */
static PyObject *new_digest(module_state *st, PyObject *data, PyObject *entry)
{
    PyObject *cls = global(st, CLASSIFIER_DIGEST), *bits = NULL, *digest = NULL;
    if (!cls || !(bits = attr(st, entry, ALIGNED_BITS)))
        goto done;
    Py_ssize_t n = PyObject_Size(data), aligned = PyLong_AsSsize_t(bits);
    if ((n == -1 || aligned == -1) && PyErr_Occurred())
        goto done;
    if (n != aligned / 8 - (aligned % 8 < 0)) { /* len(data) != entry.aligned_bits // 8 */
        PyErr_SetString(PyExc_ValueError, "digest length does not match the entry's aligned size");
        goto done;
    }
    PyTypeObject *type = PyType_Check(cls) ? (PyTypeObject *)cls : NULL;
    if (!type || !type->tp_new) {
        PyErr_Format(PyExc_TypeError, "ClassifierDigest must be a class, not %.100s",
                     Py_TYPE(cls)->tp_name);
        goto done;
    }
    PyObject *no_args = PyTuple_New(0);
    digest = no_args ? type->tp_new(type, no_args, NULL) : NULL;
    Py_XDECREF(no_args);
    if (digest && (PyObject_SetAttr(digest, st->names[DATA], data) < 0 ||
                   PyObject_SetAttr(digest, st->names[ENTRY], entry) < 0))
        Py_CLEAR(digest);
done:
    Py_XDECREF(bits);
    Py_XDECREF(cls);
    return digest;
}

/* chunk where its raw bytes are contiguous, whatever the item size, else a
 * copy of them; their count in *n.  A non-buffer raises TypeError. */
static PyObject *raw_bytes(PyObject *chunk, Py_ssize_t *n)
{
    Py_buffer view;
    if (PyObject_GetBuffer(chunk, &view, PyBUF_FULL_RO) < 0)
        return NULL;
    *n = view.len;
    PyObject *data = PyBuffer_IsContiguous(&view, 'C') ? Py_NewRef(chunk)
                                                       : PyBytes_FromStringAndSize(NULL, view.len);
    if (data && data != chunk &&
        PyBuffer_ToContiguous(PyBytes_AS_STRING(data), &view, view.len, 'C') < 0)
        Py_CLEAR(data);
    PyBuffer_Release(&view);
    return data;
}

/* A new engine over entry and tables, its register zeroed. */
static PyObject *new_engine(PyTypeObject *type, PyObject *entry, PyObject *tables)
{
    PyObject *words = attr(PyType_GetModuleState(type), tables, WORDS);
    Py_ssize_t w = words ? PyLong_AsSsize_t(words) : -1;
    Py_XDECREF(words);
    if (w == -1 && PyErr_Occurred())
        return NULL;
    if (w < 0 || w > PY_SSIZE_T_MAX / 8) {
        PyErr_SetString(PyExc_ValueError, "tables.words must fit a register");
        return NULL;
    }
    PyObject *reg = PyByteArray_FromStringAndSize(NULL, 8 * w); /* laid out like a packed row */
    Engine *self = reg ? (Engine *)type->tp_alloc(type, 0) : NULL;
    if (!self) {
        Py_XDECREF(reg);
        return NULL;
    }
    memset(PyByteArray_AS_STRING(reg), 0, (size_t)(8 * w));
    self->share = SHARE_TOP;
    self->entry = Py_NewRef(entry);
    self->tables = Py_NewRef(tables);
    self->reg = reg;
    return (PyObject *)self;
}

static const char *const engine_keywords[] = {"entry", "tables"};

/* CrcEngine(entry, tables), by position or keyword: the type's one constructor. */
static PyObject *engine_vectorcall(PyObject *type, PyObject *const *args, size_t nargsf,
                                   PyObject *kwnames)
{
    PyObject *given[2] = {NULL, NULL};
    Py_ssize_t nargs = PyVectorcall_NARGS(nargsf), nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    for (Py_ssize_t i = 0; i < nargs && i < 2; i++)
        given[i] = args[i];
    for (Py_ssize_t i = 0; i < nkw && nargs <= 2; i++) {
        PyObject *key = PyTuple_GET_ITEM(kwnames, i);
        int at = PyUnicode_CompareWithASCIIString(key, engine_keywords[0]) ? 1 : 0;
        if (given[at] || PyUnicode_CompareWithASCIIString(key, engine_keywords[at])) {
            given[0] = NULL;
            break;
        }
        given[at] = args[nargs + i];
    }
    if (nargs + nkw != 2 || !given[0] || !given[1]) {
        PyErr_SetString(PyExc_TypeError, "CrcEngine() takes two arguments: entry and tables");
        return NULL;
    }
    return new_engine((PyTypeObject *)type, given[0], given[1]);
}

static int engine_traverse(Engine *self, visitproc visit, void *arg)
{
    Py_VISIT(Py_TYPE(self));
    Py_VISIT(self->entry);
    Py_VISIT(self->tables);
    Py_VISIT(self->reg);
    Py_VISIT(self->pending);
    return 0;
}

/* A pending split is dropped here, and its own dealloc joins it. */
static int engine_clear(Engine *self)
{
    Py_CLEAR(self->pending);
    Py_CLEAR(self->entry);
    Py_CLEAR(self->tables);
    Py_CLEAR(self->reg);
    return 0;
}

static void engine_dealloc(Engine *self)
{
    PyTypeObject *type = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    engine_clear(self);
    type->tp_free(self);
    Py_DECREF(type);
}

/* Whether the engine still holds its entry, tables and register, which
 * only engine_clear takes, all three at once, from an engine in a cycle the
 * collector frees; AttributeError if not. */
static int intact(Engine *self)
{
    if (self->reg)
        return 1;
    PyErr_SetString(PyExc_AttributeError, "'CrcEngine' object has been cleared");
    return 0;
}

static int unfinished(Engine *self)
{
    if (!self->finished)
        return 1;
    PyErr_SetString(PyExc_RuntimeError, "engine already finished");
    return 0;
}

/* Join the split the last chunk left pending, if any, count it and move
 * the share: the engine's entry points call this before they read the
 * register.  -1 with the join's error, or if the engine was cleared. */
static int join(Engine *self)
{
    if (!intact(self))
        return -1;
    PyObject *pending = self->pending;
    if (!pending)
        return 0;
    self->pending = NULL;
    PyObject *result = PyObject_CallMethodNoArgs(pending, state_of(self)->names[JOIN]);
    Py_DECREF(pending);
    long outcome = result ? PyLong_AsLong(result) : -1;
    Py_XDECREF(result);
    if (outcome == -1 && PyErr_Occurred())
        return -1;
    self->splits++;
    self->splits_taken += outcome != TOOK_ALL;
    if (outcome != DONE)
        self->share++;
    else if (self->share > SHARE_FLOOR)
        self->share--;
    return 0;
}

/* The CPUs the calling thread may run on: its affinity mask's where it has
 * one (about 0.2 us a call on Linux), else those online. */
static long cpus(void)
{
#if defined(__linux__)
    cpu_set_t mask;
    if (!sched_getaffinity(0, sizeof mask, &mask))
        return CPU_COUNT(&mask);
#endif
    return sysconf(_SC_NPROCESSORS_ONLN);
}

PyDoc_STRVAR(absorb_doc, "Run one table cycle per byte of a bytes-like chunk; returns self for "
                         "chaining.");

static PyObject *engine_absorb(Engine *self, PyObject *chunk)
{
    module_state *st = state_of(self);
    if (!unfinished(self))
        return NULL;
    Py_ssize_t n;
    PyObject *data;
    if (PyBytes_CheckExact(chunk)) {
        n = PyBytes_GET_SIZE(chunk);
        data = Py_NewRef(chunk);
    } else if (!(data = raw_bytes(chunk, &n))) /* before any state changes */
        return NULL;
    PyObject *split = NULL, *main = NULL, *codewords = NULL, *q = NULL, *k = NULL, *k2 = NULL,
             *result = NULL;
    if (join(self) < 0)
        goto done;
    if (n >= SPLIT_LEAST) {
        PyObject *floor = global(st, SPLIT_BYTES);
        Py_ssize_t split_bytes = floor ? PyLong_AsSsize_t(floor) : -1;
        Py_XDECREF(floor);
        if (split_bytes == -1 && PyErr_Occurred())
            goto done;
        if (n >= split_bytes && !(split = attr(st, self->tables, SPLIT)))
            goto done;
        if (split == Py_None || (split && cpus() < 2))
            Py_CLEAR(split);
    }
    if (!(codewords = global(st, CODEWORDS)) || !(main = attr(st, self->tables, MAIN)))
        goto done;
    PyObject *looped;
    if (split) {
        /* H2 = T = q = 2^j, by the share rule */
        size_t quarter = (size_t)n / 4, j = SHARE_FLOOR;
        while (quarter >> j > 1 && j < self->share)
            j++;
        self->share = j;
        PyObject *bits = PyLong_FromSize_t(j), *bits2 = PyLong_FromSize_t(j + 1);
        if (bits && bits2 &&
            (k = call(st, NULL, SHIFT, (PyObject *[]){self->entry, self->tables, bits}, 3)))
            k2 = call(st, NULL, SHIFT, (PyObject *[]){self->entry, self->tables, bits2}, 3);
        Py_XDECREF(bits);
        Py_XDECREF(bits2);
        if (!k2 || !(q = PyLong_FromSize_t((size_t)1 << j)))
            goto done;
        looped = PyObject_Vectorcall(
            split, (PyObject *[]){self->reg, main, codewords, data, q, k, k2}, 7, NULL);
        if (looped) {
            Py_XSETREF(self->pending, looped);
            looped = Py_NewRef(Py_None);
        }
    } else
        looped = call(st, self->tables, LOOP, (PyObject *[]){self->reg, main, codewords, data}, 4);
    if (looped) {
        Py_DECREF(looped);
        self->consumed += n;
        /* only bytes cannot change once this returns: join any other chunk now */
        if (!PyBytes_CheckExact(data) && join(self) < 0)
            goto done;
        result = Py_NewRef(self);
    }
done:
    Py_XDECREF(k2);
    Py_XDECREF(k);
    Py_XDECREF(q);
    Py_XDECREF(codewords);
    Py_XDECREF(main);
    Py_XDECREF(split);
    Py_DECREF(data);
    return result;
}

PyDoc_STRVAR(finish_doc, "Apply the filler rule and emit the byte-aligned digest.");

static PyObject *engine_finish(Engine *self, PyObject *unused)
{
    (void)unused;
    module_state *st = state_of(self);
    if (!unfinished(self) || join(self) < 0)
        return NULL;
    self->finished = 1;
    PyObject *main = NULL, *filler = NULL, *zeros = NULL, *data = NULL, *result = NULL;
    if (self->consumed < 8) { /* one FILLER cycle for each byte short of 8 */
        Py_ssize_t short_by = 8 - self->consumed;
        if (!(main = attr(st, self->tables, MAIN)) || !(filler = global(st, FILLER_MAP)) ||
            !(zeros = PyBytes_FromStringAndSize(NULL, short_by)))
            goto done;
        memset(PyBytes_AS_STRING(zeros), 0, (size_t)short_by);
        PyObject *looped = call(st, self->tables, LOOP,
                                (PyObject *[]){self->reg, main, filler, zeros}, 4);
        if (!looped)
            goto done;
        Py_DECREF(looped);
    }
    if ((data = digest_of(st, self)))
        result = new_digest(st, data, self->entry);
done:
    Py_XDECREF(data);
    Py_XDECREF(zeros);
    Py_XDECREF(filler);
    Py_XDECREF(main);
    return result;
}

static PyObject *engine_register(Engine *self, void *closure)
{
    (void)closure;
    module_state *st = state_of(self);
    PyObject *data = NULL, *result = NULL;
    if (join(self) == 0 && (data = digest_of(st, self)))
        result = PyObject_CallMethodObjArgs((PyObject *)&PyLong_Type, st->names[FROM_BYTES], data,
                                            st->names[BIG], NULL);
    Py_XDECREF(data);
    return result;
}

static PyObject *engine_get_reg(Engine *self, void *closure)
{
    (void)closure;
    return join(self) < 0 ? NULL : Py_NewRef(self->reg);
}

static PyObject *engine_path(Engine *self, void *closure)
{
    (void)closure;
    return intact(self) ? attr(state_of(self), self->tables, PATH) : NULL;
}

static PyObject *engine_repr(Engine *self)
{
    module_state *st = state_of(self);
    PyObject *index = NULL, *bits = NULL, *path = NULL, *result = NULL;
    if (intact(self) && (index = attr(st, self->entry, INDEX)) &&
        (bits = attr(st, self->entry, ALIGNED_BITS)) && (path = attr(st, self->tables, PATH)))
        result = PyUnicode_FromFormat("<CrcEngine entry=%S bits=%S consumed=%zd path=%S>", index,
                                      bits, self->consumed, path);
    Py_XDECREF(path);
    Py_XDECREF(bits);
    Py_XDECREF(index);
    return result;
}

static PyMethodDef engine_methods[] = {
    {"absorb", (PyCFunction)engine_absorb, METH_O, absorb_doc},
    {"finish", (PyCFunction)engine_finish, METH_NOARGS, finish_doc},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef engine_members[] = {
    {"entry", T_OBJECT_EX, offsetof(Engine, entry), READONLY, NULL},
    {"tables", T_OBJECT_EX, offsetof(Engine, tables), READONLY, NULL},
    {"consumed", T_PYSSIZET, offsetof(Engine, consumed), READONLY, NULL},
    {"splits", T_PYSSIZET, offsetof(Engine, splits), READONLY,
     "Chunks absorbed on two threads, counted at their join."},
    {"splits_taken", T_PYSSIZET, offsetof(Engine, splits_taken), READONLY,
     "Of those, the chunks of which the worker thread absorbed a part."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef engine_getset[] = {
    {"register", (getter)engine_register, NULL, NULL, NULL},
    {"_reg", (getter)engine_get_reg, NULL, NULL, NULL},
    {"path", (getter)engine_path, NULL,
     "Which absorb loop this engine runs: \"vpclmul\", \"clmul\", \"native\" or \"python\".", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

PyDoc_STRVAR(engine_doc,
             "CrcEngine(entry, tables)\n--\n\n"
             "Single-use streaming state: init, absorb chunks, finish once.\n\n"
             "After absorbing a message of 8 or more bytes, `register` equals the\n"
             "classifier digest of that message as an integer.");

static PyType_Slot engine_slots[] = {
    {Py_tp_doc, (void *)engine_doc},
    {Py_tp_dealloc, engine_dealloc},
    {Py_tp_traverse, engine_traverse},
    {Py_tp_clear, engine_clear},
    {Py_tp_repr, engine_repr},
    {Py_tp_methods, engine_methods},
    {Py_tp_members, engine_members},
    {Py_tp_getset, engine_getset},
    {0, NULL},
};

/* Mutable (no Py_TPFLAGS_IMMUTABLETYPE), and not a base class, so that
 * every instance's type is this one and holds the module state; without
 * DISALLOW_INSTANTIATION, object.__new__ would make an empty engine. */
static PyType_Spec engine_spec = {
    .name = "badderlocks.fastcrc.CrcEngine", .basicsize = sizeof(Engine),
    .flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_DISALLOW_INSTANTIATION,
    .slots = engine_slots,
};

PyDoc_STRVAR(tables_for_doc,
             "tables_for(e, /)\n--\n\n"
             "e's tables, built on first use and kept under e's index with the entry they were "
             "built for,\nso that another entry under the same index gets tables of its own.");

/* (e): fastcrc's _table_cache holds (entry, tables) under e.index; an entry
 * there that is not e and compares unequal to it, or none, has
 * fastcrc.build_tables(e) built and cached in its place. */
static PyObject *py_tables_for(PyObject *module, PyObject *e)
{
    module_state *st = PyModule_GetState(module);
    PyObject *cache = global(st, TABLE_CACHE), *index = NULL, *built = NULL, *pair = NULL,
             *tables = NULL;
    if (!cache || !(index = attr(st, e, INDEX)))
        goto done;
    if (!PyDict_Check(cache)) {
        PyErr_Format(PyExc_TypeError, "_table_cache must be a dict, not %.100s",
                     Py_TYPE(cache)->tp_name);
        goto done;
    }
    PyObject *held = PyDict_GetItemWithError(cache, index);
    if (held) {
        if (!PyTuple_Check(held) || PyTuple_GET_SIZE(held) != 2) {
            PyErr_SetString(PyExc_TypeError, "_table_cache must hold (entry, tables) pairs");
            goto done;
        }
        pair = Py_NewRef(held); /* the comparison may run code that changes the cache */
        int other = PyObject_RichCompareBool(PyTuple_GET_ITEM(pair, 0), e, Py_NE);
        if (other)
            Py_CLEAR(pair);
        if (other == -1)
            goto done;
    } else if (PyErr_Occurred())
        goto done;
    if (!pair && (!(built = call(st, NULL, BUILD_TABLES, &e, 1)) ||
                  !(pair = PyTuple_Pack(2, e, built)) || PyDict_SetItem(cache, index, pair) < 0))
        goto done;
    tables = Py_NewRef(PyTuple_GET_ITEM(pair, 1));
done:
    Py_XDECREF(pair);
    Py_XDECREF(built);
    Py_XDECREF(index);
    Py_XDECREF(cache);
    return tables;
}

PyDoc_STRVAR(engine_init_doc,
             "engine_init(e, /)\n--\n\n"
             "Fresh zeroed engine for entry e; tables are built lazily and shared.");

/* (e): fastcrc.CrcEngine(e, fastcrc._tables_for(e)). */
static PyObject *py_engine_init(PyObject *module, PyObject *e)
{
    module_state *st = PyModule_GetState(module);
    PyObject *tables = call(st, NULL, TABLES_FOR, &e, 1);
    PyObject *engine = tables ? call(st, NULL, CRC_ENGINE, (PyObject *[]){e, tables}, 2) : NULL;
    Py_XDECREF(tables);
    return engine;
}

/* (namespace) -> (CrcEngine, engine_init, tables_for), which read fastcrc's
 * globals from the namespace dict from now on. */
static PyObject *py_bind(PyObject *module, PyObject *namespace)
{
    if (!PyDict_Check(namespace))
        return PyErr_Format(PyExc_TypeError, "namespace must be a dict, not %.100s",
                            Py_TYPE(namespace)->tp_name);
    module_state *st = PyModule_GetState(module);
    Py_XSETREF(st->namespace, Py_NewRef(namespace));
    PyObject *engine_init = PyObject_GetAttrString(module, "engine_init");
    PyObject *tables_for = engine_init ? PyObject_GetAttrString(module, "tables_for") : NULL;
    PyObject *bound = tables_for ? PyTuple_Pack(3, st->engine_type, engine_init, tables_for)
                                 : NULL;
    Py_XDECREF(tables_for);
    Py_XDECREF(engine_init);
    return bound;
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
    FASTCALL("carryless", py_carryless),
    {"tables_for", py_tables_for, METH_O, tables_for_doc},
    {"engine_init", py_engine_init, METH_O, engine_init_doc},
    {"bind", py_bind, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

/* TAIL_WORDS, the interned names, the engine type and the split type. */
static int exec_module(PyObject *module)
{
    module_state *st = PyModule_GetState(module);
    for (int i = 0; i < NAMES; i++)
        if (!(st->names[i] = PyUnicode_InternFromString(name_text[i])))
            return -1;
    if (!(st->engine_type = PyType_FromModuleAndSpec(module, &engine_spec, NULL)) ||
        PyModule_AddObjectRef(module, "CrcEngine", st->engine_type) < 0)
        return -1;
    /* no type slot sets it before Python 3.14 */
    ((PyTypeObject *)st->engine_type)->tp_vectorcall = engine_vectorcall;
#if defined(__x86_64__)
    if (!(st->split_type = PyType_FromModuleAndSpec(module, &split_spec, NULL)))
        return -1;
#endif
    return PyModule_AddIntConstant(module, "TAIL_WORDS", TAIL_WORDS);
}

static int traverse_module(PyObject *module, visitproc visit, void *arg)
{
    module_state *st = PyModule_GetState(module);
    Py_VISIT(st->engine_type);
    Py_VISIT(st->split_type);
    Py_VISIT(st->namespace);
    return 0;
}

static int clear_module(PyObject *module)
{
    module_state *st = PyModule_GetState(module);
    Py_CLEAR(st->engine_type);
    Py_CLEAR(st->split_type);
    Py_CLEAR(st->namespace);
    for (int i = 0; i < NAMES; i++)
        Py_CLEAR(st->names[i]);
    return 0;
}

static void free_module(void *module) { clear_module(module); }

static PyModuleDef_Slot slots[] = {{Py_mod_exec, exec_module}, {0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_absorb",
    .m_doc = "The absorb loops of badderlocks.fastcrc over buffers, and its engine type.",
    .m_size = sizeof(module_state), .m_methods = methods, .m_slots = slots,
    .m_traverse = traverse_module, .m_clear = clear_module, .m_free = free_module,
};

PyMODINIT_FUNC PyInit__absorb(void) { return PyModuleDef_Init(&module); }
