/* _evcore: native event core for the repro discrete-event simulator.
 *
 * Two jobs, both bit-compatible with the pure-Python engine in
 * repro/sim/engine.py (which remains the ground truth and the fallback):
 *
 * 1. A binary heap of *light events* — one-shot, never-cancelled
 *    callbacks — keyed by native (int64 time, int64 seq) pairs, so heap
 *    maintenance costs a few integer compares instead of Python tuple
 *    comparisons.  ~94% of all events in a packet simulation are light
 *    (serialization-finish and propagation-arrival).
 *
 * 2. The fused dispatch loop: pops the global minimum across the native
 *    light heap and the Python EventQueue heap (regular, cancellable
 *    Events) and invokes callbacks until a stop condition holds.
 *
 * Ordering is *provably* identical to the pure path: both heaps draw
 * sequence numbers from one shared counter (owned here in native mode),
 * every key (time, seq) is unique, and dispatch always takes the global
 * minimum — so the dispatch order is the unique total order by
 * (time, seq), independent of heap internals.
 *
 * Field access uses __slots__ member offsets resolved once per run (with
 * a GetAttr fallback should a field ever stop being a slot), so the
 * per-event engine overhead is a few pointer reads, not dict lookups.
 *
 * The module is optional: repro/sim/_native.py compiles it on demand
 * with the host toolchain and the engine silently falls back to pure
 * Python when unavailable (REPRO_NATIVE=0 forces the fallback).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* ------------------------------------------------------------------ */
/* Light-event heap: C struct entries, native int64 keys.              */

typedef struct {
    long long t;    /* absolute fire time (ns)  */
    long long s;    /* global sequence number   */
    PyObject *cb;   /* owned                    */
    PyObject *arg;  /* owned                    */
} LEntry;

typedef struct {
    PyObject_HEAD
    LEntry *heap;
    Py_ssize_t size;
    Py_ssize_t capacity;
    long long seq;  /* the simulation-wide sequence counter (shared with
                       the Python EventQueue via take_seq) */
} EventCore;

static int
core_grow(EventCore *self)
{
    Py_ssize_t cap = self->capacity ? self->capacity * 2 : 256;
    LEntry *heap = PyMem_Realloc(self->heap, cap * sizeof(LEntry));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = heap;
    self->capacity = cap;
    return 0;
}

/* entry a sorts before b?  Keys are unique, so no tie-break is needed
   beyond seq. */
#define LENTRY_LT(a, b) ((a).t < (b).t || ((a).t == (b).t && (a).s < (b).s))

static void
core_siftup(EventCore *self, Py_ssize_t pos)
{
    LEntry *heap = self->heap;
    LEntry item = heap[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!LENTRY_LT(item, heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

static void
core_siftdown(EventCore *self, Py_ssize_t pos)
{
    LEntry *heap = self->heap;
    Py_ssize_t n = self->size;
    LEntry item = heap[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && LENTRY_LT(heap[child + 1], heap[child]))
            child += 1;
        if (!LENTRY_LT(heap[child], item))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

static int
core_push_entry(EventCore *self, long long t, long long s, PyObject *cb, PyObject *arg)
{
    if (self->size == self->capacity && core_grow(self) < 0)
        return -1;
    LEntry *e = &self->heap[self->size];
    e->t = t;
    e->s = s;
    Py_INCREF(cb);
    Py_INCREF(arg);
    e->cb = cb;
    e->arg = arg;
    self->size += 1;
    core_siftup(self, self->size - 1);
    return 0;
}

/* Pop the root into *out (ownership of cb/arg transfers to caller). */
static void
core_pop_entry(EventCore *self, LEntry *out)
{
    *out = self->heap[0];
    self->size -= 1;
    if (self->size > 0) {
        self->heap[0] = self->heap[self->size];
        core_siftdown(self, 0);
    }
}

/* ------------------------------------------------------------------ */
/* Interned attribute names + shared constants (module init).          */

static PyObject *str_now, *str_stop, *str_heap, *str_free, *str_live;
static PyObject *str_cancelled, *str_deadline, *str_time, *str_seq;
static PyObject *str_dseq, *str_callback, *str_args, *str_processed;
static PyObject *long_minus_one, *empty_tuple;

/* ------------------------------------------------------------------ */
/* __slots__ member offsets, resolved once per run() call.             */

typedef struct {
    Py_ssize_t now, stop;                                  /* Simulator  */
    Py_ssize_t live;                                       /* EventQueue */
    Py_ssize_t cancelled, deadline, time, seq, dseq;       /* Event      */
    Py_ssize_t callback, args;                             /* Event      */
} Offsets;

static Py_ssize_t
slot_offset(PyTypeObject *tp, PyObject *name)
{
    PyObject *descr = PyObject_GetAttr((PyObject *)tp, name);
    Py_ssize_t off = -1;
    if (descr == NULL) {
        PyErr_Clear();
        return -1;
    }
    if (Py_TYPE(descr) == &PyMemberDescr_Type) {
        PyMemberDef *def = ((PyMemberDescrObject *)descr)->d_member;
        if (def->type == T_OBJECT_EX || def->type == T_OBJECT)
            off = def->offset;
    }
    Py_DECREF(descr);
    return off;
}

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* Borrowed read of an object field; falls back to GetAttr when the
 * offset is unknown (then *ownedp holds a reference the caller must
 * release).  Returns NULL with an exception set on failure. */
static inline PyObject *
field_get(PyObject *obj, Py_ssize_t off, PyObject *name, PyObject **ownedp)
{
    if (off >= 0) {
        PyObject *v = SLOT(obj, off);
        *ownedp = NULL;
        if (v == NULL)
            PyErr_SetObject(PyExc_AttributeError, name);
        return v;
    }
    *ownedp = PyObject_GetAttr(obj, name);
    return *ownedp;
}

static inline int
field_set(PyObject *obj, Py_ssize_t off, PyObject *name, PyObject *v)
{
    if (off >= 0) {
        PyObject *old = SLOT(obj, off);
        Py_INCREF(v);
        SLOT(obj, off) = v;
        Py_XDECREF(old);
        return 0;
    }
    return PyObject_SetAttr(obj, name, v);
}

/* ------------------------------------------------------------------ */
/* Python-level methods                                               */

static PyObject *
EventCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    EventCore *self = (EventCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->heap = NULL;
    self->size = 0;
    self->capacity = 0;
    self->seq = 0;
    return (PyObject *)self;
}

/* The pending entries' callbacks are usually bound methods of components
 * that hold the Simulator that holds this core, so the core takes part in
 * cyclic GC: without it every dropped simulation leaked whole. */
static int
EventCore_traverse(EventCore *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++) {
        Py_VISIT(self->heap[i].cb);
        Py_VISIT(self->heap[i].arg);
    }
    return 0;
}

/* tp_clear: drop every pending entry.  The heap is detached first, because
 * a DECREF can run arbitrary code that pushes to this core again. */
static int
EventCore_drop_entries(EventCore *self)
{
    LEntry *heap = self->heap;
    Py_ssize_t size = self->size;
    self->heap = NULL;
    self->size = 0;
    self->capacity = 0;
    for (Py_ssize_t i = 0; i < size; i++) {
        Py_DECREF(heap[i].cb);
        Py_DECREF(heap[i].arg);
    }
    PyMem_Free(heap);
    return 0;
}

static void
EventCore_dealloc(EventCore *self)
{
    PyObject_GC_UnTrack(self);
    EventCore_drop_entries(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
EventCore_take_seq(EventCore *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(self->seq++);
}

/* push(time, callback, arg): schedule a light event at absolute `time`. */
static PyObject *
EventCore_push(EventCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "push expects (time, callback, arg)");
        return NULL;
    }
    long long t = PyLong_AsLongLong(args[0]);
    if (t == -1 && PyErr_Occurred())
        return NULL;
    if (core_push_entry(self, t, self->seq++, args[1], args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static Py_ssize_t
EventCore_len(PyObject *op)
{
    return ((EventCore *)op)->size;
}

static PyObject *
EventCore_peek_time(EventCore *self, PyObject *Py_UNUSED(ignored))
{
    if (self->size == 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->heap[0].t);
}

static PyObject *
EventCore_clear(EventCore *self, PyObject *Py_UNUSED(ignored))
{
    EventCore_drop_entries(self);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Object-heap (the Python EventQueue `_heap` of (time, seq, Event)
 * tuples) — the same sift algorithm as heapq, via rich comparison.
 * Entries are tuples whose first two elements are unique ints, so
 * comparisons are C tuple comparisons and never reach the Event.      */

static int
obj_siftdown(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *item = PyList_GET_ITEM(heap, pos);
    Py_INCREF(item);
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n) {
            int lt = PyObject_RichCompareBool(
                PyList_GET_ITEM(heap, child + 1), PyList_GET_ITEM(heap, child), Py_LT);
            if (lt < 0) {
                Py_DECREF(item);
                return -1;
            }
            if (lt)
                child += 1;
        }
        PyObject *c = PyList_GET_ITEM(heap, child);
        int lt = PyObject_RichCompareBool(c, item, Py_LT);
        if (lt < 0) {
            Py_DECREF(item);
            return -1;
        }
        if (!lt)
            break;
        Py_INCREF(c);
        PyList_SetItem(heap, pos, c);
        pos = child;
    }
    PyList_SetItem(heap, pos, item);
    return 0;
}

/* Remove heap[0]; returns new reference to it (or NULL on error). */
static PyObject *
obj_heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *root = PyList_GET_ITEM(heap, 0);
    Py_INCREF(root);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(root);
        Py_DECREF(last);
        return NULL;
    }
    if (n > 1) {
        PyList_SetItem(heap, 0, last);  /* steals ref */
        if (obj_siftdown(heap, 0) < 0) {
            Py_DECREF(root);
            return NULL;
        }
    } else {
        Py_DECREF(last);
    }
    return root;
}

/* Replace heap[0] with newentry (ref stolen) and restore heap order. */
static int
obj_heap_replace(PyObject *heap, PyObject *newentry)
{
    PyList_SetItem(heap, 0, newentry);  /* steals ref */
    return obj_siftdown(heap, 0);
}

/* sim.events_processed += n, preserving any pending exception (mirrors
 * the pure loop's `finally` accounting so partial progress is credited
 * even when a callback raises). */
static void
bump_processed(PyObject *sim, long long n)
{
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    PyObject *cur = PyObject_GetAttr(sim, str_processed);
    if (cur != NULL) {
        long long total = PyLong_AsLongLong(cur);
        Py_DECREF(cur);
        if (!(total == -1 && PyErr_Occurred())) {
            PyObject *upd = PyLong_FromLongLong(total + n);
            if (upd != NULL) {
                (void)PyObject_SetAttr(sim, str_processed, upd);
                Py_DECREF(upd);
            }
        }
    }
    PyErr_Clear();
    PyErr_Restore(type, value, tb);
}

/* run(sim, queue, until, limit, stop_when, noop, freelist_max, evtype)
 *
 * The dispatch loop.  Mirrors Simulator.run()'s batched pure-Python
 * loop exactly: same head-scan semantics (skip cancelled carcasses,
 * re-file deferred reschedules), same stop-condition order after every
 * callback (_stop, then stop_when, then the event limit), same freelist
 * recycling.  The pure loop batches same-timestamp events purely to
 * amortize *interpreter* overhead; here the clock store is skipped when
 * the timestamp repeats, which is observably identical.
 *
 * Returns the number of events processed.
 */
static PyObject *
EventCore_run(EventCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 8) {
        PyErr_SetString(
            PyExc_TypeError,
            "run expects (sim, queue, until, limit, stop_when, noop, freelist_max, evtype)");
        return NULL;
    }
    PyObject *sim = args[0];
    PyObject *queue = args[1];
    PyObject *until_obj = args[2];
    long long limit = PyLong_AsLongLong(args[3]);
    PyObject *stop_when = args[4];
    PyObject *noop = args[5];
    Py_ssize_t freelist_max = PyLong_AsSsize_t(args[6]);
    if (PyErr_Occurred())
        return NULL;
    if (!PyType_Check(args[7])) {
        PyErr_SetString(PyExc_TypeError, "evtype must be the Event class");
        return NULL;
    }
    PyTypeObject *evtype = (PyTypeObject *)args[7];

    int have_until = (until_obj != Py_None);
    long long until = 0;
    if (have_until) {
        until = PyLong_AsLongLong(until_obj);
        if (until == -1 && PyErr_Occurred())
            return NULL;
    }
    if (stop_when == Py_None)
        stop_when = NULL;

    Offsets off;
    off.now = slot_offset(Py_TYPE(sim), str_now);
    off.stop = slot_offset(Py_TYPE(sim), str_stop);
    off.live = slot_offset(Py_TYPE(queue), str_live);
    off.cancelled = slot_offset(evtype, str_cancelled);
    off.deadline = slot_offset(evtype, str_deadline);
    off.time = slot_offset(evtype, str_time);
    off.seq = slot_offset(evtype, str_seq);
    off.dseq = slot_offset(evtype, str_dseq);
    off.callback = slot_offset(evtype, str_callback);
    off.args = slot_offset(evtype, str_args);

    PyObject *heap = PyObject_GetAttr(queue, str_heap);
    PyObject *free_list = PyObject_GetAttr(queue, str_free);
    if (heap == NULL || free_list == NULL) {
        Py_XDECREF(heap);
        Py_XDECREF(free_list);
        return NULL;
    }

    long long processed = 0;
    long long last_now = -1;

    while (processed < limit) {
        /* -- establish the live head of the object heap ------------- */
        long long s_time = 0, s_seq = 0;
        int have_slow = 0;
        while (PyList_GET_SIZE(heap) > 0) {
            PyObject *entry = PyList_GET_ITEM(heap, 0);
            PyObject *ev = PyTuple_GET_ITEM(entry, 2);
            PyObject *owned;
            PyObject *flag = field_get(ev, off.cancelled, str_cancelled, &owned);
            if (flag == NULL)
                goto error;
            int cancelled = (flag == Py_True);
            Py_XDECREF(owned);
            if (cancelled) {
                PyObject *dead = obj_heap_pop(heap);
                if (dead == NULL)
                    goto error;
                if (PyList_GET_SIZE(free_list) < freelist_max) {
                    if (PyList_Append(free_list, ev) < 0) {
                        Py_DECREF(dead);
                        goto error;
                    }
                }
                Py_DECREF(dead);
                continue;
            }
            PyObject *dl_obj = field_get(ev, off.deadline, str_deadline, &owned);
            if (dl_obj == NULL)
                goto error;
            long long deadline = PyLong_AsLongLong(dl_obj);
            Py_XDECREF(owned);
            if (deadline == -1 && PyErr_Occurred())
                goto error;
            long long etime = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 0));
            if (etime == -1 && PyErr_Occurred())
                goto error;
            if (deadline > etime) {
                /* stale slot from a reschedule: re-file at the true
                 * deadline under the deferred sequence number */
                PyObject *dseq_owned;
                PyObject *dseq = field_get(ev, off.dseq, str_dseq, &dseq_owned);
                if (dseq == NULL)
                    goto error;
                if (dseq_owned == NULL)
                    Py_INCREF(dseq);  /* normalize: hold our own ref */
                PyObject *dl_new = PyLong_FromLongLong(deadline);
                if (dl_new == NULL) {
                    Py_DECREF(dseq);
                    goto error;
                }
                if (field_set(ev, off.time, str_time, dl_new) < 0 ||
                    field_set(ev, off.seq, str_seq, dseq) < 0) {
                    Py_DECREF(dl_new);
                    Py_DECREF(dseq);
                    goto error;
                }
                PyObject *refiled = PyTuple_Pack(3, dl_new, dseq, ev);
                Py_DECREF(dl_new);
                Py_DECREF(dseq);
                if (refiled == NULL)
                    goto error;
                if (obj_heap_replace(heap, refiled) < 0)
                    goto error;
                continue;
            }
            s_time = etime;
            s_seq = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
            if (s_seq == -1 && PyErr_Occurred())
                goto error;
            have_slow = 1;
            break;
        }

        /* -- pick the global minimum across both heaps --------------- */
        int take_light;
        long long ev_time;
        if (self->size > 0) {
            if (have_slow && (s_time < self->heap[0].t ||
                              (s_time == self->heap[0].t && s_seq < self->heap[0].s))) {
                take_light = 0;
                ev_time = s_time;
            } else {
                take_light = 1;
                ev_time = self->heap[0].t;
            }
        } else if (have_slow) {
            take_light = 0;
            ev_time = s_time;
        } else {
            break;  /* idle */
        }

        if (have_until && ev_time > until) {
            /* Head lies beyond the bound: advance the clock to `until`
             * and leave the event queued (pure loop does the same). */
            if (until != last_now) {
                PyObject *now = PyLong_FromLongLong(until);
                if (now == NULL || field_set(sim, off.now, str_now, now) < 0) {
                    Py_XDECREF(now);
                    goto error;
                }
                Py_DECREF(now);
            }
            break;
        }

        if (ev_time != last_now) {
            PyObject *now = PyLong_FromLongLong(ev_time);
            if (now == NULL || field_set(sim, off.now, str_now, now) < 0) {
                Py_XDECREF(now);
                goto error;
            }
            Py_DECREF(now);
            last_now = ev_time;
        }

        /* -- dispatch ------------------------------------------------ */
        if (take_light) {
            LEntry e;
            core_pop_entry(self, &e);
            PyObject *res = PyObject_CallOneArg(e.cb, e.arg);
            Py_DECREF(e.cb);
            Py_DECREF(e.arg);
            if (res == NULL)
                goto error;
            Py_DECREF(res);
        } else {
            PyObject *entry = obj_heap_pop(heap);
            if (entry == NULL)
                goto error;
            PyObject *ev = PyTuple_GET_ITEM(entry, 2);
            Py_INCREF(ev);
            Py_DECREF(entry);
            if (field_set(ev, off.deadline, str_deadline, long_minus_one) < 0) {
                Py_DECREF(ev);
                goto error;
            }
            /* queue._live -= 1 */
            PyObject *owned;
            PyObject *live = field_get(queue, off.live, str_live, &owned);
            if (live == NULL) {
                Py_DECREF(ev);
                goto error;
            }
            long long nlive = PyLong_AsLongLong(live);
            Py_XDECREF(owned);
            PyObject *nlive_obj = PyLong_FromLongLong(nlive - 1);
            if (nlive_obj == NULL ||
                field_set(queue, off.live, str_live, nlive_obj) < 0) {
                Py_XDECREF(nlive_obj);
                Py_DECREF(ev);
                goto error;
            }
            Py_DECREF(nlive_obj);
            PyObject *cb_owned, *args_owned;
            PyObject *cb = field_get(ev, off.callback, str_callback, &cb_owned);
            if (cb == NULL) {
                Py_DECREF(ev);
                goto error;
            }
            if (cb_owned == NULL)
                Py_INCREF(cb);  /* hold across the call */
            PyObject *cargs = field_get(ev, off.args, str_args, &args_owned);
            if (cargs == NULL) {
                Py_DECREF(cb);
                Py_DECREF(ev);
                goto error;
            }
            if (args_owned == NULL)
                Py_INCREF(cargs);
            PyObject *res = PyObject_Call(cb, cargs, NULL);
            Py_DECREF(cb);
            Py_DECREF(cargs);
            if (res == NULL) {
                Py_DECREF(ev);
                goto error;
            }
            Py_DECREF(res);
            if (PyList_GET_SIZE(free_list) < freelist_max) {
                if (field_set(ev, off.callback, str_callback, noop) < 0 ||
                    field_set(ev, off.args, str_args, empty_tuple) < 0 ||
                    PyList_Append(free_list, ev) < 0) {
                    Py_DECREF(ev);
                    goto error;
                }
            }
            Py_DECREF(ev);
        }
        processed += 1;

        /* -- stop conditions, in the pure loop's order --------------- */
        PyObject *stop_owned;
        PyObject *stop_flag = field_get(sim, off.stop, str_stop, &stop_owned);
        if (stop_flag == NULL)
            goto error;
        int stop = (stop_flag == Py_True);
        Py_XDECREF(stop_owned);
        if (stop)
            break;
        if (stop_when != NULL) {
            PyObject *verdict = PyObject_CallNoArgs(stop_when);
            if (verdict == NULL)
                goto error;
            int truthy = PyObject_IsTrue(verdict);
            Py_DECREF(verdict);
            if (truthy < 0)
                goto error;
            if (truthy)
                break;
        }
    }

    Py_DECREF(heap);
    Py_DECREF(free_list);
    bump_processed(sim, processed);
    return PyLong_FromLongLong(processed);

error:
    Py_DECREF(heap);
    Py_DECREF(free_list);
    bump_processed(sim, processed);
    return NULL;
}

static PyMethodDef EventCore_methods[] = {
    {"take_seq", (PyCFunction)EventCore_take_seq, METH_NOARGS,
     "Consume and return the next global sequence number."},
    {"push", (PyCFunction)(void (*)(void))EventCore_push, METH_FASTCALL,
     "push(time, callback, arg): schedule a light event at absolute time."},
    {"peek_time", (PyCFunction)EventCore_peek_time, METH_NOARGS,
     "Earliest pending light-event time, or None."},
    {"clear", (PyCFunction)EventCore_clear, METH_NOARGS,
     "Drop all pending light events."},
    {"run", (PyCFunction)(void (*)(void))EventCore_run, METH_FASTCALL,
     "Dispatch events until idle or a stop condition; returns count."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods EventCore_as_sequence = {
    .sq_length = EventCore_len,
};

static PyTypeObject EventCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_evcore.EventCore",
    .tp_basicsize = sizeof(EventCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Native light-event heap + fused dispatch loop.",
    .tp_new = EventCore_new,
    .tp_dealloc = (destructor)EventCore_dealloc,
    .tp_traverse = (traverseproc)EventCore_traverse,
    .tp_clear = (inquiry)EventCore_drop_entries,
    .tp_methods = EventCore_methods,
    .tp_as_sequence = &EventCore_as_sequence,
};

static struct PyModuleDef evcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_evcore",
    .m_doc = "Native event core for repro.sim (see repro/sim/_native.py).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__evcore(void)
{
#define INTERN(var, s)                         \
    do {                                       \
        var = PyUnicode_InternFromString(s);   \
        if (var == NULL)                       \
            return NULL;                       \
    } while (0)
    INTERN(str_now, "now");
    INTERN(str_stop, "_stop");
    INTERN(str_heap, "_heap");
    INTERN(str_free, "_free");
    INTERN(str_live, "_live");
    INTERN(str_cancelled, "cancelled");
    INTERN(str_deadline, "deadline");
    INTERN(str_time, "time");
    INTERN(str_seq, "seq");
    INTERN(str_dseq, "_dseq");
    INTERN(str_callback, "callback");
    INTERN(str_args, "args");
    INTERN(str_processed, "events_processed");
#undef INTERN
    long_minus_one = PyLong_FromLong(-1);
    empty_tuple = PyTuple_New(0);
    if (long_minus_one == NULL || empty_tuple == NULL)
        return NULL;
    if (PyType_Ready(&EventCoreType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&evcore_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&EventCoreType);
    if (PyModule_AddObject(m, "EventCore", (PyObject *)&EventCoreType) < 0) {
        Py_DECREF(&EventCoreType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
