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
 * 3. The plain packet hop: a serialization finish, a routed switch arrival
 *    or a host delivery runs here as a copy of the Python method it would
 *    call (see "The plain packet hop" below, gates and fallbacks included).
 *
 * 4. The observers: an attached invariant checker is swept and an attached
 *    engine profiler is fed at the points the Python loop does (see "The
 *    observers" below).
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
#include <string.h>
#include <time.h>

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
static PyObject *str_qualname, *str_name, *str_sweep, *str_sweep_every, *str_check_time;
static PyObject *str_counts, *str_times, *str_batch_events, *str_batches;
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

/* The raised exception, set aside while exit bookkeeping runs Python code. */
typedef struct {
#if PY_VERSION_HEX >= 0x030C0000
    PyObject *exc;
#else
    PyObject *type, *value, *tb;
#endif
} SavedError;

static void
error_save(SavedError *e)
{
#if PY_VERSION_HEX >= 0x030C0000
    e->exc = PyErr_GetRaisedException();
#else
    PyErr_Fetch(&e->type, &e->value, &e->tb);
#endif
}

/* Put the saved exception back, if there was one (discarding any raised
 * since); returns whether there was. */
static int
error_restore(SavedError *e)
{
#if PY_VERSION_HEX >= 0x030C0000
    if (e->exc == NULL)
        return 0;
    PyErr_Clear();
    PyErr_SetRaisedException(e->exc);
#else
    if (e->type == NULL)
        return 0;
    PyErr_Clear();
    PyErr_Restore(e->type, e->value, e->tb);
#endif
    return 1;
}

/* sim.events_processed += n, preserving any pending exception (mirrors
 * the pure loop's `finally` accounting so partial progress is credited
 * even when a callback raises). */
static void
bump_processed(PyObject *sim, long long n)
{
    SavedError saved;
    error_save(&saved);
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
    error_restore(&saved);
}

/* ------------------------------------------------------------------ */
/* The plain packet hop.
 *
 * Three light callbacks carry every plain packet hop: a port's
 * serialization finish (OutputPort._finish_tx), a routed switch arrival
 * (OutputPort.send) and a host delivery (Host.receive).  net/port.py and
 * net/host.py register those functions at import (set_hop).  When a
 * popped light entry is one of them, bound to an object whose gates hold,
 * the loop runs the method's body here instead of calling it: the same
 * __slots__ and pool columns read and written, the same pushes in the same
 * order, the same calls back into Python (on_mark, on_drop, _pool_free,
 * _ser_delay on a memo miss, the endpoint's on_packet).  Each branch cites
 * the method it mirrors; the two copies are kept in sync by hand.
 *
 * Every gate is read before anything is written.  A branch returns 0, and
 * the loop calls the callback as before, when the object is not of the
 * layout resolved for its role, the port is not plain (_plain_queue,
 * _prop_delay), the port runs on another simulator or core, a field is not
 * an exact int within int64, a handle is off its column, or the frame is
 * unroutable or undeliverable.  on_mark and on_drop are observers: the
 * queue is read before they are called.  Columns are indexed afresh on
 * every access, because PacketPool._grow extends them in place. */

enum { HOP_FINISH, HOP_SEND, HOP_RECEIVE, HOP_N };
static PyObject *hop_fns[HOP_N];  /* registered functions (owned) or NULL */

enum { P_SIM, P_LINK, P_QUEUE, P_BUSY, P_TX_P, P_TX_B, P_PLAIN, P_LINK_COL, P_WIRE,
       P_DST_COL, P_SER_DELAY, P_SER_NS, P_PUSH, P_FINISH, P_PROP, P_DST_RECEIVE,
       P_DST_SENDS, P_N };
static const char *const port_names[P_N] = {
    "sim", "_link", "queue", "_busy", "tx_packets", "tx_bytes", "_plain_queue",
    "_link_col", "_wire", "_dst_col", "_ser_delay", "_ser_ns", "_push_light",
    "_finish", "_prop_delay", "_dst_receive", "_dst_sends"};
enum { Q_CAP, Q_ECN, Q_INC, Q_INC_MARKED, Q_FLAGS, Q_FREE, Q_HEAD, Q_TAIL, Q_OCC,
       Q_ENQ_P, Q_ENQ_B, Q_DEQ_P, Q_DEQ_B, Q_DROP_P, Q_DROP_B, Q_MARKED, Q_ON_DROP,
       Q_ON_MARK, Q_PEAK, Q_PEAK_NS, Q_N };
static const char *const queue_names[Q_N] = {
    "capacity_bytes", "ecn_threshold_bytes", "inc_threshold_bytes",
    "inc_marked_packets", "_flags", "_pool_free", "_head", "_tail",
    "occupancy_bytes", "enqueued_packets", "enqueued_bytes", "dequeued_packets",
    "dequeued_bytes", "dropped_packets", "dropped_bytes", "marked_packets",
    "on_drop", "on_mark", "peak_bytes", "peak_ns"};
enum { L_DELIV_P, L_DELIV_B, L_N };
static const char *const link_names[L_N] = {"delivered_packets", "delivered_bytes"};
enum { H_FLOW_COL, H_DISPATCH, H_N };
static const char *const host_names[H_N] = {"_flow_col", "_dispatch"};

enum { F_ECT = 2, F_CE = 4, F_INC = 16 };  /* pool flag bits (net/pool.py) */

/* Slot offsets for one role, resolved once per type: the last type seen
 * in that role (owned) and whether every name is an object slot on it. */
typedef struct {
    PyTypeObject *tp;
    int ok;
    Py_ssize_t off[Q_N];  /* the longest role: Q_N > P_N > H_N, L_N */
} Layout;

static Layout port_l, queue_l, link_l, host_l;

static int
layout_of(Layout *l, PyObject *obj, const char *const *names, int n)
{
    PyTypeObject *tp = Py_TYPE(obj);
    if (l->tp != tp) {
        Py_INCREF(tp);
        Py_XSETREF(l->tp, tp);
        l->ok = 1;
        for (int i = 0; i < n && l->ok; i++) {
            PyObject *name = PyUnicode_InternFromString(names[i]);
            l->off[i] = name == NULL ? -1 : slot_offset(tp, name);
            l->ok = l->off[i] >= 0;
            Py_XDECREF(name);
        }
        PyErr_Clear();
    }
    return l->ok;
}

#define PF(obj, i) SLOT(obj, port_l.off[i])
#define QF(obj, i) SLOT(obj, queue_l.off[i])

/* *out = v when v is an exact int within int64; 0 (no exception) else. */
static inline int
as_i64(PyObject *v, long long *out)
{
    int overflow;
    if (v == NULL || !PyLong_CheckExact(v))
        return 0;
    *out = PyLong_AsLongLongAndOverflow(v, &overflow);
    return !overflow;
}

/* col[i] (borrowed) when col is an exact list holding i; NULL else. */
static inline PyObject *
col_item(PyObject *col, long long i)
{
    if (col == NULL || !PyList_CheckExact(col) || i < 0 || i >= PyList_GET_SIZE(col))
        return NULL;
    return PyList_GET_ITEM(col, i);
}

static int
col_set(PyObject *col, long long i, PyObject *v)
{
    if (col_item(col, i) == NULL) {
        PyErr_SetString(PyExc_IndexError, "pool column changed under a native hop");
        return -1;
    }
    Py_INCREF(v);
    return PyList_SetItem(col, i, v);
}

static int
flag_set(PyObject *col, long long i, int v)
{
    if (col == NULL || !PyByteArray_CheckExact(col) || i >= PyByteArray_GET_SIZE(col)) {
        PyErr_SetString(PyExc_IndexError, "pool flags changed under a native hop");
        return -1;
    }
    PyByteArray_AS_STRING(col)[i] = (char)v;
    return 0;
}

static int
set_i64(PyObject *obj, Py_ssize_t off, long long v)
{
    PyObject *o = PyLong_FromLongLong(v);
    if (o == NULL)
        return -1;
    Py_XSETREF(SLOT(obj, off), o);
    return 0;
}

/* An object slot a branch reads after calling back into Python was
 * emptied by that call. */
static int
hop_slot_error(void)
{
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_AttributeError, "a native hop's slot was emptied");
    return -1;
}

/* Push a light entry whose callback is a borrowed slot value. */
static int
hop_push(EventCore *core, long long t, PyObject *cb, PyObject *arg)
{
    return cb == NULL ? hop_slot_error() : core_push_entry(core, t, core->seq++, cb, arg);
}

/* fn(arg), result dropped; fn is a borrowed slot value. */
static int
call1(PyObject *fn, PyObject *arg)
{
    if (fn == NULL)
        return hop_slot_error();
    Py_INCREF(fn);
    PyObject *res = PyObject_CallOneArg(fn, arg);
    Py_DECREF(fn);
    Py_XDECREF(res);
    return res == NULL ? -1 : 0;
}

/* try: self._ser_ns[wire] except KeyError: self._ser_delay(wire) */
static int
ser_delay(PyObject *port, PyObject *wire, long long *out)
{
    PyObject *memo = PF(port, P_SER_NS), *fn = PF(port, P_SER_DELAY);
    PyObject *d = memo && PyDict_CheckExact(memo) ? PyDict_GetItemWithError(memo, wire) : NULL;
    if (d != NULL) {
        Py_INCREF(d);
    } else {
        if (PyErr_Occurred() || fn == NULL)
            return hop_slot_error();
        Py_INCREF(fn);
        Py_INCREF(wire);
        d = PyObject_CallOneArg(fn, wire);
        Py_DECREF(wire);
        Py_DECREF(fn);
        if (d == NULL)
            return -1;
    }
    *out = PyLong_AsLongLong(d);
    Py_DECREF(d);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* Gates both port branches share: the port and its queue have the
 * resolved layouts, the port runs on this simulator's core (its sim, its
 * push), its queue is inlined (_plain_queue), and the clock and the
 * frame's wire size are int64s. */
static int
port_gates(EventCore *core, PyObject *sim, Py_ssize_t now_off, PyObject *port,
           long long h, PyObject **q, long long *now, PyObject **wobj, long long *wire)
{
    if (now_off < 0 || !layout_of(&port_l, port, port_names, P_N))
        return 0;
    PyObject *push = PF(port, P_PUSH);
    *q = PF(port, P_QUEUE);
    *wobj = col_item(PF(port, P_WIRE), h);
    return PF(port, P_SIM) == sim && push != NULL && PyCFunction_Check(push) &&
           PyCFunction_GET_SELF(push) == (PyObject *)core && PF(port, P_PLAIN) == Py_True &&
           *q != NULL && layout_of(&queue_l, *q, queue_names, Q_N) &&
           as_i64(SLOT(sim, now_off), now) &&
           as_i64(*wobj, wire);
}

/* OutputPort._finish_tx (net/port.py) */
static int
hop_finish_tx(EventCore *core, PyObject *sim, Py_ssize_t now_off, PyObject *port,
              PyObject *harg, long long h)
{
    PyObject *q, *wobj, *nwobj = NULL, *after = NULL, *route;
    long long now, wire, prop, tx_p, tx_b, dl_p, dl_b, nxt, nwire = 0, unused;
    long long occ = 0, deq_p = 0, deq_b = 0, delay;
    if (!port_gates(core, sim, now_off, port, h, &q, &now, &wobj, &wire))
        return 0;
    PyObject *link = PF(port, P_LINK);
    PyObject *sends = PF(port, P_DST_SENDS);
    PyObject *arrive = PF(port, P_DST_RECEIVE);
    if (!as_i64(PF(port, P_PROP), &prop) || !as_i64(PF(port, P_TX_P), &tx_p) ||
        !as_i64(PF(port, P_TX_B), &tx_b) || link == NULL || arrive == NULL ||
        !layout_of(&link_l, link, link_names, L_N) ||
        !as_i64(SLOT(link, link_l.off[L_DELIV_P]), &dl_p) ||
        !as_i64(SLOT(link, link_l.off[L_DELIV_B]), &dl_b) || sends == NULL ||
        !as_i64(QF(q, Q_HEAD), &nxt))
        return 0;
    if (sends != Py_None) {
        /* routed at departure */
        PyObject *dst = col_item(PF(port, P_DST_COL), h);
        if (!PyDict_CheckExact(sends) || dst == NULL || !PyLong_CheckExact(dst))
            return 0;
        if ((route = PyDict_GetItemWithError(sends, dst)) != NULL)
            arrive = route;
        else if (PyErr_Occurred()) {
            PyErr_Clear();  /* the Python call raises it again */
            return 0;
        }
    }
    if (nxt >= 0 &&  /* the inlined DropTailQueue.dequeue reads */
        (!as_i64(after = col_item(PF(port, P_LINK_COL), nxt), &unused) ||
         (nwobj = col_item(PF(port, P_WIRE), nxt)) == NULL || !as_i64(nwobj, &nwire) ||
         !as_i64(QF(q, Q_OCC), &occ) || !as_i64(QF(q, Q_DEQ_P), &deq_p) ||
         !as_i64(QF(q, Q_DEQ_B), &deq_b)))
        return 0;
    /* -- every gate holds: the method's body from here */
    if (set_i64(port, port_l.off[P_TX_P], tx_p + 1) < 0 ||
        set_i64(port, port_l.off[P_TX_B], tx_b + wire) < 0 ||
        set_i64(link, link_l.off[L_DELIV_P], dl_p + 1) < 0 ||
        set_i64(link, link_l.off[L_DELIV_B], dl_b + wire) < 0 ||
        hop_push(core, now + prop, arrive, harg) < 0)
        return -1;
    if (nxt < 0) {
        field_set(port, port_l.off[P_BUSY], NULL, Py_False);
        return 1;
    }
    PyObject *nobj = QF(q, Q_HEAD);
    Py_INCREF(nobj);  /* the handle outlives its _head slot */
    Py_INCREF(nwobj);
    field_set(q, queue_l.off[Q_HEAD], NULL, after);
    int rc = -1;
    if (set_i64(q, queue_l.off[Q_OCC], occ - nwire) >= 0 &&
        set_i64(q, queue_l.off[Q_DEQ_P], deq_p + 1) >= 0 &&
        set_i64(q, queue_l.off[Q_DEQ_B], deq_b + nwire) >= 0 &&
        ser_delay(port, nwobj, &delay) >= 0 &&
        hop_push(core, now + delay, PF(port, P_FINISH), nobj) >= 0)
        rc = 1;
    Py_DECREF(nwobj);
    Py_DECREF(nobj);
    return rc;
}

/* OutputPort.send (net/port.py), its inlined DropTailQueue.enqueue branch,
 * as a routed switch arrival (the loop drops the return value).  An idle
 * port with a backlog, which send would restart through _start_next,
 * takes the Python call. */
static int
hop_send(EventCore *core, PyObject *sim, Py_ssize_t now_off, PyObject *port,
         PyObject *harg, long long h)
{
    PyObject *q, *wobj;
    long long now, wire, occ, cap, ecn_t = 0, inc_t = 0, marked, inc_marked, head, tail = -1;
    long long enq_p, enq_b, deq_p, deq_b, drop_p, drop_b, peak, delay;
    if (!port_gates(core, sim, now_off, port, h, &q, &now, &wobj, &wire))
        return 0;
    PyObject *busy = PF(port, P_BUSY);
    PyObject *flags_col = QF(q, Q_FLAGS);
    PyObject *ecn = QF(q, Q_ECN), *inc = QF(q, Q_INC);
    PyObject *link_col = PF(port, P_LINK_COL);
    if ((busy != Py_True && busy != Py_False) || flags_col == NULL ||
        !PyByteArray_CheckExact(flags_col) || h >= PyByteArray_GET_SIZE(flags_col) ||
        ecn == NULL || (ecn != Py_None && !as_i64(ecn, &ecn_t)) ||
        inc == NULL || (inc != Py_None && !as_i64(inc, &inc_t)) ||
        !as_i64(QF(q, Q_OCC), &occ) || !as_i64(QF(q, Q_CAP), &cap) ||
        !as_i64(QF(q, Q_MARKED), &marked) || !as_i64(QF(q, Q_INC_MARKED), &inc_marked) ||
        !as_i64(QF(q, Q_ENQ_P), &enq_p) || !as_i64(QF(q, Q_ENQ_B), &enq_b) ||
        !as_i64(QF(q, Q_DEQ_P), &deq_p) || !as_i64(QF(q, Q_DEQ_B), &deq_b) ||
        !as_i64(QF(q, Q_DROP_P), &drop_p) || !as_i64(QF(q, Q_DROP_B), &drop_b) ||
        !as_i64(QF(q, Q_PEAK), &peak) || !as_i64(QF(q, Q_HEAD), &head) ||
        col_item(link_col, h) == NULL ||
        (head >= 0 && (busy == Py_False || !as_i64(QF(q, Q_TAIL), &tail) ||
                       col_item(link_col, tail) == NULL)))
        return 0;
    /* -- every gate holds: the method's body from here */
    Py_INCREF(q);  /* held across the observers, as the method's local */
    Py_INCREF(wobj);
    int rc = -1;
    int flags = (unsigned char)PyByteArray_AS_STRING(flags_col)[h];
    if (ecn != Py_None && (flags & F_ECT) && occ > ecn_t && !(flags & F_CE)) {
        flags |= F_CE;
        if (flag_set(QF(q, Q_FLAGS), h, flags) < 0 ||
            set_i64(q, queue_l.off[Q_MARKED], marked + 1) < 0 ||
            (QF(q, Q_ON_MARK) != Py_None && call1(QF(q, Q_ON_MARK), harg) < 0))
            goto done;
    }
    if (inc != Py_None && occ > inc_t && !(flags & F_INC)) {
        if (flag_set(QF(q, Q_FLAGS), h, flags | F_INC) < 0 ||
            set_i64(q, queue_l.off[Q_INC_MARKED], inc_marked + 1) < 0)
            goto done;
    }
    if (occ + wire > cap) {
        if (set_i64(q, queue_l.off[Q_DROP_P], drop_p + 1) >= 0 &&
            set_i64(q, queue_l.off[Q_DROP_B], drop_b + wire) >= 0 &&
            (QF(q, Q_ON_DROP) == Py_None || call1(QF(q, Q_ON_DROP), harg) >= 0) &&
            call1(QF(q, Q_FREE), harg) >= 0)
            rc = 1;
        goto done;
    }
    if (head < 0 && busy == Py_False) {
        /* cut-through at an idle port */
        if (set_i64(q, queue_l.off[Q_ENQ_P], enq_p + 1) < 0 ||
            set_i64(q, queue_l.off[Q_ENQ_B], enq_b + wire) < 0 ||
            set_i64(q, queue_l.off[Q_DEQ_P], deq_p + 1) < 0 ||
            set_i64(q, queue_l.off[Q_DEQ_B], deq_b + wire) < 0 ||
            (wire > peak && (set_i64(q, queue_l.off[Q_PEAK], wire) < 0 ||
                             set_i64(q, queue_l.off[Q_PEAK_NS], now) < 0)))
            goto done;
        field_set(port, port_l.off[P_BUSY], NULL, Py_True);
        if (ser_delay(port, wobj, &delay) >= 0 &&
            hop_push(core, now + delay, PF(port, P_FINISH), harg) >= 0)
            rc = 1;
        goto done;
    }
    /* behind a busy port: link h at the tail of the backlog chain */
    if (col_set(PF(port, P_LINK_COL), h, long_minus_one) < 0)
        goto done;
    if (head < 0)
        field_set(q, queue_l.off[Q_HEAD], NULL, harg);
    else if (col_set(PF(port, P_LINK_COL), tail, harg) < 0)
        goto done;
    field_set(q, queue_l.off[Q_TAIL], NULL, harg);
    if (set_i64(q, queue_l.off[Q_OCC], occ + wire) < 0 ||
        set_i64(q, queue_l.off[Q_ENQ_P], enq_p + 1) < 0 ||
        set_i64(q, queue_l.off[Q_ENQ_B], enq_b + wire) < 0 ||
        (occ + wire > peak && (set_i64(q, queue_l.off[Q_PEAK], occ + wire) < 0 ||
                               set_i64(q, queue_l.off[Q_PEAK_NS], now) < 0)))
        goto done;
    rc = 1;
done:
    Py_DECREF(wobj);
    Py_DECREF(q);
    return rc;
}

/* Host.receive (net/host.py): a claimed frame goes straight to its
 * endpoint's on_packet; an unclaimed one takes the Python call, which
 * counts and frees it. */
static int
hop_receive(PyObject *host, PyObject *harg, long long h)
{
    if (!layout_of(&host_l, host, host_names, H_N))
        return 0;
    PyObject *dispatch = SLOT(host, host_l.off[H_DISPATCH]);
    PyObject *fid = col_item(SLOT(host, host_l.off[H_FLOW_COL]), h);
    if (dispatch == NULL || !PyDict_CheckExact(dispatch) || fid == NULL || !PyLong_CheckExact(fid))
        return 0;
    PyObject *on_packet = PyDict_GetItemWithError(dispatch, fid);
    if (on_packet == NULL) {
        PyErr_Clear();  /* a miss, or an error the Python call raises again */
        return 0;
    }
    return call1(on_packet, harg) < 0 ? -1 : 1;
}

/* 1: the entry was a plain hop and ran here; 0: call its callback; -1: error. */
static int
hop_run(EventCore *core, PyObject *sim, Py_ssize_t now_off, PyObject *cb, PyObject *arg)
{
    long long h;
    if (!PyMethod_Check(cb) || !as_i64(arg, &h) || h < 0)
        return 0;
    PyObject *fn = PyMethod_GET_FUNCTION(cb);
    PyObject *obj = PyMethod_GET_SELF(cb);
    if (fn == hop_fns[HOP_FINISH])
        return hop_finish_tx(core, sim, now_off, obj, arg, h);
    if (fn == hop_fns[HOP_SEND])
        return hop_send(core, sim, now_off, obj, arg, h);
    if (fn == hop_fns[HOP_RECEIVE])
        return hop_receive(obj, arg, h);
    return 0;
}

/* set_hop(finish_tx, send, receive): the functions the loop runs itself
 * (see above); None leaves a role to the Python call. */
static PyObject *
evcore_set_hop(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != HOP_N) {
        PyErr_SetString(PyExc_TypeError, "set_hop expects (finish_tx, send, receive)");
        return NULL;
    }
    for (int i = 0; i < HOP_N; i++) {
        Py_XINCREF(args[i] == Py_None ? NULL : args[i]);
        Py_XSETREF(hop_fns[i], args[i] == Py_None ? NULL : args[i]);
    }
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* The observers.
 *
 * An invariant checker and an engine profiler attached to the Simulator
 * are served here as Simulator.run()'s Python loop serves them, at the same
 * event indices and in the same order against the stop conditions: after
 * each dispatched event the profiler is credited, then the checker counts
 * toward its next sweep, then _stop, stop_when and the limit are tested.
 *
 * Checker: sweep() runs after every checker.sweep_every events of one
 * run() call.  Dispatch times are compared here, against the last one
 * dispatched; the checker's check_dispatch_time is handed the first time
 * of a call (so the law holds across calls), the last time before each
 * sweep and at exit, and any time that went backwards, which it rejects.
 *
 * Profiler: each callback is timed with a monotonic clock and credited to
 * its kind, __qualname__ else the type name, read off the function of a
 * Python function or method; a hop the loop runs itself counts under its
 * method.  A same-timestamp batch breaks where the Python loop breaks it:
 * at a stop, at a new timestamp, and at a cancelled or deferred Event at
 * the same timestamp.  Totals per kind are held here and flushed into the
 * EngineProfiler when the call returns or raises; the batch in progress
 * when a callback raises is dropped, as the Python loop drops it. */

typedef struct {
    long long count, ns, batch_events;
} KindTotals;

typedef struct {
    /* checker (check == NULL: none attached) */
    PyObject *check, *sweep;  /* bound check_dispatch_time, sweep (owned) */
    long long sweep_every, since_sweep, last_time;
    int have_last;            /* an event was dispatched in this call */
    int handed;               /* the checker has seen last_time */
    /* profiler (profiler == NULL: none attached) */
    PyObject *profiler;       /* borrowed */
    PyObject *kinds;          /* kind -> index into totals (owned) */
    KindTotals *totals;
    Py_ssize_t ntotals, totals_cap;
    Py_ssize_t *batch;        /* the current batch's kind indices */
    Py_ssize_t nbatch, batch_cap;
    long long batches;
} Observers;

static inline long long
mono_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static int
observers_open(Observers *o, PyObject *checker, PyObject *profiler)
{
    memset(o, 0, sizeof(*o));
    if (checker != Py_None) {
        PyObject *every = PyObject_GetAttr(checker, str_sweep_every);
        if (every == NULL)
            return -1;
        o->sweep_every = PyLong_AsLongLong(every);
        Py_DECREF(every);
        if (o->sweep_every == -1 && PyErr_Occurred())
            return -1;
        o->check = PyObject_GetAttr(checker, str_check_time);
        o->sweep = PyObject_GetAttr(checker, str_sweep);
        if (o->check == NULL || o->sweep == NULL)
            return -1;
    }
    if (profiler != Py_None) {
        o->profiler = profiler;
        if ((o->kinds = PyDict_New()) == NULL)
            return -1;
    }
    return 0;
}

/* checker.check_dispatch_time(t) */
static int
checker_check(Observers *o, long long t)
{
    PyObject *arg = PyLong_FromLongLong(t);
    if (arg == NULL)
        return -1;
    PyObject *res = PyObject_CallOneArg(o->check, arg);
    Py_DECREF(arg);
    Py_XDECREF(res);
    return res == NULL ? -1 : 0;
}

/* Show the checker the last dispatched time, unless it has seen it. */
static int
checker_handoff(Observers *o)
{
    if (!o->have_last || o->handed)
        return 0;
    o->handed = 1;
    return checker_check(o, o->last_time);
}

/* The monotone-dispatch law, before the events at t fire. */
static int
checker_dispatch_time(Observers *o, long long t)
{
    if (o->have_last && t >= o->last_time) {
        if (t != o->last_time) {
            o->last_time = t;
            o->handed = 0;
        }
        return 0;
    }
    if (checker_handoff(o) < 0 || checker_check(o, t) < 0)
        return -1;
    o->have_last = 1;
    o->handed = 1;
    o->last_time = t;
    return 0;
}

/* After each dispatched event: sweep every sweep_every of them. */
static int
checker_count(Observers *o)
{
    if (++o->since_sweep < o->sweep_every)
        return 0;
    o->since_sweep = 0;
    if (checker_handoff(o) < 0)
        return -1;
    PyObject *res = PyObject_CallNoArgs(o->sweep);
    Py_XDECREF(res);
    return res == NULL ? -1 : 0;
}

/* The Python loop's `getattr(cb, "__qualname__", None) or
 * type(cb).__name__` (new reference). */
static PyObject *
kind_of(PyObject *cb)
{
    PyObject *fn = PyMethod_Check(cb) ? PyMethod_GET_FUNCTION(cb) : cb;
    if (PyFunction_Check(fn)) {
        PyObject *name = ((PyFunctionObject *)fn)->func_qualname;
        if (PyUnicode_Check(name) && PyUnicode_GET_LENGTH(name) > 0) {
            Py_INCREF(name);
            return name;
        }
    }
    PyObject *name = PyObject_GetAttr(cb, str_qualname);
    if (name == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            return NULL;
        PyErr_Clear();
    } else {
        int truthy = PyObject_IsTrue(name);
        if (truthy != 0) {
            if (truthy < 0)
                Py_CLEAR(name);
            return name;
        }
        Py_DECREF(name);
    }
    return PyObject_GetAttr((PyObject *)Py_TYPE(cb), str_name);
}

/* Credit one dispatched callback and its time to its kind. */
static int
profiler_credit(Observers *o, PyObject *cb, long long ns)
{
    PyObject *kind = kind_of(cb);
    if (kind == NULL)
        return -1;
    Py_ssize_t i;
    PyObject *index = PyDict_GetItemWithError(o->kinds, kind);
    if (index != NULL) {
        i = PyLong_AsSsize_t(index);
    } else {
        if (PyErr_Occurred())
            goto fail;
        if (o->ntotals == o->totals_cap) {
            Py_ssize_t cap = o->totals_cap ? 2 * o->totals_cap : 16;
            KindTotals *totals = PyMem_Realloc(o->totals, cap * sizeof(KindTotals));
            if (totals == NULL) {
                PyErr_NoMemory();
                goto fail;
            }
            o->totals = totals;
            o->totals_cap = cap;
        }
        i = o->ntotals;
        index = PyLong_FromSsize_t(i);
        if (index == NULL || PyDict_SetItem(o->kinds, kind, index) < 0) {
            Py_XDECREF(index);
            goto fail;
        }
        Py_DECREF(index);
        memset(&o->totals[i], 0, sizeof(KindTotals));
        o->ntotals += 1;
    }
    Py_DECREF(kind);
    if (o->nbatch == o->batch_cap) {
        Py_ssize_t cap = o->batch_cap ? 2 * o->batch_cap : 64;
        Py_ssize_t *batch = PyMem_Realloc(o->batch, cap * sizeof(Py_ssize_t));
        if (batch == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        o->batch = batch;
        o->batch_cap = cap;
    }
    o->batch[o->nbatch++] = i;
    o->totals[i].count += 1;
    o->totals[i].ns += ns;
    return 0;
fail:
    Py_DECREF(kind);
    return -1;
}

/* EngineProfiler.record_batch: every member's kind is credited the size. */
static void
profiler_end_batch(Observers *o)
{
    Py_ssize_t n = o->nbatch;
    if (n == 0)
        return;
    o->batches += 1;
    for (Py_ssize_t j = 0; j < n; j++)
        o->totals[o->batch[j]].batch_events += n;
    o->nbatch = 0;
}

/* Does the next entry by (time, seq) across both heaps, a carcass or a
 * deferral included, carry the batch at ev_time on: a light entry, or a
 * live, undeferred Event, at ev_time?  -1 on error. */
static int
batch_continues(EventCore *core, PyObject *heap, long long ev_time, const Offsets *off)
{
    int light = core->size > 0 && core->heap[0].t == ev_time;
    if (PyList_GET_SIZE(heap) == 0)
        return light;
    PyObject *entry = PyList_GET_ITEM(heap, 0);
    long long t = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 0));
    if (t == -1 && PyErr_Occurred())
        return -1;
    if (core->size > 0 && core->heap[0].t <= t) {
        int light_first = core->heap[0].t < t;
        if (!light_first) {
            long long s = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
            if (s == -1 && PyErr_Occurred())
                return -1;
            light_first = core->heap[0].s < s;
        }
        if (light_first)
            return light;
    }
    if (t != ev_time)
        return 0;
    PyObject *ev = PyTuple_GET_ITEM(entry, 2), *owned;
    PyObject *flag = field_get(ev, off->cancelled, str_cancelled, &owned);
    if (flag == NULL)
        return -1;
    int cancelled = (flag == Py_True);
    Py_XDECREF(owned);
    if (cancelled)
        return 0;
    PyObject *dl = field_get(ev, off->deadline, str_deadline, &owned);
    if (dl == NULL)
        return -1;
    long long deadline = PyLong_AsLongLong(dl);
    Py_XDECREF(owned);
    if (deadline == -1 && PyErr_Occurred())
        return -1;
    return deadline <= ev_time;
}

/* d[key] = d.get(key, 0) + delta (delta stolen) */
static int
dict_add(PyObject *d, PyObject *key, PyObject *delta)
{
    if (delta == NULL)
        return -1;
    PyObject *old = PyDict_GetItemWithError(d, key);
    PyObject *sum = NULL;
    if (old != NULL)
        sum = PyNumber_Add(old, delta);
    else if (!PyErr_Occurred()) {
        sum = delta;
        Py_INCREF(sum);
    }
    Py_DECREF(delta);
    int rc = sum == NULL ? -1 : PyDict_SetItem(d, key, sum);
    Py_XDECREF(sum);
    return rc;
}

static int
profiler_flush(Observers *o)
{
    PyObject *counts = PyObject_GetAttr(o->profiler, str_counts);
    PyObject *times = PyObject_GetAttr(o->profiler, str_times);
    PyObject *batch_events = PyObject_GetAttr(o->profiler, str_batch_events);
    PyObject *batches = PyObject_GetAttr(o->profiler, str_batches);
    PyObject *kind, *index, *sum = NULL;
    Py_ssize_t pos = 0;
    int rc = -1;
    if (counts == NULL || times == NULL || batch_events == NULL || batches == NULL)
        goto done;
    if (!PyDict_Check(counts) || !PyDict_Check(times) || !PyDict_Check(batch_events)) {
        PyErr_SetString(PyExc_TypeError, "profiler counts, times_s, batch_events must be dicts");
        goto done;
    }
    while (PyDict_Next(o->kinds, &pos, &kind, &index)) {
        KindTotals *k = &o->totals[PyLong_AsSsize_t(index)];
        if (dict_add(counts, kind, PyLong_FromLongLong(k->count)) < 0 ||
            dict_add(times, kind, PyFloat_FromDouble(k->ns * 1e-9)) < 0 ||
            (k->batch_events > 0 &&
             dict_add(batch_events, kind, PyLong_FromLongLong(k->batch_events)) < 0))
            goto done;
    }
    PyObject *more = PyLong_FromLongLong(o->batches);
    if (more == NULL)
        goto done;
    sum = PyNumber_Add(batches, more);
    Py_DECREF(more);
    if (sum != NULL)
        rc = PyObject_SetAttr(o->profiler, str_batches, sum);
done:
    Py_XDECREF(sum);
    Py_XDECREF(counts);
    Py_XDECREF(times);
    Py_XDECREF(batch_events);
    Py_XDECREF(batches);
    return rc;
}

/* At exit, returning or raising: the checker sees the last time, the
 * profiler receives its totals.  A raised exception wins over any error
 * here. */
static int
observers_close(Observers *o)
{
    SavedError saved;
    error_save(&saved);
    int rc = 0;
    if (o->check != NULL && checker_handoff(o) < 0)
        rc = -1;
    if (o->profiler != NULL && rc == 0 && profiler_flush(o) < 0)
        rc = -1;
    Py_XDECREF(o->check);
    Py_XDECREF(o->sweep);
    Py_XDECREF(o->kinds);
    PyMem_Free(o->totals);
    PyMem_Free(o->batch);
    return error_restore(&saved) ? -1 : rc;
}

/* run(sim, queue, until, limit, stop_when, noop, freelist_max, evtype,
 *     checker, profiler)
 *
 * The dispatch loop.  Mirrors Simulator.run()'s batched pure-Python
 * loop exactly: same head-scan semantics (skip cancelled carcasses,
 * re-file deferred reschedules), same stop-condition order after every
 * callback (_stop, then stop_when, then the event limit), same freelist
 * recycling, and the same service to an attached checker and profiler
 * (None for either when absent; see "The observers" above).  The pure
 * loop batches same-timestamp events purely to amortize *interpreter*
 * overhead; here the clock store is skipped when the timestamp repeats,
 * which is observably identical.
 *
 * Returns the number of events processed.
 */
static PyObject *
EventCore_run(EventCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 10) {
        PyErr_SetString(
            PyExc_TypeError,
            "run expects (sim, queue, until, limit, stop_when, noop, freelist_max, evtype, "
            "checker, profiler)");
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

    Observers obs;
    if (observers_open(&obs, args[8], args[9]) < 0) {
        observers_close(&obs);
        return NULL;
    }
    int profiled = obs.profiler != NULL;

    PyObject *heap = PyObject_GetAttr(queue, str_heap);
    PyObject *free_list = PyObject_GetAttr(queue, str_free);
    if (heap == NULL || free_list == NULL) {
        Py_XDECREF(heap);
        Py_XDECREF(free_list);
        observers_close(&obs);
        return NULL;
    }

    long long processed = 0;
    long long last_now = -1;

    while (processed < limit) {
        /* -- establish the live head of the object heap, when it is --
         * -- the global head: the Python loop meets a carcass or a
         * -- deferral only there, and its batches break at them ------- */
        long long s_time = 0;
        int have_slow = 0;
        while (PyList_GET_SIZE(heap) > 0) {
            PyObject *entry = PyList_GET_ITEM(heap, 0);
            long long etime = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 0));
            if (etime == -1 && PyErr_Occurred())
                goto error;
            if (self->size > 0 && self->heap[0].t < etime)
                break;  /* a light entry goes first */
            long long eseq = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
            if (eseq == -1 && PyErr_Occurred())
                goto error;
            if (self->size > 0 && self->heap[0].t == etime && self->heap[0].s < eseq)
                break;
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
            have_slow = 1;
            break;
        }

        /* -- the global minimum across both heaps -------------------- */
        int take_light;
        long long ev_time;
        if (have_slow) {
            take_light = 0;
            ev_time = s_time;
        } else if (self->size > 0) {
            take_light = 1;
            ev_time = self->heap[0].t;
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

        if (obs.check != NULL && checker_dispatch_time(&obs, ev_time) < 0)
            goto error;
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
        PyObject *fired = NULL;  /* profiled: the callback, held until credited */
        long long started = 0, elapsed = 0;
        if (take_light) {
            LEntry e;
            core_pop_entry(self, &e);
            if (profiled)
                started = mono_ns();
            int hop = hop_run(self, sim, off.now, e.cb, e.arg);
            if (hop == 0) {
                PyObject *res = PyObject_CallOneArg(e.cb, e.arg);
                Py_XDECREF(res);
                hop = res == NULL ? -1 : 1;
            }
            if (profiled) {
                elapsed = mono_ns() - started;
                fired = e.cb;
            } else {
                Py_DECREF(e.cb);
            }
            Py_DECREF(e.arg);
            if (hop < 0) {
                Py_XDECREF(fired);
                goto error;
            }
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
            if (profiled)
                started = mono_ns();
            PyObject *res = PyObject_Call(cb, cargs, NULL);
            if (profiled) {
                elapsed = mono_ns() - started;
                fired = cb;
            } else {
                Py_DECREF(cb);
            }
            Py_DECREF(cargs);
            if (res == NULL) {
                Py_XDECREF(fired);
                Py_DECREF(ev);
                goto error;
            }
            Py_DECREF(res);
            if (PyList_GET_SIZE(free_list) < freelist_max) {
                if (field_set(ev, off.callback, str_callback, noop) < 0 ||
                    field_set(ev, off.args, str_args, empty_tuple) < 0 ||
                    PyList_Append(free_list, ev) < 0) {
                    Py_XDECREF(fired);
                    Py_DECREF(ev);
                    goto error;
                }
            }
            Py_DECREF(ev);
        }
        processed += 1;

        /* -- observers, then stop conditions, in the pure loop's order */
        if (profiled) {
            int rc = profiler_credit(&obs, fired, elapsed);
            Py_DECREF(fired);
            if (rc < 0)
                goto error;
        }
        if (obs.check != NULL && checker_count(&obs) < 0)
            goto error;
        PyObject *stop_owned;
        PyObject *stop_flag = field_get(sim, off.stop, str_stop, &stop_owned);
        if (stop_flag == NULL)
            goto error;
        int stop = (stop_flag == Py_True);
        Py_XDECREF(stop_owned);
        if (!stop && stop_when != NULL) {
            PyObject *verdict = PyObject_CallNoArgs(stop_when);
            if (verdict == NULL)
                goto error;
            stop = PyObject_IsTrue(verdict);
            Py_DECREF(verdict);
            if (stop < 0)
                goto error;
        }
        if (profiled) {
            int more = stop || processed >= limit ? 0 : batch_continues(self, heap, ev_time, &off);
            if (more < 0)
                goto error;
            if (!more)
                profiler_end_batch(&obs);
        }
        if (stop)
            break;
    }

    Py_DECREF(heap);
    Py_DECREF(free_list);
    bump_processed(sim, processed);
    if (observers_close(&obs) < 0)
        return NULL;
    return PyLong_FromLongLong(processed);

error:
    Py_DECREF(heap);
    Py_DECREF(free_list);
    bump_processed(sim, processed);
    observers_close(&obs);
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

static PyMethodDef evcore_functions[] = {
    {"set_hop", (PyCFunction)(void (*)(void))evcore_set_hop, METH_FASTCALL,
     "set_hop(finish_tx, send, receive): the methods the loop runs itself."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef evcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_evcore",
    .m_doc = "Native event core for repro.sim (see repro/sim/_native.py).",
    .m_size = -1,
    .m_methods = evcore_functions,
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
    INTERN(str_qualname, "__qualname__");
    INTERN(str_name, "__name__");
    INTERN(str_sweep, "sweep");
    INTERN(str_sweep_every, "sweep_every");
    INTERN(str_check_time, "check_dispatch_time");
    INTERN(str_counts, "counts");
    INTERN(str_times, "times_s");
    INTERN(str_batch_events, "batch_events");
    INTERN(str_batches, "batches");
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
