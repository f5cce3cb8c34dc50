/* _cstep: compiled dispatch fast path for the wormhole engine.
 *
 * A hand-written CPython extension (no Cython) implementing the fused
 * event loop of repro.sim.wormengine.WormEngine.run_events -- heap
 * pop/merge with the arrival stream, EV_REQUEST/EV_RELEASE/EV_INJECT
 * dispatch, free-path fast hops, drain chaining and ballistic
 * whole-worm completion -- as native code over the very same Python
 * objects the pure-Python kernel uses.
 *
 * Design rules (the reasons this can be bit-identical):
 *
 * 1. SINGLE STORE OF TRUTH.  There is no mirrored C state.  Worm and
 *    EventQueue fields are read and written through their __slots__
 *    member offsets (resolved at configure() time from the live
 *    classes, never hard-coded); the queue's _heap list is sifted in
 *    place with heapq's own algorithm, so it is a valid heapq heap (the
 *    very layout heapq would build) at every callout; channel
 *    holders/FIFOs are the flat lists of repro.sim.state.ChannelState.
 *    Bouncing a run to the Python kernel therefore needs zero state
 *    synchronisation.
 *
 * 2. TRANSCRIPTION, NOT REIMPLEMENTATION.  Every function below is a
 *    transcription of its Python counterpart (named in its comment).
 *    The one deliberate difference is the fast-forward interference
 *    limit -- the earliest queued event or arrival -- which is cached
 *    in a local and refreshed after anything that can push an event,
 *    where the Python loop re-reads the heap head every hop.  Ballistic
 *    completion (ctx_ballistic) has no Python counterpart: it replays
 *    exactly what the stepped Python loop would do, and the c/python
 *    differential suite is its check.  Keep them in sync with
 *    wormengine.py.
 *
 * 3. PYTHON CALLOUTS FOR EVERYTHING COLD.  Arrival firing (and the worm
 *    spawning it triggers), EV_CALL payloads, deadlock recovery and the
 *    on_clone/on_complete hooks call back into Python.  The engine's
 *    _remaining window attr is synced before any callout that can
 *    observe it, and re-read afterwards, at exactly the program points
 *    the Python loop reads its own attribute.
 *
 * 4. BOUNCE WHAT YOU DO NOT MODEL.  Timestamps at or beyond 2^52 (near
 *    where doubles stop holding every integer cycle, so C double
 *    compares could diverge from Python's exact int/float compares),
 *    non-standard queue classes
 *    or per-hop acquire/release hooks make run_events return
 *    (fired_so_far, True) at a clean iteration boundary -- the caller
 *    finishes the run with the pure-Python kernel.  inject() returns
 *    False to decline and the caller falls back likewise.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>

/* double timestamps are integer-exact below 2^52; past it, bounce. */
#define TIME_MAX 4503599627370496.0
#define SEQ_MAX (1LL << 62)

/* ------------------------------------------------------------------ */
/* configuration (configure() fills these)                             */

static int configured = 0;
static PyTypeObject *worm_type = NULL;
static PyTypeObject *queue_type = NULL;
static long ev_request_c = 0, ev_release_c = 1, ev_inject_c = 2;
static long long fifo_compact = 32;

/* Worm __slots__ offsets */
static Py_ssize_t w_uid, w_ctime, w_path, w_H, w_acq, w_ptr, w_mlen,
    w_clones, w_blocked, w_done;
/* EventQueue __slots__ offsets */
static Py_ssize_t q_heap, q_seq, q_now;

/* interned names */
static PyObject *s_events, *s_holders, *s_fifos, *s_fifo_heads,
    *s_on_clone, *s_on_complete, *s_on_acquire, *s_on_release,
    *s_arrivals, *s_horizon, *s_remaining, *s_active_worms, *s_recover,
    *s_next_time, *s_fire;

/* ------------------------------------------------------------------ */
/* slot access                                                         */

static inline PyObject *
slot_get(PyObject *o, Py_ssize_t off)
{
    return *(PyObject **)((char *)o + off);
}

/* store v (borrowed in, increfed here), releasing the old value */
static int
slot_set(PyObject *o, Py_ssize_t off, PyObject *v)
{
    PyObject **p = (PyObject **)((char *)o + off);
    PyObject *old = *p;
    Py_INCREF(v);
    *p = v;
    Py_XDECREF(old);
    return 0;
}

/* store v (steals the reference); fails if v is NULL */
static int
slot_set_steal(PyObject *o, Py_ssize_t off, PyObject *v)
{
    PyObject **p, *old;
    if (v == NULL)
        return -1;
    p = (PyObject **)((char *)o + off);
    old = *p;
    *p = v;
    Py_XDECREF(old);
    return 0;
}

static int
slot_get_ll(PyObject *o, Py_ssize_t off, long long *out)
{
    PyObject *v = slot_get(o, off);
    long long r;
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    r = PyLong_AsLongLong(v);
    if (r == -1 && PyErr_Occurred())
        return -1;
    *out = r;
    return 0;
}

static int
slot_set_ll(PyObject *o, Py_ssize_t off, long long v)
{
    return slot_set_steal(o, off, PyLong_FromLongLong(v));
}

static int
slot_set_double(PyObject *o, Py_ssize_t off, double v)
{
    return slot_set_steal(o, off, PyFloat_FromDouble(v));
}

/* ------------------------------------------------------------------ */
/* engine attribute helpers                                            */

static int
eng_get_ll(PyObject *engine, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(engine, name);
    long long r;
    if (v == NULL)
        return -1;
    r = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (r == -1 && PyErr_Occurred())
        return -1;
    *out = r;
    return 0;
}

static int
eng_set_ll(PyObject *engine, PyObject *name, long long v)
{
    PyObject *o = PyLong_FromLongLong(v);
    int rc;
    if (o == NULL)
        return -1;
    rc = PyObject_SetAttr(engine, name, o);
    Py_DECREF(o);
    return rc;
}

static int
eng_add_ll(PyObject *engine, PyObject *name, long long delta)
{
    long long v;
    if (eng_get_ll(engine, name, &v))
        return -1;
    return eng_set_ll(engine, name, v + delta);
}

/* ------------------------------------------------------------------ */
/* event records                                                       */

static int
rec_check(PyObject *rec)
{
    if (!PyTuple_CheckExact(rec) || PyTuple_GET_SIZE(rec) != 5) {
        PyErr_SetString(PyExc_RuntimeError,
                        "malformed event record (want a 5-tuple)");
        return -1;
    }
    return 0;
}

static int
rec_time(PyObject *rec, double *out)
{
    double d = PyFloat_AsDouble(PyTuple_GET_ITEM(rec, 0));
    if (d == -1.0 && PyErr_Occurred())
        return -1;
    *out = d;
    return 0;
}

static PyObject *
mk_rec(double t, long long seq, long code, PyObject *payload, long pos)
{
    PyObject *r = PyTuple_New(5);
    PyObject *o;
    if (r == NULL)
        return NULL;
    o = PyFloat_FromDouble(t);
    if (o == NULL)
        goto fail;
    PyTuple_SET_ITEM(r, 0, o);
    o = PyLong_FromLongLong(seq);
    if (o == NULL)
        goto fail;
    PyTuple_SET_ITEM(r, 1, o);
    o = PyLong_FromLong(code);
    if (o == NULL)
        goto fail;
    PyTuple_SET_ITEM(r, 2, o);
    Py_INCREF(payload);
    PyTuple_SET_ITEM(r, 3, payload);
    o = PyLong_FromLong(pos);
    if (o == NULL)
        goto fail;
    PyTuple_SET_ITEM(r, 4, o);
    return r;
fail:
    Py_DECREF(r);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* run context                                                         */

typedef struct {
    PyObject *engine;     /* borrowed (caller holds it) */
    PyObject *events;     /* strong */
    PyObject *holders;    /* strong, list */
    PyObject *fifos;      /* strong, list of lists */
    PyObject *fifo_heads; /* strong, list of ints */
    PyObject *heap;       /* strong, list (the queue's heapq heap) */
    PyObject *on_clone;   /* strong or NULL */
    PyObject *on_complete;/* strong or NULL */
    PyObject *arrivals;   /* strong or NULL */
    double arr_next;      /* arrivals.next_time (inf without arrivals) */
    double horizon;
    long long remaining;  /* live event budget (attr synced at callouts) */
    Py_ssize_t nch;
} Ctx;

static void
ctx_clear(Ctx *c)
{
    Py_CLEAR(c->events);
    Py_CLEAR(c->holders);
    Py_CLEAR(c->fifos);
    Py_CLEAR(c->fifo_heads);
    Py_CLEAR(c->heap);
    Py_CLEAR(c->on_clone);
    Py_CLEAR(c->on_complete);
    Py_CLEAR(c->arrivals);
}

/* returns 0 ok, 1 decline (caller should use the Python kernel), -1 error */
static int
ctx_init(Ctx *c, PyObject *engine)
{
    PyObject *v;
    long long seq;
    memset(c, 0, sizeof(*c));
    c->engine = engine;

    c->events = PyObject_GetAttr(engine, s_events);
    if (c->events == NULL)
        return -1;
    if (Py_TYPE(c->events) != queue_type)
        goto decline;

    if (slot_get_ll(c->events, q_seq, &seq))
        goto decline_clear;
    if (seq < 0 || seq > SEQ_MAX)
        goto decline;

    v = slot_get(c->events, q_heap);
    if (v == NULL || !PyList_CheckExact(v))
        goto decline;
    Py_INCREF(v);
    c->heap = v;

    c->holders = PyObject_GetAttr(engine, s_holders);
    if (c->holders == NULL)
        goto decline_clear;
    c->fifos = PyObject_GetAttr(engine, s_fifos);
    if (c->fifos == NULL)
        goto decline_clear;
    c->fifo_heads = PyObject_GetAttr(engine, s_fifo_heads);
    if (c->fifo_heads == NULL)
        goto decline_clear;
    if (!PyList_CheckExact(c->holders) || !PyList_CheckExact(c->fifos) ||
        !PyList_CheckExact(c->fifo_heads))
        goto decline;
    c->nch = PyList_GET_SIZE(c->holders);
    if (PyList_GET_SIZE(c->fifos) != c->nch ||
        PyList_GET_SIZE(c->fifo_heads) != c->nch)
        goto decline;

    /* per-hop hooks are not modelled: their owners take the Python kernel */
    v = PyObject_GetAttr(engine, s_on_acquire);
    if (v == NULL)
        goto decline_clear;
    if (v != Py_None) {
        Py_DECREF(v);
        goto decline;
    }
    Py_DECREF(v);
    v = PyObject_GetAttr(engine, s_on_release);
    if (v == NULL)
        goto decline_clear;
    if (v != Py_None) {
        Py_DECREF(v);
        goto decline;
    }
    Py_DECREF(v);

    v = PyObject_GetAttr(engine, s_on_clone);
    if (v == NULL)
        goto decline_clear;
    if (v == Py_None)
        Py_DECREF(v);
    else
        c->on_clone = v;
    v = PyObject_GetAttr(engine, s_on_complete);
    if (v == NULL)
        goto decline_clear;
    if (v == Py_None)
        Py_DECREF(v);
    else
        c->on_complete = v;
    return 0;

decline_clear:
    PyErr_Clear();
decline:
    ctx_clear(c);
    return 1;
}

/* ------------------------------------------------------------------ */
/* worm helpers                                                        */

static int
worm_get_long(PyObject *w, Py_ssize_t off, long *out)
{
    long long v;
    if (slot_get_ll(w, off, &v))
        return -1;
    *out = (long)v;
    return 0;
}

static int
worm_done(PyObject *w, int *out)
{
    PyObject *v = slot_get(w, w_done);
    int r;
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    r = PyObject_IsTrue(v);
    if (r < 0)
        return -1;
    *out = r;
    return 0;
}

static int
path_channel(Ctx *c, PyObject *path, long i, long *out)
{
    long v;
    if (!PyTuple_CheckExact(path)) {
        PyErr_SetString(PyExc_TypeError, "worm path must be a tuple");
        return -1;
    }
    if (i < 0 || i >= PyTuple_GET_SIZE(path)) {
        PyErr_SetString(PyExc_IndexError, "worm path index out of range");
        return -1;
    }
    v = PyLong_AsLong(PyTuple_GET_ITEM(path, i));
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < 0 || v >= (long)c->nch) {
        PyErr_SetString(PyExc_IndexError, "channel index out of range");
        return -1;
    }
    *out = v;
    return 0;
}

static int
tuple_contains_long(PyObject *tup, long v, int *err)
{
    Py_ssize_t i, n;
    if (!PyTuple_CheckExact(tup)) {
        PyErr_SetString(PyExc_TypeError, "clone_positions must be a tuple");
        *err = 1;
        return 0;
    }
    n = PyTuple_GET_SIZE(tup);
    for (i = 0; i < n; i++) {
        long w = PyLong_AsLong(PyTuple_GET_ITEM(tup, i));
        if (w == -1 && PyErr_Occurred()) {
            *err = 1;
            return 0;
        }
        if (w == v)
            return 1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* channel state helpers (repro.sim.state.ChannelState)                */

static int
holders_set(Ctx *c, long ch, PyObject *v)
{
    Py_INCREF(v);
    return PyList_SetItem(c->holders, ch, v); /* steals, releases old */
}

static inline int
fifo_nonempty(Ctx *c, long ch)
{
    return PyList_GET_SIZE(PyList_GET_ITEM(c->fifos, ch)) != 0;
}

/* ChannelState.fifo_pop: cursor advance + eager-clear/compaction */
static PyObject *
fifo_pop(Ctx *c, long ch)
{
    PyObject *q = PyList_GET_ITEM(c->fifos, ch);
    PyObject *nh, *worm;
    long long h = PyLong_AsLongLong(PyList_GET_ITEM(c->fifo_heads, ch));
    if (h == -1 && PyErr_Occurred())
        return NULL;
    if (h < 0 || h >= PyList_GET_SIZE(q)) {
        PyErr_SetString(PyExc_RuntimeError, "corrupt fifo cursor");
        return NULL;
    }
    worm = PyList_GET_ITEM(q, h);
    Py_INCREF(worm);
    h += 1;
    if (h == PyList_GET_SIZE(q) || h >= fifo_compact) {
        if (PyList_SetSlice(q, 0, (Py_ssize_t)h, NULL) < 0) {
            Py_DECREF(worm);
            return NULL;
        }
        h = 0;
    }
    nh = PyLong_FromLongLong(h);
    if (nh == NULL || PyList_SetItem(c->fifo_heads, ch, nh) < 0) {
        Py_DECREF(worm);
        return NULL;
    }
    return worm;
}

/* ------------------------------------------------------------------ */
/* event heap (EventQueue._heap): heapq's algorithm, in place         */

/* heapq's ``<`` on records: (time, seq) order -- seqs are unique, so the
 * comparison never reaches the payload.  Float times and int seqs (every
 * record the engine pushes) compare as raw doubles and long longs
 * without running any Python code; anything else -- an int timestamp
 * pushed through the public API, say -- takes Python's own tuple
 * comparison.  1 / 0, or -1 on error. */
static int
rec_lt(PyObject *a, PyObject *b)
{
    int r;
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b) &&
        PyTuple_GET_SIZE(a) >= 2 && PyTuple_GET_SIZE(b) >= 2) {
        PyObject *ta = PyTuple_GET_ITEM(a, 0), *tb = PyTuple_GET_ITEM(b, 0);
        if (PyFloat_CheckExact(ta) && PyFloat_CheckExact(tb)) {
            double x = PyFloat_AS_DOUBLE(ta), y = PyFloat_AS_DOUBLE(tb);
            PyObject *sa, *sb;
            if (x < y)
                return 1;
            if (x > y)
                return 0;
            sa = PyTuple_GET_ITEM(a, 1);
            sb = PyTuple_GET_ITEM(b, 1);
            if (x == y && PyLong_CheckExact(sa) && PyLong_CheckExact(sb)) {
                int oa, ob;
                long long p = PyLong_AsLongLongAndOverflow(sa, &oa);
                long long q = PyLong_AsLongLongAndOverflow(sb, &ob);
                if (!oa && !ob)
                    return p < q;
            }
        }
    }
    Py_INCREF(a);
    Py_INCREF(b);
    r = PyObject_RichCompareBool(a, b, Py_LT);
    Py_DECREF(a);
    Py_DECREF(b);
    return r;
}

/* heapq._siftdown: move heap[pos] toward the root */
static int
heap_siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    Py_ssize_t size = PyList_GET_SIZE(heap);
    PyObject **arr = ((PyListObject *)heap)->ob_item;
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent;
        int lt = rec_lt(arr[pos], arr[parentpos]);
        if (lt < 0)
            return -1;
        if (size != PyList_GET_SIZE(heap)) {
            PyErr_SetString(PyExc_RuntimeError,
                            "event heap changed size during a sift");
            return -1;
        }
        if (!lt)
            break;
        arr = ((PyListObject *)heap)->ob_item;
        parent = arr[parentpos];
        arr[parentpos] = arr[pos];
        arr[pos] = parent;
        pos = parentpos;
    }
    return 0;
}

/* heapq._siftup: bubble the smaller child up to a leaf, then sift down */
static int
heap_siftup(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t endpos = PyList_GET_SIZE(heap), startpos = pos;
    Py_ssize_t limit = endpos >> 1;
    PyObject **arr = ((PyListObject *)heap)->ob_item;
    while (pos < limit) {
        Py_ssize_t childpos = 2 * pos + 1;
        PyObject *tmp;
        if (childpos + 1 < endpos) {
            int lt = rec_lt(arr[childpos], arr[childpos + 1]);
            if (lt < 0)
                return -1;
            if (endpos != PyList_GET_SIZE(heap)) {
                PyErr_SetString(PyExc_RuntimeError,
                                "event heap changed size during a sift");
                return -1;
            }
            childpos += !lt;
            arr = ((PyListObject *)heap)->ob_item;
        }
        tmp = arr[childpos];
        arr[childpos] = arr[pos];
        arr[pos] = tmp;
        pos = childpos;
    }
    return heap_siftdown(heap, startpos, pos);
}

/* heapq.heappush */
static int
heap_push(Ctx *c, PyObject *rec)
{
    if (PyList_Append(c->heap, rec))
        return -1;
    return heap_siftdown(c->heap, 0, PyList_GET_SIZE(c->heap) - 1);
}

/* heapq.heappop of a non-empty heap; returns a new reference */
static PyObject *
heap_pop(Ctx *c)
{
    PyObject *heap = c->heap, *last, *top;
    Py_ssize_t n = PyList_GET_SIZE(heap);
    /* drop the last slot; its reference moves to us (shrinking ob_size
     * keeps the list valid, and the spare capacity serves the next push) */
    last = PyList_GET_ITEM(heap, n - 1);
    Py_SET_SIZE(heap, n - 1);
    if (n == 1)
        return last;
    top = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last); /* steals last; top's ref is ours */
    if (heap_siftup(heap, 0)) {
        Py_DECREF(top);
        return NULL;
    }
    return top;
}

/* timestamp of the heap head (the queue's next event), inf when empty */
static inline int
heap_next(Ctx *c, double *out)
{
    PyObject *head, *t;
    if (PyList_GET_SIZE(c->heap) == 0) {
        *out = INFINITY;
        return 0;
    }
    head = PyList_GET_ITEM(c->heap, 0);
    if (rec_check(head))
        return -1;
    t = PyTuple_GET_ITEM(head, 0);
    if (PyFloat_CheckExact(t)) {
        *out = PyFloat_AS_DOUBLE(t);
        return 0;
    }
    return rec_time(head, out);
}

/* ------------------------------------------------------------------ */
/* deadlock walk (repro.sim.deadlock.find_wait_cycle)                  */

/* Returns a new list (cycle), Py_None borrowed semantics avoided: on
 * "no cycle" sets *out = NULL and returns 0. */
static int
cfind_wait_cycle(Ctx *c, PyObject *start, PyObject **out)
{
    PyObject *stack_chain[64];
    long long stack_uid[64];
    PyObject **chain = stack_chain;
    long long *uids = stack_uid;
    Py_ssize_t cap = 64, n = 0, i;
    PyObject *w = start;
    int rc = -1;
    *out = NULL;
    while (w != NULL) {
        long long uid;
        PyObject *blocked;
        long ch;
        if (slot_get_ll(w, w_uid, &uid))
            goto done;
        for (i = 0; i < n; i++) {
            if (uids[i] == uid) {
                /* chain[i:] is the cycle */
                PyObject *cycle = PyList_New(n - i);
                Py_ssize_t j;
                if (cycle == NULL)
                    goto done;
                for (j = i; j < n; j++) {
                    Py_INCREF(chain[j]);
                    PyList_SET_ITEM(cycle, j - i, chain[j]);
                }
                *out = cycle;
                rc = 0;
                goto done;
            }
        }
        if (n == cap) {
            Py_ssize_t ncap = cap * 2;
            PyObject **nc = PyMem_New(PyObject *, ncap);
            long long *nu = PyMem_New(long long, ncap);
            if (nc == NULL || nu == NULL) {
                PyMem_Free(nc);
                PyMem_Free(nu);
                PyErr_NoMemory();
                goto done;
            }
            memcpy(nc, chain, cap * sizeof(PyObject *));
            memcpy(nu, uids, cap * sizeof(long long));
            if (chain != stack_chain) {
                PyMem_Free(chain);
                PyMem_Free(uids);
            }
            chain = nc;
            uids = nu;
            cap = ncap;
        }
        chain[n] = w; /* borrowed; all worms stay alive via holders/fifos */
        uids[n] = uid;
        n++;
        blocked = slot_get(w, w_blocked);
        if (blocked == NULL) {
            PyErr_SetString(PyExc_AttributeError, "unset slot");
            goto done;
        }
        if (blocked == Py_None) {
            rc = 0;
            goto done;
        }
        ch = PyLong_AsLong(blocked);
        if (ch == -1 && PyErr_Occurred())
            goto done;
        if (ch < 0 || ch >= (long)c->nch) {
            PyErr_SetString(PyExc_IndexError, "blocked_on out of range");
            goto done;
        }
        w = PyList_GET_ITEM(c->holders, ch);
        if (w == Py_None)
            w = NULL;
    }
    rc = 0;
done:
    if (chain != stack_chain) {
        PyMem_Free(chain);
        PyMem_Free(uids);
    }
    return rc;
}

/* ------------------------------------------------------------------ */
/* engine mechanics                                                    */

static int ctx_grant_fast(Ctx *c, PyObject *worm, long ch, double t);
static int ctx_grant_slow(Ctx *c, PyObject *worm, long ch, double t);
static int ctx_finish_routing(Ctx *c, PyObject *worm, double t);

/* WormEngine._release_position (on_release is None in C mode) */
static int
ctx_release_position(Ctx *c, PyObject *worm, long pos, double t)
{
    PyObject *path, *clones;
    long ch;
    int err = 0;
    clones = slot_get(worm, w_clones);
    if (clones == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    if (c->on_clone != NULL && tuple_contains_long(clones, pos, &err)) {
        PyObject *r = PyObject_CallFunction(c->on_clone, "Old", worm, pos,
                                            t + 1.0);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    if (err)
        return -1;
    path = slot_get(worm, w_path);
    if (path == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    if (path_channel(c, path, pos - 1, &ch))
        return -1;
    if (PyList_GET_ITEM(c->holders, ch) != worm)
        return 0; /* already released (teleported by deadlock recovery) */
    if (holders_set(c, ch, Py_None))
        return -1;
    if (fifo_nonempty(c, ch)) {
        PyObject *w2 = fifo_pop(c, ch);
        int rc;
        if (w2 == NULL)
            return -1;
        rc = ctx_grant_slow(c, w2, ch, t);
        Py_DECREF(w2);
        return rc;
    }
    return 0;
}

/* WormEngine._finish_routing */
static int
ctx_finish_routing(Ctx *c, PyObject *worm, double t)
{
    long h, m, first;
    long long seq;
    PyObject *rec;
    if (slot_set(worm, w_done, Py_True))
        return -1;
    if (worm_get_long(worm, w_H, &h) || worm_get_long(worm, w_mlen, &m))
        return -1;
    first = (h - m > 0 ? h - m : 0) + 1;
    if (slot_get_ll(c->events, q_seq, &seq))
        return -1;
    if (slot_set_ll(c->events, q_seq, seq + (h - first + 1)))
        return -1;
    rec = mk_rec(t + (double)(m + first - h), seq, ev_release_c, worm, first);
    if (rec == NULL)
        return -1;
    if (heap_push(c, rec)) {
        Py_DECREF(rec);
        return -1;
    }
    Py_DECREF(rec);
    if (eng_add_ll(c->engine, s_active_worms, -1))
        return -1;
    if (c->on_complete != NULL) {
        PyObject *r = PyObject_CallFunction(c->on_complete, "OdO", worm,
                                            t + (double)m, Py_False);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    return 0;
}

/* WormEngine._grant with fast=False: the wake-up path out of a release */
static int
ctx_grant_slow(Ctx *c, PyObject *worm, long ch, double t)
{
    PyObject *acq, *rec;
    long ptr, k, m, h, pos;
    long long seq;
    if (holders_set(c, ch, worm))
        return -1;
    if (slot_set(worm, w_blocked, Py_None))
        return -1;
    acq = slot_get(worm, w_acq);
    if (acq == NULL || !PyList_CheckExact(acq)) {
        PyErr_SetString(PyExc_TypeError, "acq_times must be a list");
        return -1;
    }
    {
        PyObject *f = PyFloat_FromDouble(t);
        if (f == NULL || PyList_Append(acq, f)) {
            Py_XDECREF(f);
            return -1;
        }
        Py_DECREF(f);
    }
    if (worm_get_long(worm, w_ptr, &ptr))
        return -1;
    k = ptr + 1;
    if (slot_set_steal(worm, w_ptr, PyLong_FromLong(k)))
        return -1;
    if (worm_get_long(worm, w_mlen, &m))
        return -1;
    pos = k - m;
    if (pos >= 1 && ctx_release_position(c, worm, pos, t))
        return -1;
    if (worm_get_long(worm, w_H, &h))
        return -1;
    if (k >= h)
        return ctx_finish_routing(c, worm, t);
    if (slot_get_ll(c->events, q_seq, &seq))
        return -1;
    rec = mk_rec(t + 1.0, seq, ev_request_c, worm, 0);
    if (rec == NULL)
        return -1;
    if (slot_set_ll(c->events, q_seq, seq + 1)) {
        Py_DECREF(rec);
        return -1;
    }
    if (heap_push(c, rec)) {
        Py_DECREF(rec);
        return -1;
    }
    Py_DECREF(rec);
    return 0;
}

/* Ballistic completion: closed-form replay of the whole remaining
 * hop/drain chain (preconditions proven by ctx_grant_fast: message no
 * shorter than the path, so no early tail releases; no per-hop hooks;
 * channels path[k0:] idle; no waiters behind the held rear; no queued
 * event or arrival at or before the final drain release).  It does
 * exactly what the stepped WormEngine._grant/_drain chain would do --
 * the same clock accumulation, reserved drain-sequence block, hook
 * calls and hook clocks, and event budget -- without the scheduler. */
static int
ctx_ballistic(Ctx *c, PyObject *worm, double t, long k0, long long total)
{
    PyObject *path, *acq, *clones;
    long h, m, i;
    long long seq;
    double tr;
    path = slot_get(worm, w_path);
    if (path == NULL || !PyTuple_CheckExact(path)) {
        PyErr_SetString(PyExc_TypeError, "worm path must be a tuple");
        return -1;
    }
    Py_INCREF(path);
    if (worm_get_long(worm, w_H, &h))
        goto fail_path;
    if (slot_set(worm, w_blocked, Py_None))
        goto fail_path;
    acq = slot_get(worm, w_acq);
    if (acq == NULL || !PyList_CheckExact(acq)) {
        PyErr_SetString(PyExc_TypeError, "acq_times must be a list");
        goto fail_path;
    }
    Py_INCREF(acq);
    {
        PyObject *f = PyFloat_FromDouble(t);
        if (f == NULL || PyList_Append(acq, f)) {
            Py_XDECREF(f);
            goto fail_acq;
        }
        Py_DECREF(f);
    }
    /* the clock is accumulated one add at a time so every float is
     * bit-identical to the stepped kernel's */
    for (i = 0; i < h - k0 - 1; i++) {
        PyObject *f;
        t += 1.0;
        f = PyFloat_FromDouble(t);
        if (f == NULL || PyList_Append(acq, f)) {
            Py_XDECREF(f);
            goto fail_acq;
        }
        Py_DECREF(f);
    }
    Py_DECREF(acq);
    if (slot_set_steal(worm, w_ptr, PyLong_FromLong(h)))
        goto fail_path;
    if (slot_set(worm, w_done, Py_True))
        goto fail_path;
    if (slot_get_ll(c->events, q_seq, &seq) ||
        slot_set_ll(c->events, q_seq, seq + h))
        goto fail_path;
    if (worm_get_long(worm, w_mlen, &m))
        goto fail_path;
    if (eng_add_ll(c->engine, s_active_worms, -1))
        goto fail_path;
    if (c->on_complete != NULL) {
        PyObject *r;
        if (slot_set_double(c->events, q_now, t))
            goto fail_path;
        r = PyObject_CallFunction(c->on_complete, "OdO", worm,
                                  t + (double)m, Py_False);
        if (r == NULL)
            goto fail_path;
        Py_DECREF(r);
    }
    tr = t + (double)(m + 1 - h);
    clones = slot_get(worm, w_clones);
    if (clones == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        goto fail_path;
    }
    if (c->on_clone != NULL && PyTuple_CheckExact(clones) &&
        PyTuple_GET_SIZE(clones) > 0) {
        long pos = 1;
        for (;;) {
            int err = 0;
            if (tuple_contains_long(clones, pos, &err)) {
                PyObject *r;
                if (slot_set_double(c->events, q_now, tr))
                    goto fail_path;
                r = PyObject_CallFunction(c->on_clone, "Old", worm, pos,
                                          tr + 1.0);
                if (r == NULL)
                    goto fail_path;
                Py_DECREF(r);
            }
            if (err)
                goto fail_path;
            if (pos >= h)
                break;
            pos += 1;
            tr += 1.0;
        }
    }
    else {
        if (!PyTuple_CheckExact(clones)) {
            PyErr_SetString(PyExc_TypeError,
                            "clone_positions must be a tuple");
            goto fail_path;
        }
        for (i = 0; i < h - 1; i++)
            tr += 1.0;
    }
    for (i = 0; i < k0; i++) {
        long ch;
        if (path_channel(c, path, i, &ch))
            goto fail_path;
        if (holders_set(c, ch, Py_None))
            goto fail_path;
    }
    Py_DECREF(path);
    if (slot_set_double(c->events, q_now, tr))
        return -1;
    c->remaining -= total;
    return 0;
fail_acq:
    Py_DECREF(acq);
fail_path:
    Py_DECREF(path);
    return -1;
}

/* WormEngine._grant with fast=True: grant + free-path fast-forward,
 * behind the ballistic-completion gate */
static int
ctx_grant_fast(Ctx *c, PyObject *worm, long ch, double t)
{
    PyObject *path, *acq;
    long h, m, k0;
    double horizon = c->horizon, arr_next = c->arr_next, flimit;
    long long remaining = c->remaining;
    int rc = -1;
    path = slot_get(worm, w_path);
    if (path == NULL || !PyTuple_CheckExact(path)) {
        PyErr_SetString(PyExc_TypeError, "worm path must be a tuple");
        return -1;
    }
    Py_INCREF(path);
    acq = slot_get(worm, w_acq);
    if (acq == NULL || !PyList_CheckExact(acq)) {
        PyErr_SetString(PyExc_TypeError, "acq_times must be a list");
        Py_DECREF(path);
        return -1;
    }
    Py_INCREF(acq);
    if (worm_get_long(worm, w_H, &h) || worm_get_long(worm, w_mlen, &m) ||
        worm_get_long(worm, w_ptr, &k0))
        goto done;
    if (h <= m) { /* per-hop hooks are None in C mode by construction */
        long long total = 2LL * h - k0 - 1;
        double t_end = t + (double)(h - k0 + m);
        double qn;
        if (heap_next(c, &qn))
            goto done;
        if (remaining >= total && t_end <= horizon && qn > t_end &&
            arr_next > t_end) {
            int free = 1;
            long i;
            for (i = k0; i < h; i++) {
                long chi;
                if (path_channel(c, path, i, &chi))
                    goto done;
                if (PyList_GET_ITEM(c->holders, chi) != Py_None) {
                    free = 0;
                    break;
                }
            }
            if (free) {
                for (i = 0; i < k0; i++) {
                    long chi;
                    if (path_channel(c, path, i, &chi))
                        goto done;
                    if (fifo_nonempty(c, chi)) {
                        free = 0;
                        break;
                    }
                }
            }
            if (free) {
                rc = ctx_ballistic(c, worm, t, k0, total);
                goto done;
            }
        }
    }
    if (heap_next(c, &flimit))
        goto done;
    if (arr_next < flimit)
        flimit = arr_next;
    for (;;) {
        long ptr, k, pos;
        double u;
        if (holders_set(c, ch, worm))
            goto done;
        if (slot_set(worm, w_blocked, Py_None))
            goto done;
        {
            PyObject *f = PyFloat_FromDouble(t);
            if (f == NULL || PyList_Append(acq, f)) {
                Py_XDECREF(f);
                goto done;
            }
            Py_DECREF(f);
        }
        if (worm_get_long(worm, w_ptr, &ptr))
            goto done;
        k = ptr + 1;
        if (slot_set_steal(worm, w_ptr, PyLong_FromLong(k)))
            goto done;
        pos = k - m;
        if (pos >= 1) {
            if (ctx_release_position(c, worm, pos, t))
                goto done;
            if (heap_next(c, &flimit))
                goto done;
            if (arr_next < flimit)
                flimit = arr_next;
        }
        if (k >= h) {
            c->remaining = remaining;
            rc = ctx_finish_routing(c, worm, t);
            goto done;
        }
        u = t + 1.0;
        if (remaining > 0 && u < flimit && u <= horizon) {
            long nch;
            if (path_channel(c, path, k, &nch))
                goto done;
            if (PyList_GET_ITEM(c->holders, nch) == Py_None) {
                remaining -= 1;
                if (slot_set_double(c->events, q_now, u))
                    goto done;
                t = u;
                ch = nch;
                continue;
            }
        }
        /* fall back to an ordinary scheduled request */
        c->remaining = remaining;
        {
            long long seq;
            PyObject *rec;
            if (slot_get_ll(c->events, q_seq, &seq))
                goto done;
            rec = mk_rec(u, seq, ev_request_c, worm, 0);
            if (rec == NULL)
                goto done;
            if (slot_set_ll(c->events, q_seq, seq + 1) ||
                heap_push(c, rec)) {
                Py_DECREF(rec);
                goto done;
            }
            Py_DECREF(rec);
        }
        rc = 0;
        goto done;
    }
done:
    Py_DECREF(path);
    Py_DECREF(acq);
    return rc;
}

/* WormEngine._block */
static int
ctx_block(Ctx *c, PyObject *worm, long ch, double t)
{
    PyObject *cycle = NULL;
    if (PyList_Append(PyList_GET_ITEM(c->fifos, ch), worm))
        return -1;
    if (slot_set_steal(worm, w_blocked, PyLong_FromLong(ch)))
        return -1;
    if (cfind_wait_cycle(c, worm, &cycle))
        return -1;
    if (cycle != NULL) {
        PyObject *targ, *r;
        /* sync the live budget so recovery hooks observe what the
         * Python loop's attribute would hold at this point */
        if (eng_set_ll(c->engine, s_remaining, c->remaining)) {
            Py_DECREF(cycle);
            return -1;
        }
        targ = PyFloat_FromDouble(t);
        if (targ == NULL) {
            Py_DECREF(cycle);
            return -1;
        }
        r = PyObject_CallMethodObjArgs(c->engine, s_recover, cycle, targ,
                                       NULL);
        Py_DECREF(targ);
        Py_DECREF(cycle);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    return 0;
}

/* WormEngine.inject + _request */
static int
ctx_inject(Ctx *c, PyObject *worm, double t, int fast)
{
    int done;
    long ptr, ch;
    PyObject *path;
    if (worm_done(worm, &done))
        return -1;
    if (done)
        return 0;
    if (c->arrivals != NULL) {
        /* refresh the cached arrival head: an arrival fires, advances
         * the stream's head and spawns worms *before* control returns
         * to the loop, so the head being consumed right now is stale */
        PyObject *nt = PyObject_GetAttr(c->arrivals, s_next_time);
        double d;
        if (nt == NULL)
            return -1;
        d = PyFloat_AsDouble(nt);
        Py_DECREF(nt);
        if (d == -1.0 && PyErr_Occurred())
            return -1;
        c->arr_next = d;
    }
    if (eng_add_ll(c->engine, s_active_worms, 1))
        return -1;
    /* _request */
    if (worm_done(worm, &done))
        return -1;
    if (done)
        return 0;
    path = slot_get(worm, w_path);
    if (path == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    if (worm_get_long(worm, w_ptr, &ptr))
        return -1;
    if (path_channel(c, path, ptr, &ch))
        return -1;
    if (PyList_GET_ITEM(c->holders, ch) == Py_None)
        return fast ? ctx_grant_fast(c, worm, ch, t)
                    : ctx_grant_slow(c, worm, ch, t);
    return ctx_block(c, worm, ch, t);
}

/* WormEngine._drain (on_release is None in C mode) */
static int
ctx_drain(Ctx *c, PyObject *worm, long pos, long long seq, double t,
          double arr_t)
{
    PyObject *dpath, *clones;
    long dh;
    double flimit;
    int rc = -1;
    dpath = slot_get(worm, w_path);
    if (dpath == NULL || !PyTuple_CheckExact(dpath)) {
        PyErr_SetString(PyExc_TypeError, "worm path must be a tuple");
        return -1;
    }
    Py_INCREF(dpath);
    clones = slot_get(worm, w_clones);
    if (clones == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        Py_DECREF(dpath);
        return -1;
    }
    Py_INCREF(clones);
    if (worm_get_long(worm, w_H, &dh))
        goto done;
    if (heap_next(c, &flimit))
        goto done;
    if (arr_t < flimit)
        flimit = arr_t;
    for (;;) {
        long ch;
        double u;
        int err = 0;
        if (c->on_clone != NULL && tuple_contains_long(clones, pos, &err)) {
            PyObject *r = PyObject_CallFunction(c->on_clone, "Old", worm,
                                                pos, t + 1.0);
            if (r == NULL)
                goto done;
            Py_DECREF(r);
            if (heap_next(c, &flimit))
                goto done;
            if (arr_t < flimit)
                flimit = arr_t;
        }
        if (err)
            goto done;
        if (path_channel(c, dpath, pos - 1, &ch))
            goto done;
        if (PyList_GET_ITEM(c->holders, ch) == worm) {
            if (holders_set(c, ch, Py_None))
                goto done;
            if (fifo_nonempty(c, ch)) {
                PyObject *w2 = fifo_pop(c, ch);
                int grc;
                if (w2 == NULL)
                    goto done;
                grc = ctx_grant_slow(c, w2, ch, t);
                Py_DECREF(w2);
                if (grc)
                    goto done;
                if (heap_next(c, &flimit))
                    goto done;
                if (arr_t < flimit)
                    flimit = arr_t;
            }
        }
        if (pos >= dh)
            break;
        pos += 1;
        seq += 1;
        u = t + 1.0;
        if (c->remaining > 0 && u < flimit && u <= c->horizon) {
            c->remaining -= 1;
            if (slot_set_double(c->events, q_now, u))
                goto done;
            t = u;
            continue;
        }
        {
            PyObject *rec2 = mk_rec(u, seq, ev_release_c, worm, pos);
            if (rec2 == NULL)
                goto done;
            if (heap_push(c, rec2)) {
                Py_DECREF(rec2);
                goto done;
            }
            Py_DECREF(rec2);
        }
        break;
    }
    rc = 0;
done:
    Py_DECREF(dpath);
    Py_DECREF(clones);
    return rc;
}

/* ------------------------------------------------------------------ */
/* module entry points                                                 */

static int
check_configured(void)
{
    if (!configured) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_cstep.configure() has not been called");
        return -1;
    }
    return 0;
}

/* run_events(engine, horizon: float, max_events: int | None,
 *            arrivals) -> (fired, bounced) */
static PyObject *
cstep_run_events(PyObject *self, PyObject *args)
{
    PyObject *engine, *max_obj, *arrivals_obj;
    double horizon;
    long long limit;
    Ctx c;
    int rc, bounced = 0;
    PyObject *prev_rem = NULL, *prev_hor = NULL, *prev_arr = NULL;
    PyObject *result = NULL;
    double arr_t;

    if (!PyArg_ParseTuple(args, "OdOO:run_events", &engine, &horizon,
                          &max_obj, &arrivals_obj))
        return NULL;
    if (check_configured())
        return NULL;

    if (max_obj == Py_None)
        limit = LLONG_MAX; /* == sys.maxsize (_NO_LIMIT) on 64-bit */
    else {
        limit = PyLong_AsLongLong(max_obj);
        if (limit == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            return Py_BuildValue("(LO)", 0LL, Py_True); /* bounce */
        }
    }

    rc = ctx_init(&c, engine);
    if (rc < 0)
        return NULL;
    if (rc == 1)
        return Py_BuildValue("(LO)", 0LL, Py_True);

    /* window entry: save/replace the engine's fast-forward state
     * exactly as the Python loop's prologue does */
    prev_rem = PyObject_GetAttr(engine, s_remaining);
    prev_hor = PyObject_GetAttr(engine, s_horizon);
    prev_arr = PyObject_GetAttr(engine, s_arrivals);
    if (prev_rem == NULL || prev_hor == NULL || prev_arr == NULL)
        goto fail_no_restore;
    if (eng_set_ll(engine, s_remaining, limit))
        goto fail;
    {
        PyObject *h = PyFloat_FromDouble(horizon);
        if (h == NULL || PyObject_SetAttr(engine, s_horizon, h)) {
            Py_XDECREF(h);
            goto fail;
        }
        Py_DECREF(h);
    }
    if (PyObject_SetAttr(engine, s_arrivals, arrivals_obj))
        goto fail;
    if (arrivals_obj != Py_None) {
        PyObject *nt = PyObject_GetAttr(arrivals_obj, s_next_time);
        if (nt == NULL)
            goto fail;
        arr_t = PyFloat_AsDouble(nt);
        Py_DECREF(nt);
        if (arr_t == -1.0 && PyErr_Occurred())
            goto fail;
        Py_INCREF(arrivals_obj);
        c.arrivals = arrivals_obj;
    }
    else
        arr_t = INFINITY;
    c.remaining = limit;
    c.horizon = horizon;
    c.arr_next = arr_t;

    while (c.remaining > 0) {
        double qnext;
        if (heap_next(&c, &qnext))
            goto fail;
        if (PyList_GET_SIZE(c.heap) > 0 && qnext <= arr_t) {
            PyObject *rec;
            double time;
            long code;
            if (qnext > horizon)
                break;
            if (!(qnext < TIME_MAX)) { /* far-future timestamps: not modelled */
                bounced = 1;
                break;
            }
            rec = heap_pop(&c);
            if (rec == NULL)
                goto fail;
            if (rec_check(rec) || rec_time(rec, &time) ||
                slot_set(c.events, q_now, PyTuple_GET_ITEM(rec, 0))) {
                Py_DECREF(rec);
                goto fail;
            }
            c.remaining -= 1;
            code = PyLong_AsLong(PyTuple_GET_ITEM(rec, 2));
            if (code == -1 && PyErr_Occurred()) {
                Py_DECREF(rec);
                goto fail;
            }
            if (code == ev_request_c) {
                PyObject *worm = PyTuple_GET_ITEM(rec, 3);
                int done;
                if (!PyObject_TypeCheck(worm, worm_type)) {
                    PyErr_SetString(PyExc_TypeError,
                                    "EV_REQUEST payload is not a Worm");
                    Py_DECREF(rec);
                    goto fail;
                }
                if (worm_done(worm, &done)) {
                    Py_DECREF(rec);
                    goto fail;
                }
                if (!done) {
                    PyObject *path = slot_get(worm, w_path);
                    long ptr, ch;
                    if (path == NULL || worm_get_long(worm, w_ptr, &ptr) ||
                        path_channel(&c, path, ptr, &ch)) {
                        Py_DECREF(rec);
                        goto fail;
                    }
                    if (PyList_GET_ITEM(c.holders, ch) == Py_None) {
                        if (ctx_grant_fast(&c, worm, ch, time)) {
                            Py_DECREF(rec);
                            goto fail;
                        }
                    }
                    else if (ctx_block(&c, worm, ch, time)) {
                        Py_DECREF(rec);
                        goto fail;
                    }
                }
            }
            else if (code == ev_release_c) {
                PyObject *worm = PyTuple_GET_ITEM(rec, 3);
                long pos;
                long long seq;
                if (!PyObject_TypeCheck(worm, worm_type)) {
                    PyErr_SetString(PyExc_TypeError,
                                    "EV_RELEASE payload is not a Worm");
                    Py_DECREF(rec);
                    goto fail;
                }
                pos = PyLong_AsLong(PyTuple_GET_ITEM(rec, 4));
                if (pos == -1 && PyErr_Occurred()) {
                    Py_DECREF(rec);
                    goto fail;
                }
                seq = PyLong_AsLongLong(PyTuple_GET_ITEM(rec, 1));
                if (seq == -1 && PyErr_Occurred()) {
                    Py_DECREF(rec);
                    goto fail;
                }
                if (ctx_drain(&c, worm, pos, seq, time, arr_t)) {
                    Py_DECREF(rec);
                    goto fail;
                }
            }
            else if (code == ev_inject_c) {
                PyObject *worm = PyTuple_GET_ITEM(rec, 3);
                if (!PyObject_TypeCheck(worm, worm_type)) {
                    PyErr_SetString(PyExc_TypeError,
                                    "EV_INJECT payload is not a Worm");
                    Py_DECREF(rec);
                    goto fail;
                }
                if (ctx_inject(&c, worm, time, 1)) {
                    Py_DECREF(rec);
                    goto fail;
                }
            }
            else { /* EV_CALL: sync the budget, call out, re-read it */
                PyObject *r;
                if (eng_set_ll(engine, s_remaining, c.remaining)) {
                    Py_DECREF(rec);
                    goto fail;
                }
                r = PyObject_CallObject(PyTuple_GET_ITEM(rec, 3), NULL);
                if (r == NULL) {
                    Py_DECREF(rec);
                    goto fail;
                }
                Py_DECREF(r);
                if (eng_get_ll(engine, s_remaining, &c.remaining)) {
                    Py_DECREF(rec);
                    goto fail;
                }
            }
            Py_DECREF(rec);
        }
        else if (arr_t <= horizon) {
            PyObject *targ, *res;
            if (!(arr_t < TIME_MAX)) {
                bounced = 1;
                break;
            }
            if (slot_set_double(c.events, q_now, arr_t))
                goto fail;
            c.remaining -= 1;
            if (eng_set_ll(engine, s_remaining, c.remaining))
                goto fail;
            targ = PyFloat_FromDouble(arr_t);
            if (targ == NULL)
                goto fail;
            res = PyObject_CallMethodObjArgs(c.arrivals, s_fire, targ, NULL);
            Py_DECREF(targ);
            if (res == NULL)
                goto fail;
            arr_t = PyFloat_AsDouble(res);
            if (arr_t == -1.0 && PyErr_Occurred()) {
                Py_DECREF(res);
                goto fail;
            }
            Py_DECREF(res);
            c.arr_next = arr_t;
            if (eng_get_ll(engine, s_remaining, &c.remaining))
                goto fail;
        }
        else
            break;
    }

    result = Py_BuildValue("(LO)", limit - c.remaining,
                           bounced ? Py_True : Py_False);
    /* fall through to restore (the Python loop's finally block) */
fail:
    if (prev_rem != NULL) {
        /* restore even on error; chain any restore failure */
        if (PyObject_SetAttr(engine, s_arrivals, prev_arr) ||
            PyObject_SetAttr(engine, s_horizon, prev_hor) ||
            PyObject_SetAttr(engine, s_remaining, prev_rem))
            Py_CLEAR(result);
    }
fail_no_restore:
    Py_XDECREF(prev_rem);
    Py_XDECREF(prev_hor);
    Py_XDECREF(prev_arr);
    ctx_clear(&c);
    return result;
}

/* inject(engine, worm, t: float, fast: bool) -> bool
 * True = handled natively; False = caller must use the Python path. */
static PyObject *
cstep_inject(PyObject *self, PyObject *args)
{
    PyObject *engine, *worm, *arr;
    double t;
    int fast, rc;
    Ctx c;
    if (!PyArg_ParseTuple(args, "OOdp:inject", &engine, &worm, &t, &fast))
        return NULL;
    if (check_configured())
        return NULL;
    if (!(t < TIME_MAX) || !PyObject_TypeCheck(worm, worm_type))
        Py_RETURN_FALSE;
    rc = ctx_init(&c, engine);
    if (rc < 0)
        return NULL;
    if (rc == 1)
        Py_RETURN_FALSE;
    if (eng_get_ll(engine, s_remaining, &c.remaining)) {
        PyErr_Clear();
        ctx_clear(&c);
        Py_RETURN_FALSE;
    }
    {
        PyObject *h = PyObject_GetAttr(engine, s_horizon);
        double d;
        if (h == NULL)
            goto err;
        d = PyFloat_AsDouble(h);
        Py_DECREF(h);
        if (d == -1.0 && PyErr_Occurred())
            goto err;
        c.horizon = d;
    }
    arr = PyObject_GetAttr(engine, s_arrivals);
    if (arr == NULL)
        goto err;
    if (arr == Py_None)
        Py_DECREF(arr);
    else
        c.arrivals = arr;
    /* ctx_inject refreshes it from the arrival stream when there is one */
    c.arr_next = INFINITY;

    rc = ctx_inject(&c, worm, t, fast);
    if (rc == 0 && eng_set_ll(engine, s_remaining, c.remaining))
        rc = -1;
    ctx_clear(&c);
    if (rc < 0)
        return NULL;
    Py_RETURN_TRUE;
err:
    ctx_clear(&c);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* configure                                                           */

static Py_ssize_t
member_offset(PyTypeObject *tp, const char *name)
{
    PyObject *descr = PyObject_GetAttrString((PyObject *)tp, name);
    Py_ssize_t off;
    if (descr == NULL)
        return -1;
    if (Py_TYPE(descr) != &PyMemberDescr_Type) {
        PyErr_Format(PyExc_TypeError,
                     "%s.%s is not a __slots__ member descriptor",
                     tp->tp_name, name);
        Py_DECREF(descr);
        return -1;
    }
    off = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    if (off <= 0) {
        PyErr_Format(PyExc_TypeError, "%s.%s has no storage offset",
                     tp->tp_name, name);
        return -1;
    }
    return off;
}

static PyObject *
cstep_configure(PyObject *self, PyObject *args)
{
    PyObject *wt, *qt;
    long evq, evr, evi;
    long long compact;
    if (!PyArg_ParseTuple(args, "OOlllL:configure", &wt, &qt, &evq, &evr,
                          &evi, &compact))
        return NULL;
    if (!PyType_Check(wt) || !PyType_Check(qt)) {
        PyErr_SetString(PyExc_TypeError,
                        "configure() wants (WormType, QueueType, ...)");
        return NULL;
    }
    configured = 0;

#define W_OFF(var, name)                                                  \
    do {                                                                  \
        var = member_offset((PyTypeObject *)wt, name);                    \
        if (var < 0)                                                      \
            return NULL;                                                  \
    } while (0)
#define Q_OFF(var, name)                                                  \
    do {                                                                  \
        var = member_offset((PyTypeObject *)qt, name);                    \
        if (var < 0)                                                      \
            return NULL;                                                  \
    } while (0)

    W_OFF(w_uid, "uid");
    W_OFF(w_ctime, "creation_time");
    W_OFF(w_path, "path");
    W_OFF(w_H, "H");
    W_OFF(w_acq, "acq_times");
    W_OFF(w_ptr, "ptr");
    W_OFF(w_mlen, "message_length");
    W_OFF(w_clones, "clone_positions");
    W_OFF(w_blocked, "blocked_on");
    W_OFF(w_done, "done");
    Q_OFF(q_heap, "_heap");
    Q_OFF(q_seq, "_seq");
    Q_OFF(q_now, "_now");
#undef W_OFF
#undef Q_OFF

    Py_INCREF(wt);
    Py_XSETREF(worm_type, (PyTypeObject *)wt);
    Py_INCREF(qt);
    Py_XSETREF(queue_type, (PyTypeObject *)qt);
    ev_request_c = evq;
    ev_release_c = evr;
    ev_inject_c = evi;
    fifo_compact = compact;
    configured = 1;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */

static PyMethodDef cstep_methods[] = {
    {"configure", cstep_configure, METH_VARARGS,
     "configure(Worm, EventQueue, EV_REQUEST, EV_RELEASE, EV_INJECT, "
     "fifo_compact)\n\nResolve slot offsets against the "
     "live classes; must be called before run_events/inject."},
    {"run_events", cstep_run_events, METH_VARARGS,
     "run_events(engine, horizon, max_events, arrivals) -> (fired, "
     "bounced)\n\nNative fused dispatch loop; bounced=True means the "
     "caller must finish the run with the Python kernel."},
    {"inject", cstep_inject, METH_VARARGS,
     "inject(engine, worm, t, fast) -> handled\n\nNative injection "
     "(grant/fast-forward/ballistic or block); False declines."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef cstep_module = {
    PyModuleDef_HEAD_INIT,
    "repro.sim._cstep",
    "Compiled dispatch fast path for the wormhole engine (see module "
    "source for the bit-exactness design rules).",
    -1,
    cstep_methods,
};

PyMODINIT_FUNC
PyInit__cstep(void)
{
    PyObject *m;
#define INTERN(var, text)                                                 \
    do {                                                                  \
        var = PyUnicode_InternFromString(text);                           \
        if (var == NULL)                                                  \
            return NULL;                                                  \
    } while (0)
    INTERN(s_events, "events");
    INTERN(s_holders, "holders");
    INTERN(s_fifos, "fifos");
    INTERN(s_fifo_heads, "fifo_heads");
    INTERN(s_on_clone, "_on_clone");
    INTERN(s_on_complete, "_on_complete");
    INTERN(s_on_acquire, "_on_acquire");
    INTERN(s_on_release, "_on_release");
    INTERN(s_arrivals, "_arrivals");
    INTERN(s_horizon, "_horizon");
    INTERN(s_remaining, "_remaining");
    INTERN(s_active_worms, "active_worms");
    INTERN(s_recover, "_recover");
    INTERN(s_next_time, "next_time");
    INTERN(s_fire, "fire");
#undef INTERN
    m = PyModule_Create(&cstep_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddIntConstant(m, "BUILD_ABI", 1) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
