/* Compiled columnar swarm sweep (optional fast path), the fold of its
 * packed output blocks, plus, near the end of this file, the trace
 * generator's front end -- its per-item draw replay (replay_item), its
 * population replay (replay_population) and a lazy Session builder
 * over the population's columns (session_maker) -- and external
 * grouping's packed sort buffer (SortBuffer).
 *
 * A transcription of the object kernel -- repro/sim/kernel.py's
 * run_swarm_object and repro/sim/matching.py's match_window -- onto
 * packed columns, preserving the float-operation sequence exactly:
 * every addition, multiplication and division runs on the same
 * operands in the same order with the same association, so the
 * results are bit-for-bit identical to the object kernel, the
 * semantics reference.  Compile with -ffp-contract=off (setup.py
 * does) -- fused multiply-adds would change roundings.
 *
 * Inputs are the packed columns of a ColumnSchedule, which build() and
 * decode_build() below produce (f64 demand/supply, i64 user/member ids,
 * i32 user slots and dense scope codes, and one sorted i64 event column
 * packed as (window << 34) | (kind << 32) | session); the output is one
 * packed, CRC-checked block (docs/BLOCK_FORMAT.md), byte for byte the
 * block repro/sim/block.py's writer packs from the object kernel's
 * dicts.  Dict insertion orders are part of that data and are
 * reproduced via first-touch order stamps (per-layer peer bits,
 * per-day ledgers, per-user traffic).  check() and fold() verify such
 * blocks and fold them into a StreamingReducer's columns, transcribing
 * repro/sim/reduce.py's python fold.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define K_REMOVE 0
#define K_DEMOTE 1
#define K_ADD 2 /* the sweep treats any kind but remove/demote as add */

#define N_LAYERS 4 /* EXCHANGE, POP, CORE, SERVER -- phase index == layer */

static const double EPS = 1e-9;

static double now_seconds(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* All scratch state for one sweep call, allocated once. */
typedef struct {
    double *cur_demand;   /* [n] live demand (demotes zero it) */
    int32_t *nxt, *prv;   /* [n] membership linked list */
    uint8_t *in_list;     /* [n] */
    int32_t *order;       /* [n] live positions, list order */
    double *ph_dem;       /* [n] per-stretch matching working copies */
    double *ph_sup;       /* [n] */
    /* scope/block grouping, epoch-tagged so no per-stretch clearing */
    uint64_t *scope_epoch; /* [ncodes] */
    int32_t *scope_id;     /* [ncodes] code -> scope index */
    int32_t *scope_count;  /* [ncodes] then reused as scatter cursor */
    int32_t *scope_off;    /* [ncodes + 1] */
    int32_t *scope_members; /* [n] member positions grouped by scope */
    uint64_t *block_epoch; /* [nblk] */
    double *block_val;     /* [nblk] */
    int32_t *block_list;   /* [n] blocks touched in one scope */
    /* per-stretch uploads, keyed by user slot */
    uint64_t *up_epoch; /* [num_users] */
    double *up_acc;     /* [num_users] */
    int32_t *up_list;   /* [n] */
    /* totals */
    double *day_watch, *day_server, *day_demanded; /* [num_days] */
    uint8_t *day_touched;                          /* [num_days] */
    int64_t *day_order;                            /* [num_days] */
    double *day_peer;                              /* [num_days * 4] */
    uint8_t *day_peer_present;                     /* [num_days * 4] */
    uint8_t *day_peer_seq;                         /* [num_days * 4] */
    uint8_t *day_peer_cnt;                         /* [num_days] */
    double *user_watched, *user_uploaded; /* [num_users] */
    uint8_t *user_touched;                /* [num_users] */
    int32_t *user_order;                  /* [num_users] */
} Scratch;

static void scratch_free(Scratch *s) {
    free(s->cur_demand);
    free(s->nxt);
    free(s->prv);
    free(s->in_list);
    free(s->order);
    free(s->ph_dem);
    free(s->ph_sup);
    free(s->scope_epoch);
    free(s->scope_id);
    free(s->scope_count);
    free(s->scope_off);
    free(s->scope_members);
    free(s->block_epoch);
    free(s->block_val);
    free(s->block_list);
    free(s->up_epoch);
    free(s->up_acc);
    free(s->up_list);
    free(s->day_watch);
    free(s->day_server);
    free(s->day_demanded);
    free(s->day_touched);
    free(s->day_order);
    free(s->day_peer);
    free(s->day_peer_present);
    free(s->day_peer_seq);
    free(s->day_peer_cnt);
    free(s->user_watched);
    free(s->user_uploaded);
    free(s->user_touched);
    free(s->user_order);
}

static int scratch_alloc(Scratch *s, Py_ssize_t n, Py_ssize_t ncodes,
                         Py_ssize_t nblk, Py_ssize_t num_users,
                         Py_ssize_t num_days) {
    memset(s, 0, sizeof(*s));
    Py_ssize_t nd = num_days > 0 ? num_days : 1;
    Py_ssize_t nu = num_users > 0 ? num_users : 1;
    s->cur_demand = malloc(n * sizeof(double));
    s->nxt = malloc(n * sizeof(int32_t));
    s->prv = malloc(n * sizeof(int32_t));
    s->in_list = calloc(n, 1);
    s->order = malloc(n * sizeof(int32_t));
    s->ph_dem = malloc(n * sizeof(double));
    s->ph_sup = malloc(n * sizeof(double));
    s->scope_epoch = calloc(ncodes, sizeof(uint64_t));
    s->scope_id = malloc(ncodes * sizeof(int32_t));
    s->scope_count = malloc(ncodes * sizeof(int32_t));
    s->scope_off = malloc((ncodes + 1) * sizeof(int32_t));
    s->scope_members = malloc(n * sizeof(int32_t));
    s->block_epoch = calloc(nblk, sizeof(uint64_t));
    s->block_val = malloc(nblk * sizeof(double));
    s->block_list = malloc(n * sizeof(int32_t));
    s->up_epoch = calloc(nu, sizeof(uint64_t));
    s->up_acc = malloc(nu * sizeof(double));
    s->up_list = malloc(n * sizeof(int32_t));
    s->day_watch = calloc(nd, sizeof(double));
    s->day_server = calloc(nd, sizeof(double));
    s->day_demanded = calloc(nd, sizeof(double));
    s->day_touched = calloc(nd, 1);
    s->day_order = malloc(nd * sizeof(int64_t));
    s->day_peer = calloc(nd * N_LAYERS, sizeof(double));
    s->day_peer_present = calloc(nd * N_LAYERS, 1);
    s->day_peer_seq = malloc(nd * N_LAYERS);
    s->day_peer_cnt = calloc(nd, 1);
    s->user_watched = calloc(nu, sizeof(double));
    s->user_uploaded = calloc(nu, sizeof(double));
    s->user_touched = calloc(nu, 1);
    s->user_order = malloc(nu * sizeof(int32_t));
    if (!s->cur_demand || !s->nxt || !s->prv || !s->in_list || !s->order ||
        !s->ph_dem || !s->ph_sup || !s->scope_epoch || !s->scope_id ||
        !s->scope_count || !s->scope_off || !s->scope_members ||
        !s->block_epoch || !s->block_val || !s->block_list || !s->up_epoch ||
        !s->up_acc || !s->up_list || !s->day_watch || !s->day_server ||
        !s->day_demanded || !s->day_touched || !s->day_order || !s->day_peer ||
        !s->day_peer_present || !s->day_peer_seq || !s->day_peer_cnt ||
        !s->user_watched || !s->user_uploaded || !s->user_touched ||
        !s->user_order) {
        scratch_free(s);
        return -1;
    }
    return 0;
}

static int check_len(const Py_buffer *buf, Py_ssize_t count,
                     Py_ssize_t itemsize, const char *name) {
    if (buf->len != count * itemsize) {
        PyErr_Format(PyExc_ValueError, "%s buffer: expected %zd bytes, got %zd",
                     name, count * itemsize, buf->len);
        return -1;
    }
    return 0;
}

static PyObject *array_type; /* array.array, imported at module init */

static PyObject *new_array(const char *typecode, const void *data,
                           Py_ssize_t nbytes) {
    PyObject *raw = PyBytes_FromStringAndSize(data, nbytes);
    if (!raw) return NULL;
    PyObject *out = PyObject_CallFunction(array_type, "sO", typecode, raw);
    Py_DECREF(raw);
    return out;
}

/* ------------------------------------------------------------------ */
/* Columnar schedule builder.  Two front ends -- build() over Session  */
/* slots, decode_build() over raw 56-byte store records -- feed one    */
/* per-session core (Sched) that replays kernel.py's _build_events     */
/* exactly, lingering seeds included.  Both return None to decline: a  */
/* window at or past 2^29, a field that is not a float or a machine-   */
/* width int, mixed session types, or a big-endian host; the task then */
/* runs on the object kernel.                                          */

/* Open-addressing map from uint64 keys (user ids, scope keys,
 * attachment pointers, bitrate bit patterns) to dense int32 codes;
 * capacity 2x expected inserts keeps the load factor under 50%. */
typedef struct {
    uint64_t *keys;
    int32_t *vals;
    uint8_t *used;
    uint64_t mask;
} U64Map;

static int u64map_init(U64Map *m, Py_ssize_t expected) {
    uint64_t cap = 16;
    while ((Py_ssize_t)(cap / 2) < expected) cap <<= 1;
    m->keys = malloc(cap * sizeof(uint64_t));
    m->vals = malloc(cap * sizeof(int32_t));
    m->used = calloc(cap, 1);
    m->mask = cap - 1;
    return (m->keys && m->vals && m->used) ? 0 : -1;
}

static void u64map_free(U64Map *m) {
    free(m->keys);
    free(m->vals);
    free(m->used);
}

/* The first-encounter dense code of `key`: a new key gets *count, which
 * then advances (so a caller sees a new key as *count moving). */
static int32_t dense_code(U64Map *m, uint64_t key, int32_t *count) {
    uint64_t i = (key * UINT64_C(0x9E3779B97F4A7C15) >> 29) & m->mask;
    while (m->used[i]) {
        if (m->keys[i] == key) return m->vals[i];
        i = (i + 1) & m->mask;
    }
    m->used[i] = 1;
    m->keys[i] = key;
    return m->vals[i] = (*count)++;
}

/* Offset of a T_OBJECT(_EX) slot member, or -1 when `name` is not a
 * plain member descriptor on `tp` (build declines). */
static Py_ssize_t member_offset(PyTypeObject *tp, const char *name) {
    PyObject *descr = PyObject_GetAttrString((PyObject *)tp, name);
    if (!descr) {
        PyErr_Clear();
        return -1;
    }
    Py_ssize_t off = -1;
    if (Py_TYPE(descr) == &PyMemberDescr_Type) {
        PyMemberDef *md = ((PyMemberDescrObject *)descr)->d_member;
        if (md->type == T_OBJECT_EX || md->type == T_OBJECT) off = md->offset;
    }
    Py_DECREF(descr);
    return off;
}

/* CPython's float floor-division (floatobject.c float_divmod), so that
 * int(start // dtau) here is bit-for-bit the object kernel's value. */
static double py_float_floordiv(double vx, double wx) {
    double mod = fmod(vx, wx);
    double div = (vx - mod) / wx;
    if (mod != 0.0) {
        if ((wx < 0.0) != (mod < 0.0)) {
            mod += wx;
            div -= 1.0;
        }
    }
    if (div != 0.0) {
        double floordiv = floor(div);
        if (div - floordiv > 0.5) floordiv += 1.0;
        return floordiv;
    }
    return copysign(0.0, vx / wx);
}

static int cmp_i64(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* An exact python int that fits int64 -> 0; anything else -> 1. */
static int exact_i64(PyObject *o, int64_t *out) {
    int overflow = 0;
    if (!o || !PyLong_CheckExact(o)) return 1;
    *out = PyLong_AsLongLongAndOverflow(o, &overflow);
    return overflow != 0;
}

/* Events are packed into int64 as (w << 34) | ...; a wider swarm
 * declines to the object kernel. */
#define BUILD_WINDOW_LIMIT ((int64_t)1 << 29)

/* One schedule under construction.  Scope codes are first-encounter
 * dense codes over integer keys -- (isp << 32 | exchange), (isp << 32 |
 * pop), isp -- where isp is any number bijective with the ISP name
 * within the swarm (the store's interned isp_ref, or build()'s own
 * first-encounter code), so both front ends assign the codes that the
 * object matcher's string-keyed scopes imply. */
typedef struct {
    double dtau, linger;
    PyObject *participates; /* borrowed: config.participates */
    double *demand, *distinct;
    int64_t *uid, *mid, *ev;
    int32_t *slot, *exc, *popc, *ispc, *bcode;
    uint8_t *lingers; /* per user slot: participates(uid), when lingering */
    U64Map slot_map, ex_map, pop_map, isp_map, rate_map;
    int64_t *slot_uid; /* user id of each slot, first-encounter order */
    int32_t num_slots, num_ex, num_pop, num_isp, num_rates;
    Py_ssize_t num_ev;
    int64_t max_window;
    double dur_total;
} Sched;

static void sched_free(Sched *b) {
    free(b->demand);
    free(b->distinct);
    free(b->uid);
    free(b->mid);
    free(b->ev);
    free(b->slot);
    free(b->exc);
    free(b->popc);
    free(b->ispc);
    free(b->bcode);
    free(b->lingers);
    u64map_free(&b->slot_map);
    u64map_free(&b->ex_map);
    u64map_free(&b->pop_map);
    u64map_free(&b->isp_map);
    u64map_free(&b->rate_map);
    free(b->slot_uid);
}

/* 0, or -1 with an exception set; sched_free is safe either way. */
static int sched_init(Sched *b, Py_ssize_t n, double dtau, double linger,
                      PyObject *participates) {
    memset(b, 0, sizeof(*b));
    b->dtau = dtau;
    b->linger = linger;
    b->participates = participates;
    b->demand = malloc(n * sizeof(double));
    b->distinct = malloc(n * sizeof(double));
    b->uid = malloc(n * sizeof(int64_t));
    b->mid = malloc(n * sizeof(int64_t));
    b->ev = malloc(3 * n * sizeof(int64_t)); /* add, demote, remove */
    b->slot = malloc(n * sizeof(int32_t));
    b->exc = malloc(n * sizeof(int32_t));
    b->popc = malloc(n * sizeof(int32_t));
    b->ispc = malloc(n * sizeof(int32_t));
    b->bcode = malloc(n * sizeof(int32_t));
    b->lingers = malloc(n);
    b->slot_uid = malloc(n * sizeof(int64_t));
    if (!b->demand || !b->distinct || !b->uid || !b->mid || !b->ev ||
        !b->slot || !b->exc || !b->popc || !b->ispc || !b->bcode ||
        !b->lingers || !b->slot_uid || u64map_init(&b->slot_map, n) < 0 ||
        u64map_init(&b->ex_map, n) < 0 || u64map_init(&b->pop_map, n) < 0 ||
        u64map_init(&b->isp_map, n) < 0 || u64map_init(&b->rate_map, n) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* Add session i.  Returns 0, 1 to decline, or -1 with an exception. */
static int sched_add(Sched *b, Py_ssize_t i, double start, double duration,
                     double rate, int64_t uval, int64_t sval, uint64_t isp,
                     uint64_t pop, uint64_t exchange) {
    b->dur_total += duration;
    double end = start + duration;
    double fdiv = py_float_floordiv(start, b->dtau);
    double ce = ceil(end / b->dtau);
    if (!(fdiv >= 0.0) || fdiv >= (double)BUILD_WINDOW_LIMIT ||
        !(ce >= 0.0) || ce >= (double)BUILD_WINDOW_LIMIT)
        return 1;
    int64_t w_start = (int64_t)fdiv;
    int64_t w_end = (int64_t)ce;
    if (w_end <= w_start) w_end = w_start + 1;

    int32_t slots = b->num_slots;
    int32_t s = dense_code(&b->slot_map, (uint64_t)uval, &b->num_slots);
    if (b->num_slots != slots) {
        int lingers = 0;
        b->slot_uid[s] = uval;
        if (b->linger > 0.0) {
            PyObject *uo = PyLong_FromLongLong((long long)uval);
            PyObject *r = uo ? PyObject_CallOneArg(b->participates, uo) : NULL;
            lingers = r ? PyObject_IsTrue(r) : -1;
            Py_XDECREF(r);
            Py_XDECREF(uo);
        }
        if (lingers < 0) return -1;
        b->lingers[s] = (uint8_t)lingers;
    }
    /* A lingering participant demotes at w_end and is removed at
     * ceil((end + linger) / dtau) when that is later; everyone else is
     * removed at w_end. */
    b->ev[b->num_ev++] = (w_start << 34) | ((int64_t)K_ADD << 32) | i;
    int64_t w_remove = w_end;
    if (b->linger > 0.0 && b->lingers[s]) {
        double cl = ceil((end + b->linger) / b->dtau);
        if (!(cl >= 0.0) || cl >= (double)BUILD_WINDOW_LIMIT) return 1;
        if ((int64_t)cl > w_end) {
            b->ev[b->num_ev++] = (w_end << 34) | ((int64_t)K_DEMOTE << 32) | i;
            w_remove = (int64_t)cl;
        }
    }
    b->ev[b->num_ev++] = (w_remove << 34) | ((int64_t)K_REMOVE << 32) | i;
    if (w_remove > b->max_window) b->max_window = w_remove;

    b->demand[i] = rate * b->dtau;
    b->uid[i] = uval;
    b->mid[i] = sval;
    b->slot[i] = s;
    b->exc[i] = dense_code(&b->ex_map, isp << 32 | exchange, &b->num_ex);
    b->popc[i] = dense_code(&b->pop_map, isp << 32 | pop, &b->num_pop);
    b->ispc[i] = dense_code(&b->isp_map, isp, &b->num_isp);
    uint64_t rbits;
    memcpy(&rbits, &rate, 8);
    int32_t rates = b->num_rates;
    b->bcode[i] = dense_code(&b->rate_map, rbits, &b->num_rates);
    if (b->num_rates != rates) b->distinct[rates] = rate;
    return 0;
}

/* The 16-tuple ColumnSchedule wraps: the eight sweep columns, bitrate
 * codes, distinct bitrates, slot users (an array('q') the sweep writes
 * user ids from), scope counts, the mean duration and the last event
 * window (which sizes the sweep's day arrays). */
static PyObject *sched_result(Sched *b, Py_ssize_t n) {
    qsort(b->ev, (size_t)b->num_ev, sizeof(int64_t), cmp_i64);
    PyObject *distinct = PyList_New(b->num_rates);
    if (!distinct) return NULL;
    for (int32_t k = 0; k < b->num_rates; k++) {
        PyObject *f = PyFloat_FromDouble(b->distinct[k]);
        if (!f) {
            Py_DECREF(distinct);
            return NULL;
        }
        PyList_SET_ITEM(distinct, k, f);
    }
    PyObject *slot_users =
        new_array("q", b->slot_uid, b->num_slots * (Py_ssize_t)sizeof(int64_t));
    if (!slot_users) {
        Py_DECREF(distinct);
        return NULL;
    }
    Py_ssize_t f64 = n * sizeof(double), i64 = n * sizeof(int64_t),
               i32 = n * sizeof(int32_t);
    PyObject *result = Py_BuildValue(
        "(y#y#y#y#y#y#y#y#y#OOnnndL)", (char *)b->demand, f64,
        (char *)b->uid, i64, (char *)b->mid, i64, (char *)b->slot, i32,
        (char *)b->exc, i32, (char *)b->popc, i32, (char *)b->ispc, i32,
        (char *)b->ev, b->num_ev * (Py_ssize_t)sizeof(int64_t),
        (char *)b->bcode, i32, distinct, slot_users,
        (Py_ssize_t)b->num_ex, (Py_ssize_t)b->num_pop, (Py_ssize_t)b->num_isp,
        b->dur_total / (double)n, (long long)b->max_window);
    Py_DECREF(distinct);
    Py_DECREF(slot_users);
    return result;
}

/* build()'s integer scope keys for one attachment: its ISP's
 * first-encounter code in isp_of (python equality, as the object
 * matcher's scope keys compare) and its pop and exchange, which must be
 * ints in [0, 2^32) like the store's u32 fields.  Returns 0, 1 to
 * decline, or -1 with an exception. */
static int attachment_keys(PyObject *att, PyObject *isp_of, uint64_t *keys) {
    PyObject *isp = PyObject_GetAttrString(att, "isp");
    if (!isp) return -1;
    PyObject *fresh = PyLong_FromSsize_t(PyDict_GET_SIZE(isp_of));
    PyObject *code = fresh ? PyDict_SetDefault(isp_of, isp, fresh) : NULL;
    if (code) keys[0] = (uint64_t)PyLong_AsSsize_t(code); /* borrowed */
    Py_DECREF(isp);
    Py_XDECREF(fresh);
    if (!code) return -1;
    for (int k = 1; k < 3; k++) {
        PyObject *v = PyObject_GetAttrString(att, k == 1 ? "pop" : "exchange");
        int64_t value = -1;
        if (!v) return -1;
        int decline = exact_i64(v, &value);
        Py_DECREF(v);
        if (decline || value < 0 || value > (int64_t)UINT32_MAX) return 1;
        keys[k] = (uint64_t)value;
    }
    return 0;
}

static PyObject *build(PyObject *self, PyObject *args) {
    PyObject *seq_in, *participates;
    double dtau, linger;
    if (!PyArg_ParseTuple(args, "OddO", &seq_in, &dtau, &linger,
                          &participates))
        return NULL;
    if (dtau <= 0.0) Py_RETURN_NONE;
    PyObject *seq = PySequence_Fast(seq_in, "sessions must be a sequence");
    if (!seq) return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    PyObject **items = PySequence_Fast_ITEMS(seq);
    PyTypeObject *tp = n > 0 ? Py_TYPE(items[0]) : NULL;
    static const char *fields[6] = {"start",   "duration",   "bitrate",
                                    "user_id", "session_id", "attachment"};
    Py_ssize_t off[6];
    int slotted = n > 0 && n <= INT32_MAX;
    for (int k = 0; k < 6 && slotted; k++)
        slotted = (off[k] = member_offset(tp, fields[k])) >= 0;
    if (!slotted) {
        Py_DECREF(seq);
        Py_RETURN_NONE;
    }

    Sched b;
    U64Map att_map = {0};
    uint64_t *att_keys = malloc(3 * n * sizeof(uint64_t));
    PyObject *isp_of = PyDict_New(), *result = NULL;
    int32_t num_att = 0;
    int rc = sched_init(&b, n, dtau, linger, participates);
    if (rc == 0 && (!att_keys || u64map_init(&att_map, n) < 0)) {
        PyErr_NoMemory();
        rc = -1;
    }
    if (!isp_of) rc = -1;
    for (Py_ssize_t i = 0; i < n && rc == 0; i++) {
        PyObject *s = items[i], *v[6];
        if ((rc = Py_TYPE(s) != tp)) break;
        for (int k = 0; k < 6; k++) v[k] = *(PyObject **)((char *)s + off[k]);
        int64_t uval, sval;
        rc = !v[0] || !PyFloat_CheckExact(v[0]) || !v[1] ||
             !PyFloat_CheckExact(v[1]) || !v[2] || !PyFloat_CheckExact(v[2]) ||
             exact_i64(v[3], &uval) || exact_i64(v[4], &sval) || !v[5];
        if (rc) break;
        /* Identity-keyed attachment cache; every attachment stays alive
         * (referenced by its session), so pointers are unambiguous. */
        int32_t known = num_att;
        int32_t a = dense_code(&att_map, (uint64_t)(uintptr_t)v[5], &num_att);
        if (num_att != known)
            rc = attachment_keys(v[5], isp_of, &att_keys[3 * a]);
        if (rc == 0)
            rc = sched_add(&b, i, PyFloat_AS_DOUBLE(v[0]),
                           PyFloat_AS_DOUBLE(v[1]), PyFloat_AS_DOUBLE(v[2]),
                           uval, sval, att_keys[3 * a], att_keys[3 * a + 1],
                           att_keys[3 * a + 2]);
    }
    if (rc == 0) result = sched_result(&b, n);
    sched_free(&b);
    u64map_free(&att_map);
    free(att_keys);
    Py_XDECREF(isp_of);
    Py_DECREF(seq);
    if (rc == 1) Py_RETURN_NONE;
    return result;
}

/* Fused zero-object ingest: decode raw 56-byte store records and build
 * the packed schedule columns in one pass over the extent buffer --
 * Session objects (and even per-field tuples) never exist.  The record
 * layout mirrors trace/store.py's _RECORD ("<qqIdddHIIH"): session_id@0
 * (i64), user_id@8 (i64), content_ref@16 (u32), start@20 (f64),
 * duration@28 (f64), bitrate@36 (f64), isp_ref@44 (u16), pop@46 (u32),
 * exchange@50 (u32), device_ref@54 (u16).  Packed little-endian, so the
 * doubles are unaligned (memcpy each field) and a big-endian host
 * declines.  The store interns ISP names first-encounter per file, so
 * isp_ref is bijective with the name. */
#define DB_RECORD_SIZE 56

static PyObject *decode_build(PyObject *self, PyObject *args) {
    Py_buffer buf;
    Py_ssize_t n;
    double dtau, linger;
    PyObject *participates;
    if (!PyArg_ParseTuple(args, "y*nddO", &buf, &n, &dtau, &linger,
                          &participates))
        return NULL;
    const uint16_t endian_probe = 1;
    if (dtau <= 0.0 || n <= 0 || n > INT32_MAX ||
        buf.len != n * DB_RECORD_SIZE ||
        *(const uint8_t *)&endian_probe != 1) {
        PyBuffer_Release(&buf);
        Py_RETURN_NONE;
    }

    Sched b;
    PyObject *result = NULL;
    const uint8_t *base = (const uint8_t *)buf.buf;
    int rc = sched_init(&b, n, dtau, linger, participates);
    for (Py_ssize_t i = 0; i < n && rc == 0; i++) {
        const uint8_t *rec = base + i * DB_RECORD_SIZE;
        int64_t sval, uval;
        double start, duration, rate;
        uint16_t isp_ref;
        uint32_t popv, exchv;
        memcpy(&sval, rec, 8);
        memcpy(&uval, rec + 8, 8);
        memcpy(&start, rec + 20, 8);
        memcpy(&duration, rec + 28, 8);
        memcpy(&rate, rec + 36, 8);
        memcpy(&isp_ref, rec + 44, 2);
        memcpy(&popv, rec + 46, 4);
        memcpy(&exchv, rec + 50, 4);
        rc = sched_add(&b, i, start, duration, rate, uval, sval, isp_ref,
                       popv, exchv);
    }
    if (rc == 0) result = sched_result(&b, n);
    sched_free(&b);
    PyBuffer_Release(&buf);
    if (rc == 1) Py_RETURN_NONE;
    return result;
}

/* Supply column of a schedule: out[i] = rates[bcode[i]] (zeroed for
 * non-participating slots).  rates[] is computed in python as
 * upload_rate_for(bitrate) * dtau per distinct bitrate, so values are
 * the object kernel's supply expression exactly. */
static PyObject *supplies_helper(PyObject *self, PyObject *args) {
    Py_ssize_t n;
    Py_buffer bcode_b, rates_b, slot_b;
    PyObject *part_obj;
    if (!PyArg_ParseTuple(args, "ny*y*y*O", &n, &bcode_b, &rates_b, &slot_b,
                          &part_obj))
        return NULL;
    PyObject *result = NULL;
    Py_buffer part_b = {0};
    int have_part = 0;
    if (part_obj != Py_None) {
        if (PyObject_GetBuffer(part_obj, &part_b, PyBUF_SIMPLE) < 0) goto done;
        have_part = 1;
    }
    if (check_len(&bcode_b, n, 4, "bcode") ||
        check_len(&slot_b, n, 4, "user_slot"))
        goto done;
    const int32_t *bcode = bcode_b.buf;
    const double *rates = rates_b.buf;
    const int32_t *slot = slot_b.buf;
    Py_ssize_t num_rates = rates_b.len / (Py_ssize_t)sizeof(double);
    result = PyBytes_FromStringAndSize(NULL, n * (Py_ssize_t)sizeof(double));
    if (!result) goto done;
    double *out = (double *)PyBytes_AS_STRING(result);
    const uint8_t *part = have_part ? part_b.buf : NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        int32_t code = bcode[i];
        if (code < 0 || code >= num_rates ||
            (part && (slot[i] < 0 || slot[i] >= part_b.len))) {
            Py_CLEAR(result);
            PyErr_SetString(PyExc_ValueError, "supplies: code out of range");
            goto done;
        }
        out[i] = (!part || part[slot[i]]) ? rates[code] : 0.0;
    }

done:
    PyBuffer_Release(&bcode_b);
    PyBuffer_Release(&rates_b);
    PyBuffer_Release(&slot_b);
    if (have_part) PyBuffer_Release(&part_b);
    return result;
}

/* ------------------------------------------------------------------ */
/* Packed swarm-output blocks (docs/BLOCK_FORMAT.md).  Little-endian    */
/* whatever the host: integers and doubles are written byte by byte.   */
/* The CRC-32 is zlib's (reflected polynomial 0xEDB88320, so python's  */
/* zlib.crc32 verifies it), computed slicing-by-8 from a table built   */
/* at module init.                                                     */

#define BLK_HEADER 112
#define BLK_DAY 64
#define BLK_USER 24
#define BLK_TRAILER 4
#define BLK_VERSION 1

static uint32_t crc_table[8][256];

static void crc_init(void) {
    for (uint32_t i = 0; i < 256; i++) {
        uint32_t c = i;
        for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        crc_table[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; i++)
        for (int t = 1; t < 8; t++)
            crc_table[t][i] = (crc_table[t - 1][i] >> 8) ^
                              crc_table[0][crc_table[t - 1][i] & 0xFF];
}

static uint32_t get_u32(const uint8_t *p) {
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 |
           (uint32_t)p[3] << 24;
}

static uint32_t crc32_of(const uint8_t *p, size_t n) {
    uint32_t c = 0xFFFFFFFFu;
    for (; n >= 8; p += 8, n -= 8) {
        uint32_t lo = c ^ get_u32(p), hi = get_u32(p + 4);
        c = crc_table[7][lo & 0xFF] ^ crc_table[6][(lo >> 8) & 0xFF] ^
            crc_table[5][(lo >> 16) & 0xFF] ^ crc_table[4][lo >> 24] ^
            crc_table[3][hi & 0xFF] ^ crc_table[2][(hi >> 8) & 0xFF] ^
            crc_table[1][(hi >> 16) & 0xFF] ^ crc_table[0][hi >> 24];
    }
    while (n--) c = crc_table[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

static void put_u64(uint8_t *p, uint64_t v) {
    for (int k = 0; k < 8; k++) p[k] = (uint8_t)(v >> (8 * k));
}

static void put_u32(uint8_t *p, uint32_t v) {
    for (int k = 0; k < 4; k++) p[k] = (uint8_t)(v >> (8 * k));
}

static void put_f64(uint8_t *p, double v) {
    uint64_t bits;
    memcpy(&bits, &v, 8);
    put_u64(p, bits);
}

/* One ledger as a block writes it: 4 layer-order bytes (layer value =
 * phase index + 1, first touch first, zero padded), then server,
 * demanded, watch and the four peer slots.  `p` points at the order
 * bytes; the doubles start 4 + gap bytes later (header 8, day row 4). */
static void put_ledger(uint8_t *p, int gap, const uint8_t *order, int count,
                       double server, double demanded, double watch,
                       const double *peer) {
    for (int k = 0; k < N_LAYERS; k++)
        p[k] = k < count ? (uint8_t)(order[k] + 1) : 0;
    uint8_t *f = p + N_LAYERS + gap;
    put_f64(f, server);
    put_f64(f + 8, demanded);
    put_f64(f + 16, watch);
    for (int k = 0; k < N_LAYERS; k++) put_f64(f + 24 + 8 * k, peer[k]);
}

/* A ColumnSchedule's scalar attribute, as a Py_ssize_t or a double. */
static int sched_n(PyObject *sched, const char *name, Py_ssize_t *out) {
    PyObject *v = PyObject_GetAttrString(sched, name);
    *out = v ? PyLong_AsSsize_t(v) : -1;
    Py_XDECREF(v);
    return PyErr_Occurred() ? -1 : 0;
}

static int sched_d(PyObject *sched, const char *name, double *out) {
    PyObject *v = PyObject_GetAttrString(sched, name);
    *out = v ? PyFloat_AsDouble(v) : -1.0;
    Py_XDECREF(v);
    return PyErr_Occurred() ? -1 : 0;
}

/* sweep(schedule, supply, horizon, allow_cross, profile)
 *     -> (block, match_s, account_s)
 * over a ColumnSchedule's `packed` columns, `slot_users`, scope counts,
 * day geometry, dtau and mean duration, and one config's supply
 * column. */
static PyObject *sweep(PyObject *self, PyObject *args) {
    Py_ssize_t n, num_users, num_ex, num_pop, num_isp;
    Py_ssize_t windows_per_day, num_days;
    double dtau, horizon, mean_duration;
    int allow_cross, profile;
    PyObject *sched, *packed = NULL, *users_o = NULL;
    Py_buffer dem_b, sup_b, uid_b, mid_b, slot_b, ex_b, pop_b, isp_b;
    Py_buffer ev_b, users_b;

    if (!PyArg_ParseTuple(args, "Oy*dpp", &sched, &sup_b, &horizon,
                          &allow_cross, &profile))
        return NULL;
    if (sched_n(sched, "n", &n) || sched_n(sched, "num_ex", &num_ex) ||
        sched_n(sched, "num_pop", &num_pop) ||
        sched_n(sched, "num_isp", &num_isp) ||
        sched_n(sched, "windows_per_day", &windows_per_day) ||
        sched_n(sched, "num_days", &num_days) ||
        sched_d(sched, "dtau", &dtau) ||
        sched_d(sched, "mean_duration", &mean_duration) ||
        !(packed = PyObject_GetAttrString(sched, "packed")) ||
        !(users_o = PyObject_GetAttrString(sched, "slot_users")) ||
        !PyArg_ParseTuple(packed, "y*y*y*y*y*y*y*y*", &dem_b, &uid_b, &mid_b,
                          &slot_b, &ex_b, &pop_b, &isp_b, &ev_b)) {
        Py_XDECREF(packed);
        Py_XDECREF(users_o);
        PyBuffer_Release(&sup_b);
        return NULL;
    }
    Py_DECREF(packed);
    int have_users = PyObject_GetBuffer(users_o, &users_b, PyBUF_SIMPLE) == 0;
    Py_DECREF(users_o);

    PyObject *result = NULL;
    Scratch scr;
    int have_scratch = 0;
    Py_ssize_t m = ev_b.len / (Py_ssize_t)sizeof(int64_t);
    if (!have_users) goto done;
    num_users = users_b.len / (Py_ssize_t)sizeof(int64_t);
    const int64_t *slot_uid = users_b.buf;

    if (n <= 0 || n > INT32_MAX || windows_per_day <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "sweep requires 0 < n <= INT32_MAX and "
                        "windows_per_day > 0");
        goto done;
    }
    if (check_len(&dem_b, n, 8, "demand") || check_len(&sup_b, n, 8, "supply") ||
        check_len(&uid_b, n, 8, "user_id") ||
        check_len(&mid_b, n, 8, "member_id") ||
        check_len(&slot_b, n, 4, "user_slot") ||
        check_len(&ex_b, n, 4, "ex_code") || check_len(&pop_b, n, 4, "pop_code") ||
        check_len(&isp_b, n, 4, "isp_code"))
        goto done;

    const double *demand0 = dem_b.buf;
    const double *supply = sup_b.buf;
    const int64_t *uid = uid_b.buf;
    const int64_t *mid = mid_b.buf;
    const int32_t *slot = slot_b.buf;
    const int32_t *ex = ex_b.buf;
    const int32_t *pop = pop_b.buf;
    const int32_t *ispc = isp_b.buf;
    /* Events are packed (window << 34) | (kind << 32) | session_index;
     * integer order == (window, kind, index) lexicographic order.  The
     * last window bounds the days the sweep accounts into. */
    const int64_t *evp = ev_b.buf;
    if (m > 0 && (evp[m - 1] >> 34) > (int64_t)num_days * windows_per_day) {
        PyErr_SetString(PyExc_ValueError,
                        "sweep: an event window lies past num_days");
        goto done;
    }

    Py_ssize_t ncodes = 1;
    if (num_ex > ncodes) ncodes = num_ex;
    if (num_pop > ncodes) ncodes = num_pop;
    if (num_isp > ncodes) ncodes = num_isp;
    Py_ssize_t nblk = ncodes > n ? ncodes : n;
    if (scratch_alloc(&scr, n, ncodes, nblk, num_users, num_days) < 0) {
        PyErr_NoMemory();
        goto done;
    }
    have_scratch = 1;

    double watch_total = 0.0, server_total = 0.0, demanded_total = 0.0;
    double tot_peer[N_LAYERS] = {0.0, 0.0, 0.0, 0.0};
    uint8_t tot_peer_present[N_LAYERS] = {0, 0, 0, 0};
    uint8_t tot_peer_order[N_LAYERS];
    int tot_peer_cnt = 0;
    Py_ssize_t day_cnt = 0, user_cnt = 0;
    double match_s = 0.0, account_s = 0.0;
    int oom = 0;

    Py_BEGIN_ALLOW_THREADS;
    {
        memcpy(scr.cur_demand, demand0, n * sizeof(double));
        int32_t head = -1, tail = -1;
        Py_ssize_t live = 0;
        uint64_t epoch = 0;
        int64_t prev_w = 0;
        Py_ssize_t index = 0;

        while (index < m) {
            int64_t w = evp[index] >> 34;
            if (w > prev_w && live > 0) {
                /* Collect the live members in list (== dict) order. */
                Py_ssize_t L = 0;
                for (int32_t j = head; j != -1; j = scr.nxt[j])
                    scr.order[L++] = j;

                Py_ssize_t viewers = 0;
                for (Py_ssize_t i = 0; i < L; i++)
                    if (scr.cur_demand[scr.order[i]] > 0.0) viewers++;
                double watch_per_window = (double)viewers * dtau;

                double t_match = profile ? now_seconds() : 0.0;

                /* -- match_window, transcribed ------------------------- */
                double demanded_bits = 0.0;
                for (Py_ssize_t i = 0; i < L; i++)
                    demanded_bits += scr.cur_demand[scr.order[i]];
                double server_bits;
                double alloc_val[N_LAYERS];
                uint8_t alloc_present[N_LAYERS] = {0, 0, 0, 0};
                uint8_t alloc_order[N_LAYERS];
                int alloc_cnt = 0;
                Py_ssize_t up_cnt = 0;
                uint64_t up_epoch_cur = 0;

                if (L == 1) {
                    server_bits = scr.cur_demand[scr.order[0]];
                } else {
                    /* Seed: min over (demand > 0, user_id, member_id);
                     * keep-first on ties, exactly like python min(). */
                    Py_ssize_t seed = 0;
                    int sk_d = scr.cur_demand[scr.order[0]] > 0.0;
                    int64_t sk_u = uid[scr.order[0]], sk_m = mid[scr.order[0]];
                    for (Py_ssize_t i = 1; i < L; i++) {
                        int32_t pos = scr.order[i];
                        int kd = scr.cur_demand[pos] > 0.0;
                        int64_t ku = uid[pos], km = mid[pos];
                        if (kd < sk_d ||
                            (kd == sk_d &&
                             (ku < sk_u || (ku == sk_u && km < sk_m)))) {
                            seed = i;
                            sk_d = kd;
                            sk_u = ku;
                            sk_m = km;
                        }
                    }
                    /* Fresh: max over watchers by (user_id, member_id);
                     * replace only on strictly-greater (keep-first). */
                    Py_ssize_t fresh = -1;
                    int64_t fk_u = 0, fk_m = 0;
                    for (Py_ssize_t i = 0; i < L; i++) {
                        if (i == seed) continue;
                        int32_t pos = scr.order[i];
                        if (!(scr.cur_demand[pos] > 0.0)) continue;
                        int64_t ku = uid[pos], km = mid[pos];
                        if (fresh < 0 || ku > fk_u ||
                            (ku == fk_u && km > fk_m)) {
                            fresh = i;
                            fk_u = ku;
                            fk_m = km;
                        }
                    }
                    server_bits = scr.cur_demand[scr.order[seed]];
                    for (Py_ssize_t i = 0; i < L; i++) {
                        int32_t pos = scr.order[i];
                        scr.ph_dem[i] =
                            i == seed ? 0.0 : scr.cur_demand[pos];
                        scr.ph_sup[i] = supply[pos];
                    }
                    if (fresh >= 0) scr.ph_sup[fresh] = 0.0;

                    int num_phases = allow_cross ? 4 : 3;
                    for (int phase = 0; phase < num_phases; phase++) {
                        const int32_t *gcodes =
                            phase == 0 ? ex
                            : phase == 1 ? pop
                            : phase == 2 ? ispc
                                         : NULL;
                        Py_ssize_t nscopes;
                        if (gcodes == NULL) {
                            nscopes = 1;
                            scr.scope_off[0] = 0;
                            scr.scope_off[1] = (int32_t)L;
                            for (Py_ssize_t i = 0; i < L; i++)
                                scr.scope_members[i] = (int32_t)i;
                        } else {
                            epoch++;
                            nscopes = 0;
                            for (Py_ssize_t i = 0; i < L; i++) {
                                int32_t c = gcodes[scr.order[i]];
                                if (scr.scope_epoch[c] != epoch) {
                                    scr.scope_epoch[c] = epoch;
                                    scr.scope_id[c] = (int32_t)nscopes;
                                    scr.scope_count[nscopes] = 0;
                                    nscopes++;
                                }
                                scr.scope_count[scr.scope_id[c]]++;
                            }
                            scr.scope_off[0] = 0;
                            for (Py_ssize_t sc = 0; sc < nscopes; sc++)
                                scr.scope_off[sc + 1] =
                                    scr.scope_off[sc] + scr.scope_count[sc];
                            for (Py_ssize_t sc = 0; sc < nscopes; sc++)
                                scr.scope_count[sc] = scr.scope_off[sc];
                            for (Py_ssize_t i = 0; i < L; i++) {
                                int32_t sc =
                                    scr.scope_id[gcodes[scr.order[i]]];
                                scr.scope_members[scr.scope_count[sc]++] =
                                    (int32_t)i;
                            }
                        }
                        for (Py_ssize_t sc = 0; sc < nscopes; sc++) {
                            Py_ssize_t lo = scr.scope_off[sc];
                            Py_ssize_t hi = scr.scope_off[sc + 1];
                            if (hi - lo < 2 && phase == 0) continue;
                            double td = 0.0, ts = 0.0;
                            for (Py_ssize_t i = lo; i < hi; i++)
                                td += scr.ph_dem[scr.scope_members[i]];
                            for (Py_ssize_t i = lo; i < hi; i++)
                                ts += scr.ph_sup[scr.scope_members[i]];
                            if (td <= EPS || ts <= EPS) continue;
                            /* Block totals: (0.0 + d) + s, then max of
                             * the final values -- python association. */
                            double mx;
                            if (phase == 0) {
                                /* Blocks are member positions: each is
                                 * its own block, so the max is direct. */
                                mx = 0.0 + scr.ph_dem[scr.scope_members[lo]] +
                                     scr.ph_sup[scr.scope_members[lo]];
                                for (Py_ssize_t i = lo + 1; i < hi; i++) {
                                    double v =
                                        0.0 +
                                        scr.ph_dem[scr.scope_members[i]] +
                                        scr.ph_sup[scr.scope_members[i]];
                                    if (v > mx) mx = v;
                                }
                            } else {
                                const int32_t *bcodes =
                                    phase == 1 ? ex
                                    : phase == 2 ? pop
                                                 : ispc;
                                epoch++;
                                Py_ssize_t nblocks = 0;
                                for (Py_ssize_t i = lo; i < hi; i++) {
                                    int32_t posn = scr.scope_members[i];
                                    int32_t b = bcodes[scr.order[posn]];
                                    if (scr.block_epoch[b] != epoch) {
                                        scr.block_epoch[b] = epoch;
                                        scr.block_val[b] = 0.0;
                                        scr.block_list[nblocks++] = b;
                                    }
                                    double v = scr.block_val[b];
                                    v = v + scr.ph_dem[posn];
                                    v = v + scr.ph_sup[posn];
                                    scr.block_val[b] = v;
                                }
                                mx = scr.block_val[scr.block_list[0]];
                                for (Py_ssize_t i = 1; i < nblocks; i++) {
                                    double v =
                                        scr.block_val[scr.block_list[i]];
                                    if (v > mx) mx = v;
                                }
                            }
                            double bound = td + ts - mx;
                            double transferred = td;
                            if (ts < transferred) transferred = ts;
                            if (bound < transferred) transferred = bound;
                            if (transferred <= EPS) continue;
                            double df = transferred / td;
                            double sf = transferred / ts;
                            for (Py_ssize_t i = lo; i < hi; i++) {
                                int32_t posn = scr.scope_members[i];
                                double sp = scr.ph_sup[posn];
                                if (sp > 0.0) {
                                    double contributed = sp * sf;
                                    int32_t us = slot[scr.order[posn]];
                                    if (up_epoch_cur == 0) {
                                        epoch++;
                                        up_epoch_cur = epoch;
                                    }
                                    if (scr.up_epoch[us] != up_epoch_cur) {
                                        scr.up_epoch[us] = up_epoch_cur;
                                        scr.up_acc[us] = 0.0;
                                        scr.up_list[up_cnt++] = us;
                                    }
                                    scr.up_acc[us] =
                                        scr.up_acc[us] + contributed;
                                    scr.ph_sup[posn] = sp - contributed;
                                }
                                double dm = scr.ph_dem[posn];
                                if (dm > 0.0)
                                    scr.ph_dem[posn] = dm - dm * df;
                            }
                            if (!alloc_present[phase]) {
                                alloc_present[phase] = 1;
                                alloc_order[alloc_cnt++] = (uint8_t)phase;
                                alloc_val[phase] = 0.0;
                            }
                            alloc_val[phase] =
                                alloc_val[phase] + transferred;
                        }
                    }
                    for (Py_ssize_t i = 0; i < L; i++)
                        server_bits += scr.ph_dem[i];
                }
                /* -- end match_window ---------------------------------- */

                double t_account = 0.0;
                if (profile) {
                    t_account = now_seconds();
                    match_s += t_account - t_match;
                }

                double stretch_watch = 0.0;
                int64_t window = prev_w;
                while (window < w) {
                    int64_t day = window / windows_per_day;
                    int64_t day_end = (day + 1) * windows_per_day;
                    int64_t end = w < day_end ? w : day_end;
                    double chunk = (double)(end - window);
                    if (!scr.day_touched[day]) {
                        scr.day_touched[day] = 1;
                        scr.day_order[day_cnt++] = day;
                    }
                    double watch_chunk = watch_per_window * chunk;
                    scr.day_watch[day] += watch_chunk;
                    double server_chunk = server_bits * chunk;
                    double demanded_chunk = demanded_bits * chunk;
                    server_total += server_chunk;
                    demanded_total += demanded_chunk;
                    scr.day_server[day] += server_chunk;
                    scr.day_demanded[day] += demanded_chunk;
                    for (int k = 0; k < alloc_cnt; k++) {
                        int layer = alloc_order[k];
                        double peer_chunk = alloc_val[layer] * chunk;
                        if (!tot_peer_present[layer]) {
                            tot_peer_present[layer] = 1;
                            tot_peer_order[tot_peer_cnt++] = (uint8_t)layer;
                        }
                        tot_peer[layer] += peer_chunk;
                        Py_ssize_t dslot = day * N_LAYERS + layer;
                        if (!scr.day_peer_present[dslot]) {
                            scr.day_peer_present[dslot] = 1;
                            scr.day_peer_seq[day * N_LAYERS +
                                             scr.day_peer_cnt[day]++] =
                                (uint8_t)layer;
                        }
                        scr.day_peer[dslot] += peer_chunk;
                    }
                    for (Py_ssize_t i = 0; i < L; i++) {
                        int32_t pos = scr.order[i];
                        int32_t us = slot[pos];
                        if (!scr.user_touched[us]) {
                            scr.user_touched[us] = 1;
                            scr.user_order[user_cnt++] = us;
                        }
                        scr.user_watched[us] +=
                            scr.cur_demand[pos] * chunk;
                    }
                    for (Py_ssize_t k = 0; k < up_cnt; k++) {
                        int32_t us = scr.up_list[k];
                        if (!scr.user_touched[us]) {
                            scr.user_touched[us] = 1;
                            scr.user_order[user_cnt++] = us;
                        }
                        scr.user_uploaded[us] += scr.up_acc[us] * chunk;
                    }
                    stretch_watch += watch_chunk;
                    window = end;
                }
                watch_total += stretch_watch;
                if (profile) account_s += now_seconds() - t_account;
            }
            if (w > prev_w) prev_w = w;
            while (index < m && (evp[index] >> 34) == w) {
                int64_t event = evp[index];
                int kind = (int)((event >> 32) & 3);
                int32_t sess = (int32_t)(event & 0xFFFFFFFF);
                if (kind == K_REMOVE) {
                    if (scr.in_list[sess]) {
                        scr.in_list[sess] = 0;
                        int32_t before = scr.prv[sess];
                        int32_t after = scr.nxt[sess];
                        if (before != -1)
                            scr.nxt[before] = after;
                        else
                            head = after;
                        if (after != -1)
                            scr.prv[after] = before;
                        else
                            tail = before;
                        live--;
                    }
                } else if (kind == K_DEMOTE) {
                    if (scr.in_list[sess]) scr.cur_demand[sess] = 0.0;
                } else {
                    scr.in_list[sess] = 1;
                    scr.prv[sess] = tail;
                    scr.nxt[sess] = -1;
                    if (tail == -1)
                        head = sess;
                    else
                        scr.nxt[tail] = sess;
                    tail = sess;
                    live++;
                }
                index++;
            }
        }
    }
    Py_END_ALLOW_THREADS;
    (void)oom;

    /* Write the block: header, day rows in first-touch order, user rows
     * in first-touch order, CRC trailer. */
    Py_ssize_t size =
        BLK_HEADER + day_cnt * BLK_DAY + user_cnt * BLK_USER + BLK_TRAILER;
    PyObject *block = PyBytes_FromStringAndSize(NULL, size);
    if (!block) goto done;
    uint8_t *out = (uint8_t *)PyBytes_AS_STRING(block);
    memset(out, 0, BLK_HEADER);
    memcpy(out, "SWOB", 4);
    out[4] = BLK_VERSION;
    put_u32(out + 8, (uint32_t)day_cnt);
    put_u32(out + 12, (uint32_t)user_cnt);
    put_u64(out + 16, (uint64_t)n);
    put_ledger(out + 24, 4, tot_peer_order, tot_peer_cnt, server_total,
               demanded_total, watch_total, tot_peer);
    put_f64(out + 88, horizon > 0 ? watch_total / horizon : 0.0);
    put_f64(out + 96, horizon > 0 ? (double)n / horizon : 0.0);
    put_f64(out + 104, mean_duration);
    uint8_t *row = out + BLK_HEADER;
    for (Py_ssize_t k = 0; k < day_cnt; k++, row += BLK_DAY) {
        int64_t day = scr.day_order[k];
        put_u32(row, (uint32_t)day);
        put_ledger(row + 4, 0, &scr.day_peer_seq[day * N_LAYERS],
                   scr.day_peer_cnt[day], scr.day_server[day],
                   scr.day_demanded[day], scr.day_watch[day],
                   &scr.day_peer[day * N_LAYERS]);
    }
    for (Py_ssize_t k = 0; k < user_cnt; k++, row += BLK_USER) {
        int32_t us = scr.user_order[k];
        put_u64(row, (uint64_t)slot_uid[us]);
        put_f64(row + 8, scr.user_watched[us]);
        put_f64(row + 16, scr.user_uploaded[us]);
    }
    put_u32(row, crc32_of(out, (size_t)(size - BLK_TRAILER)));
    result = Py_BuildValue("(Ndd)", block, match_s, account_s);

done:
    if (have_scratch) scratch_free(&scr);
    PyBuffer_Release(&dem_b);
    PyBuffer_Release(&sup_b);
    PyBuffer_Release(&uid_b);
    PyBuffer_Release(&mid_b);
    PyBuffer_Release(&slot_b);
    PyBuffer_Release(&ex_b);
    PyBuffer_Release(&pop_b);
    PyBuffer_Release(&isp_b);
    PyBuffer_Release(&ev_b);
    if (have_users) PyBuffer_Release(&users_b);
    return result;
}

/* ------------------------------------------------------------------ */
/* check() and fold(): the compiled half of StreamingReducer's fold    */
/* (repro/sim/reduce.py holds the python half, the semantics           */
/* reference).  The reducer's state is python-owned: array('d') rows   */
/* plus array('B') layer orders, keyed by dicts of first-seen rows.  A */
/* ledger row holds server, demanded, watch, sessions and the four     */
/* peer slots (LEDGER_W doubles); a swarm row adds capacity, arrival   */
/* rate and mean duration.  Both decline (return None) on a big-endian */
/* host, where the python fold runs.                                   */

#define LEDGER_W 8
#define SWARM_W 11

static int little_endian(void) {
    const uint16_t probe = 1;
    return *(const uint8_t *)&probe == 1;
}

static double get_f64(const uint8_t *p) {
    double v;
    memcpy(&v, p, 8); /* little-endian host only */
    return v;
}

/* Layer order bytes: distinct values 1..4 first, zero padding after. */
static int valid_order(const uint8_t *order) {
    int seen = 0, ended = 0;
    for (int k = 0; k < N_LAYERS; k++) {
        int v = order[k];
        if (v == 0) {
            ended = 1;
        } else if (ended || v > N_LAYERS || (seen & (1 << v))) {
            return 0;
        } else {
            seen |= 1 << v;
        }
    }
    return 1;
}

/* Why `block` is refused, or NULL when its framing, CRC and layer
 * orders hold. */
static const char *block_problem(PyObject *block, int verify_crc) {
    if (!PyBytes_Check(block)) return "not bytes";
    const uint8_t *p = (const uint8_t *)PyBytes_AS_STRING(block);
    Py_ssize_t size = PyBytes_GET_SIZE(block);
    if (size < BLK_HEADER + BLK_TRAILER) return "shorter than a header";
    if (memcmp(p, "SWOB", 4) != 0 || p[4] != BLK_VERSION || p[5] || p[6] ||
        p[7])
        return "bad magic, version or flags";
    uint32_t days = get_u32(p + 8), users = get_u32(p + 12);
    if (size != BLK_HEADER + (Py_ssize_t)days * BLK_DAY +
                    (Py_ssize_t)users * BLK_USER + BLK_TRAILER)
        return "length disagrees with its rows";
    if (verify_crc &&
        crc32_of(p, (size_t)(size - BLK_TRAILER)) != get_u32(p + size - 4))
        return "CRC-32 mismatch";
    if (!valid_order(p + 24)) return "invalid layer order";
    for (uint32_t k = 0; k < days; k++)
        if (!valid_order(p + BLK_HEADER + (Py_ssize_t)k * BLK_DAY + 4))
            return "invalid layer order";
    return NULL;
}

/* check(outputs, first_index): verify every (key, block) output before
 * the reducer accepts it; ValueError names the refused task. */
static PyObject *check(PyObject *self, PyObject *args) {
    PyObject *outputs;
    Py_ssize_t first;
    if (!PyArg_ParseTuple(args, "On", &outputs, &first)) return NULL;
    if (!little_endian()) Py_RETURN_NONE;
    PyObject *seq = PySequence_Fast(outputs, "outputs must be a sequence");
    if (!seq) return NULL;
    for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(seq); k++) {
        PyObject *out = PySequence_Fast_GET_ITEM(seq, k);
        const char *problem =
            PyTuple_Check(out) && PyTuple_GET_SIZE(out) == 2
                ? block_problem(PyTuple_GET_ITEM(out, 1), 1)
                : "not a (key, block) output";
        if (problem) {
            PyErr_Format(PyExc_ValueError,
                         "swarm output block of task %zd refused: %s",
                         first + k, problem);
            Py_DECREF(seq);
            return NULL;
        }
    }
    Py_DECREF(seq);
    Py_RETURN_TRUE;
}

/* One keyed table of the reducer's state.  Rows that exist when the
 * fold starts are updated in place through buffer views; rows the fold
 * creates are staged and appended with array.frombytes at the end (an
 * array cannot grow while its buffer is exported). */
typedef struct {
    PyObject *rows;    /* dict key -> row index; NULL for the total's one row */
    PyObject *arr[2];  /* array('d') values, array('B') orders (or NULL) */
    Py_buffer view[2];
    int held[2];
    Py_ssize_t width[2]; /* items per row */
    Py_ssize_t base;     /* rows when the fold began */
    Py_ssize_t added, cap;
    char *stage[2];
} Table;

/* Open a (rows, values, orders) state table; rows or orders may be
 * None (the total has one fixed row, users have no layer order). */
static int table_open(Table *t, PyObject *table, Py_ssize_t vw) {
    PyObject *rows, *values, *order;
    memset(t, 0, sizeof(*t));
    if (!PyArg_ParseTuple(table, "OOO", &rows, &values, &order)) return -1;
    t->rows = rows == Py_None ? NULL : rows;
    t->arr[0] = values;
    t->arr[1] = order == Py_None ? NULL : order;
    t->width[0] = vw * (Py_ssize_t)sizeof(double);
    t->width[1] = N_LAYERS;
    for (int c = 0; c < 2; c++) {
        if (!t->arr[c]) continue;
        if (PyObject_GetBuffer(t->arr[c], &t->view[c], PyBUF_WRITABLE) < 0)
            return -1;
        t->held[c] = 1;
    }
    t->base = t->view[0].len / t->width[0];
    if ((t->rows && !PyDict_CheckExact(t->rows)) ||
        t->view[0].len != t->base * t->width[0] ||
        (t->rows ? PyDict_GET_SIZE(t->rows) : 1) != t->base ||
        (t->arr[1] && t->view[1].len != t->base * N_LAYERS)) {
        PyErr_SetString(PyExc_ValueError, "fold: inconsistent reducer state");
        return -1;
    }
    return 0;
}

static char *table_cell(Table *t, int c, Py_ssize_t row) {
    if (row < t->base) return (char *)t->view[c].buf + row * t->width[c];
    return t->stage[c] + (row - t->base) * t->width[c];
}

/* The row of `key` (a new reference is stolen); *created says whether
 * this call made it.  -1 with an exception on failure. */
static Py_ssize_t table_row(Table *t, PyObject *key, int *created) {
    if (!key) return -1;
    PyObject *found = PyDict_GetItemWithError(t->rows, key);
    if (found) {
        Py_DECREF(key);
        *created = 0;
        Py_ssize_t row = PyLong_AsSsize_t(found);
        if (row < 0 || row >= t->base + t->added) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "fold: row index out of range");
            return -1;
        }
        return row;
    }
    if (PyErr_Occurred()) {
        Py_DECREF(key);
        return -1;
    }
    if (t->added == t->cap) {
        Py_ssize_t cap = t->cap ? 2 * t->cap : 64;
        for (int c = 0; c < 2; c++) {
            if (!t->arr[c]) continue;
            char *grown = realloc(t->stage[c], cap * t->width[c]);
            if (!grown) {
                Py_DECREF(key);
                PyErr_NoMemory();
                return -1;
            }
            t->stage[c] = grown;
        }
        t->cap = cap;
    }
    Py_ssize_t row = t->base + t->added;
    PyObject *index = PyLong_FromSsize_t(row);
    int rc = index ? PyDict_SetItem(t->rows, key, index) : -1;
    Py_XDECREF(index);
    Py_DECREF(key);
    if (rc < 0) return -1;
    t->added++;
    *created = 1;
    return row;
}

/* Release the views, then append the staged rows. */
static int table_close(Table *t) {
    int rc = 0;
    for (int c = 0; c < 2; c++) {
        if (t->held[c]) PyBuffer_Release(&t->view[c]);
        t->held[c] = 0;
    }
    for (int c = 0; c < 2; c++) {
        if (t->arr[c] && t->added && rc == 0) {
            PyObject *r = PyObject_CallMethod(t->arr[c], "frombytes", "y#",
                                              t->stage[c],
                                              t->added * t->width[c]);
            if (!r) rc = -1;
            Py_XDECREF(r);
        }
        free(t->stage[c]);
        t->stage[c] = NULL;
    }
    return rc;
}

/* ByteLedger.merge of one block ledger (`lo`: its order bytes, `lv`: its
 * server, demanded, watch and peer doubles) into a state row: fields
 * add, and a layer new to the row is appended at 0.0 + bits. */
static void ledger_add(double *v, uint8_t *order, const uint8_t *lo,
                       const uint8_t *lv, double sessions) {
    v[0] += get_f64(lv);
    for (int k = 0; k < N_LAYERS && lo[k]; k++) {
        int layer = lo[k], t = 0;
        double bits = get_f64(lv + 8 * (2 + layer));
        while (t < N_LAYERS - 1 && order[t] && order[t] != layer) t++;
        if (order[t] == layer) {
            v[3 + layer] += bits;
        } else {
            order[t] = (uint8_t)layer;
            v[3 + layer] = 0.0 + bits;
        }
    }
    v[1] += get_f64(lv + 8);
    v[2] += get_f64(lv + 16);
    v[3] += sessions;
}

/* A new state row copies the block's ledger exactly; the slots of
 * absent layers hold 0.0. */
static void ledger_copy(double *v, uint8_t *order, const uint8_t *lo,
                        const uint8_t *lv, double sessions) {
    memcpy(order, lo, N_LAYERS);
    v[0] = get_f64(lv);
    v[1] = get_f64(lv + 8);
    v[2] = get_f64(lv + 16);
    v[3] = sessions;
    for (int k = 0; k < N_LAYERS; k++) v[4 + k] = 0.0;
    for (int k = 0; k < N_LAYERS && lo[k]; k++)
        v[3 + lo[k]] = get_f64(lv + 8 * (2 + lo[k]));
}

/* fold(outputs, total, swarms, days, users) -> user rows seen.
 * Folds checked (key, block) outputs in order into the reducer's
 * (rows, values, orders) tables; users is None when per-user rows go
 * elsewhere (the spill log). */
static PyObject *fold(PyObject *self, PyObject *args) {
    PyObject *outputs, *st[4];
    if (!PyArg_ParseTuple(args, "O!O!O!O!O", &PyList_Type, &outputs,
                          &PyTuple_Type, &st[0], &PyTuple_Type, &st[1],
                          &PyTuple_Type, &st[2], &st[3]))
        return NULL;
    if (!little_endian()) Py_RETURN_NONE;
    PyObject *seq = PySequence_Fast(outputs, "outputs must be a sequence");
    if (!seq) return NULL;
    Table tables[4], *total = &tables[0], *swarms = &tables[1],
                     *days = &tables[2], *users = &tables[3];
    memset(tables, 0, sizeof(tables));
    Py_ssize_t user_rows = 0;
    int with_users = st[3] != Py_None;
    PyObject *all = PyUnicode_InternFromString("all");
    int rc = all ? 0 : -1;
    if (rc == 0) rc = table_open(total, st[0], LEDGER_W);
    if (rc == 0) rc = table_open(swarms, st[1], SWARM_W);
    if (rc == 0) rc = table_open(days, st[2], LEDGER_W);
    if (rc == 0 && with_users) rc = table_open(users, st[3], 2);
    if (rc == 0 && (total->base != 1 || !swarms->rows || !days->rows ||
                    !swarms->arr[1] || !days->arr[1] ||
                    (with_users && !users->rows))) {
        PyErr_SetString(PyExc_ValueError, "fold: malformed reducer state");
        rc = -1;
    }
    double *tv = rc == 0 ? (double *)table_cell(total, 0, 0) : NULL;
    uint8_t *to = rc == 0 ? (uint8_t *)table_cell(total, 1, 0) : NULL;

    for (Py_ssize_t k = 0; rc == 0 && k < PySequence_Fast_GET_SIZE(seq); k++) {
        PyObject *out = PySequence_Fast_GET_ITEM(seq, k);
        const char *problem =
            PyTuple_Check(out) && PyTuple_GET_SIZE(out) == 2
                ? block_problem(PyTuple_GET_ITEM(out, 1), 0)
                : "not a (key, block) output";
        if (problem) {
            PyErr_Format(PyExc_ValueError, "fold: swarm output block refused: %s",
                         problem);
            rc = -1;
            break;
        }
        PyObject *key = PyTuple_GET_ITEM(out, 0);
        const uint8_t *p = (const uint8_t *)PyBytes_AS_STRING(PyTuple_GET_ITEM(out, 1));
        uint32_t nd = get_u32(p + 8), nu = get_u32(p + 12);
        int64_t sessions_i;
        memcpy(&sessions_i, p + 16, 8);
        double sessions = (double)sessions_i;
        const uint8_t *lo = p + 24, *lv = p + 32;

        /* Per swarm: a new key copies the result; a duplicate key is
         * SwarmResult.combine(key, [existing, result]). */
        int created;
        Py_INCREF(key);
        Py_ssize_t row = table_row(swarms, key, &created);
        if (row < 0) {
            rc = -1;
            break;
        }
        double *sv = (double *)table_cell(swarms, 0, row);
        uint8_t *so = (uint8_t *)table_cell(swarms, 1, row);
        double cap = get_f64(p + 88), arr = get_f64(p + 96), mean = get_f64(p + 104);
        if (created) {
            ledger_copy(sv, so, lo, lv, sessions);
            sv[8] = cap;
            sv[9] = arr;
            sv[10] = mean;
        } else {
            double es = sv[3], total_s = es + sessions;
            sv[10] = total_s != 0.0
                         ? ((0.0 + sv[10] * es) + mean * sessions) / total_s
                         : 0.0;
            sv[8] = (0.0 + sv[8]) + cap;
            sv[9] = (0.0 + sv[9]) + arr;
            for (int f = 0; f < LEDGER_W; f++) sv[f] = 0.0 + sv[f];
            ledger_add(sv, so, lo, lv, sessions);
        }
        ledger_add(tv, to, lo, lv, sessions);

        /* Per (ISP, day): a new key copies the row, an existing one adds. */
        PyObject *isp = PyObject_GetAttrString(key, "isp");
        if (!isp) {
            rc = -1;
            break;
        }
        if (isp == Py_None) {
            Py_DECREF(isp);
            Py_INCREF(all);
            isp = all;
        }
        const uint8_t *drow = p + BLK_HEADER;
        for (uint32_t d = 0; d < nd && rc == 0; d++, drow += BLK_DAY) {
            int32_t day;
            memcpy(&day, drow, 4);
            PyObject *dk = Py_BuildValue("(Oi)", isp, (int)day);
            row = table_row(days, dk, &created);
            if (row < 0) {
                rc = -1;
                break;
            }
            double *dv = (double *)table_cell(days, 0, row);
            uint8_t *dord = (uint8_t *)table_cell(days, 1, row);
            if (created)
                ledger_copy(dv, dord, drow + 4, drow + 8, 0.0);
            else
                ledger_add(dv, dord, drow + 4, drow + 8, 0.0);
        }
        Py_DECREF(isp);

        /* Per user: a new user copies the row, an existing one adds. */
        user_rows += nu;
        const uint8_t *urow = drow;
        for (uint32_t u = 0; with_users && u < nu && rc == 0; u++, urow += BLK_USER) {
            int64_t uid;
            memcpy(&uid, urow, 8);
            row = table_row(users, PyLong_FromLongLong((long long)uid), &created);
            if (row < 0) {
                rc = -1;
                break;
            }
            double *uv = (double *)table_cell(users, 0, row);
            if (created) {
                uv[0] = get_f64(urow + 8);
                uv[1] = get_f64(urow + 16);
            } else {
                uv[0] += get_f64(urow + 8);
                uv[1] += get_f64(urow + 16);
            }
        }
    }
    for (int t = 0; t < 4; t++)
        if (table_close(&tables[t]) < 0) rc = -1;
    Py_XDECREF(all);
    Py_DECREF(seq);
    if (rc < 0) return NULL;
    return PyLong_FromSsize_t(user_rows);
}

/* ------------------------------------------------------------------ */
/* Trace generator replay: everything TraceGenerator.iter_sessions     */
/* draws for one catalogue item after its Poisson count -- the diurnal */
/* start times, the activity-weighted viewers and one Beta completion  */
/* per drawn session -- transcribed from repro/trace/generator.py's    */
/* _item_columns (the semantics reference) and CPython's random.py     */
/* (choices, betavariate, gammavariate; unchanged from 3.11 to 3.13).  */
/* Every uniform comes from the generator's own bound random(), so the */
/* Mersenne Twister state never leaves its random.Random object; the   */
/* same uniforms feed the same float operations and libm calls in the  */
/* same order, so the kept sessions are the python loop's to the bit.  */

/* random.py's module constants as the shortest repr of each double
 * (which parses back to the same bits): LOG4 = log(4.0),
 * SG_MAGICCONST = 1.0 + log(4.5), and math.e. */
#define RANDOM_LOG4 1.3862943611198906
#define RANDOM_SG_MAGICCONST 2.504077396776274
#define RANDOM_E 2.718281828459045
#define SECONDS_PER_HOUR 3600.0


static int uniform(PyObject *random, double *out) {
    PyObject *value = PyObject_CallNoArgs(random);
    if (!value) return -1;
    *out = PyFloat_AsDouble(value);
    Py_DECREF(value);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* bisect.bisect_right(a, x, lo, hi) over a non-decreasing column. */
static Py_ssize_t bisect_right(const double *a, double x, Py_ssize_t lo,
                               Py_ssize_t hi) {
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        if (x < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* Python's min(a, b) and max(a, b): `a` unless `b` is strictly
 * smaller (larger). */
static double py_min(double a, double b) { return b < a ? b : a; }
static double py_max(double a, double b) { return b > a ? b : a; }

/* random.Random.gammavariate(alpha, 1.0), all three branches. */
static int gamma_draw(PyObject *random, double alpha, double *out) {
    double u, u1, u2, v, x, z, r;
    if (alpha > 1.0) {
        /* Cheng (1977). */
        double ainv = sqrt(2.0 * alpha - 1.0);
        double bbb = alpha - RANDOM_LOG4;
        double ccc = alpha + ainv;
        for (;;) {
            if (uniform(random, &u1) < 0) return -1;
            if (!(1e-7 < u1 && u1 < 0.9999999)) continue;
            if (uniform(random, &u2) < 0) return -1;
            u2 = 1.0 - u2;
            v = log(u1 / (1.0 - u1)) / ainv;
            x = alpha * exp(v);
            z = u1 * u1 * u2;
            r = bbb + ccc * v - x;
            if (r + RANDOM_SG_MAGICCONST - 4.5 * z >= 0.0 || r >= log(z)) {
                *out = x * 1.0;
                return 0;
            }
        }
    }
    if (alpha == 1.0) {
        /* expovariate(1.0) */
        if (uniform(random, &u) < 0) return -1;
        *out = -log(1.0 - u) * 1.0;
        return 0;
    }
    /* Algorithm GS (Kennedy & Gentle) for 0 < alpha < 1. */
    for (;;) {
        double b, p;
        if (uniform(random, &u) < 0) return -1;
        b = (RANDOM_E + alpha) / RANDOM_E;
        p = b * u;
        if (p <= 1.0)
            x = pow(p, 1.0 / alpha);
        else
            x = -log((b - p) / alpha);
        if (uniform(random, &u1) < 0) return -1;
        if (p > 1.0) {
            if (u1 <= pow(x, alpha - 1.0)) break;
        } else if (u1 <= exp(-x)) {
            break;
        }
    }
    *out = x * 1.0;
    return 0;
}

/* random.Random.betavariate(alpha, beta): no second gamma draw when
 * the first is zero. */
static int beta_draw(PyObject *random, double alpha, double beta,
                     double *out) {
    double y, z;
    if (gamma_draw(random, alpha, &y) < 0) return -1;
    if (y == 0.0) {
        *out = 0.0;
        return 0;
    }
    if (gamma_draw(random, beta, &z) < 0) return -1;
    *out = y / (y + z);
    return 0;
}

/* A zero-filled array.array of n `typecode` items, and a writable view
 * of them in *view: the columns are written in place, never copied or
 * resized. */
static PyObject *zeroed_array(const char *typecode, Py_ssize_t n,
                              Py_buffer *view) {
    PyObject *one = PyObject_CallFunction(array_type, "s(i)", typecode, 0);
    if (!one) return NULL;
    PyObject *out = PySequence_Repeat(one, n);
    Py_DECREF(one);
    if (out && PyObject_GetBuffer(out, view, PyBUF_WRITABLE) < 0)
        Py_CLEAR(out);
    return out;
}

static PyObject *replay_item(PyObject *self, PyObject *args) {
    PyObject *random;
    Py_buffer hourly_b, weights_b;
    Py_ssize_t count;
    double horizon, alpha, beta, min_s, item_duration;
    if (!PyArg_ParseTuple(args, "Oy*dy*dddnd", &random, &hourly_b, &horizon,
                          &weights_b, &alpha, &beta, &min_s, &count,
                          &item_duration))
        return NULL;

    PyObject *result = NULL, *columns[3] = {NULL, NULL, NULL};
    Py_buffer views[3] = {{0}};
    double *starts = NULL, *durations = NULL;
    int64_t *viewers = NULL;
    Py_ssize_t hours = hourly_b.len / (Py_ssize_t)sizeof(double);
    Py_ssize_t n = weights_b.len / (Py_ssize_t)sizeof(double);
    const double *cum = hourly_b.buf;
    const double *cum_weights = weights_b.buf;

    if (count < 0 || hours < 2 || n < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "replay_item requires count >= 0, >= 2 hourly "
                        "cumulative entries and >= 1 weight");
        goto done;
    }
    if (count > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(double)) {
        PyErr_NoMemory();
        goto done;
    }
    if (alpha <= 0.0 || beta <= 0.0) {
        PyErr_SetString(PyExc_ValueError,
                        "gammavariate: alpha and beta must be > 0.0");
        goto done;
    }
    /* choices(): total = cum_weights[-1] + 0.0, validated. */
    double weight_total = cum_weights[n - 1] + 0.0;
    if (weight_total <= 0.0) {
        PyErr_SetString(PyExc_ValueError,
                        "Total of weights must be greater than zero");
        goto done;
    }
    if (!isfinite(weight_total)) {
        PyErr_SetString(PyExc_ValueError, "Total of weights must be finite");
        goto done;
    }
    static const char *const typecodes[3] = {"d", "d", "q"};
    for (int c = 0; c < 3; c++)
        if (!(columns[c] = zeroed_array(typecodes[c], count, &views[c])))
            goto done;
    starts = views[0].buf;
    durations = views[1].buf;
    viewers = views[2].buf;

    /* DiurnalProfile sample_times: inverse CDF over the hourly table. */
    double total = cum[hours - 1];
    for (Py_ssize_t i = 0; i < count; i++) {
        double point, frac;
        if (uniform(random, &point) < 0) goto done;
        point = point * total;
        Py_ssize_t hour = bisect_right(cum, point, 0, hours) - 1;
        if (hours - 2 < hour) hour = hours - 2;
        if (hour < 0) { /* a point below cum[0]: no [0, 1) uniform gives one */
            PyErr_SetString(PyExc_ValueError,
                            "replay_item: point below the hourly table");
            goto done;
        }
        double mass = cum[hour + 1] - cum[hour];
        if (mass > 0) {
            frac = (point - cum[hour]) / mass;
        } else if (uniform(random, &frac) < 0) {
            goto done;
        }
        double t = ((double)hour + frac) * SECONDS_PER_HOUR;
        starts[i] = py_min(t, horizon - 1e-6);
    }
    /* choices(range(n), cum_weights=..., k=count) */
    for (Py_ssize_t i = 0; i < count; i++) {
        double u;
        if (uniform(random, &u) < 0) goto done;
        viewers[i] = bisect_right(cum_weights, u * weight_total, 0, n - 1);
    }
    /* One completion per drawn session; drops compact in place. */
    Py_ssize_t kept = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        double completion;
        if (beta_draw(random, alpha, beta, &completion) < 0) goto done;
        double duration = py_max(item_duration * completion, min_s);
        duration = py_min(duration, horizon - starts[i]);
        if (duration < min_s) continue;
        starts[kept] = starts[i];
        durations[kept] = duration;
        viewers[kept] = viewers[i];
        kept++;
    }
    /* The columns keep their full length: shrinking an array.array
     * over-allocates its new size and can move the block. */
    result = Py_BuildValue("nOOO", kept, columns[0], columns[1], columns[2]);

done:
    for (int c = 0; c < 3; c++) {
        PyBuffer_Release(&views[c]);
        Py_XDECREF(columns[c]);
    }
    PyBuffer_Release(&hourly_b);
    PyBuffer_Release(&weights_b);
    return result;
}

/* ------------------------------------------------------------------ */
/* External group sort: the compiled path of trace/store.py's         */
/* ExternalGroupSorter, whose tuple sort is the semantics reference.  */
/* A SortBuffer packs each added session into one 48-byte run record, */
/* store.py's _RUN_RECORD ("<dqIIqdII"): start@0 (f64), session_id@8  */
/* (i64), group@16 (u32), slot@20 (u32), user_id@24 (i64),            */
/* duration@32 (f64), pop@40 (u32), exchange@44 (u32), where slot     */
/* interns (content_id, isp, bitrate, device) in the sorter's dict.   */
/* sort() orders the buffer in place by (rank of group, start,        */
/* session_id, slot, user_id, duration, pop, exchange) with ties in   */
/* add order -- the tuple sort's order -- and merge() k-way merges    */
/* the spilled runs and the buffer into 56-byte store records, ties   */
/* going to the earlier run as in heapq.merge.  Records are native    */
/* byte order, so store.py uses this on little-endian hosts only.     */

#define RUN_SIZE 48
#define OUT_RECORDS 4096 /* store records per emit() call */
#define ATT_CACHE_BITS 12 /* 4096 cached attachments */
#define ATT_CACHE (1 << ATT_CACHE_BITS)

enum { F_SID, F_UID, F_CONTENT, F_START, F_DURATION, F_RATE, F_ATT,
       F_DEVICE, N_SFIELDS };
static const char *const session_field_names[N_SFIELDS] = {
    "session_id", "user_id", "content_id", "start",
    "duration",   "bitrate", "attachment", "device"};
static PyObject *session_names[N_SFIELDS], *att_names[3]; /* interned */

typedef struct {
    PyObject *att, *isp; /* strong references; att is the cache key */
    uint32_t pop, exchange;
} AttEntry;

#define SLOT_CACHE_BITS 10 /* 1024 cached slot keys */

typedef struct {
    PyObject *obj[4]; /* strong references: content_id, isp, bitrate, device */
    uint32_t slot;
} SlotEntry;

typedef struct {
    PyObject_HEAD
    uint8_t *rec; /* n run records, room for cap */
    Py_ssize_t n, cap, capacity;
    Py_ssize_t exports; /* live buffer views: no realloc meanwhile */
    int finished, fast;
    PyObject *orders; /* the sorter's group orders: ids are below len */
    PyObject *slots;  /* (content_id, isp, bitrate, device) -> slot */
    PyObject *spill;  /* called with no arguments when the buffer fills */
    PyObject *session_type, *attachment_type;
    Py_ssize_t off[N_SFIELDS]; /* session_type's slot offsets */
    AttEntry att[ATT_CACHE];   /* attachment reads, keyed by identity */
    SlotEntry slot_cache[1 << SLOT_CACHE_BITS]; /* slots, by identity */
} SortBuffer;

static int sortbuf_traverse(SortBuffer *self, visitproc visit, void *arg) {
    Py_VISIT(self->orders);
    Py_VISIT(self->slots);
    Py_VISIT(self->spill);
    Py_VISIT(self->session_type);
    Py_VISIT(self->attachment_type);
    for (int k = 0; k < ATT_CACHE; k++) {
        Py_VISIT(self->att[k].att);
        Py_VISIT(self->att[k].isp);
    }
    for (int k = 0; k < (1 << SLOT_CACHE_BITS); k++)
        for (int f = 0; f < 4; f++) Py_VISIT(self->slot_cache[k].obj[f]);
    return 0;
}

static int sortbuf_clear(SortBuffer *self) {
    Py_CLEAR(self->orders);
    Py_CLEAR(self->slots);
    Py_CLEAR(self->spill);
    Py_CLEAR(self->session_type);
    Py_CLEAR(self->attachment_type);
    for (int k = 0; k < ATT_CACHE; k++) {
        Py_CLEAR(self->att[k].att);
        Py_CLEAR(self->att[k].isp);
    }
    for (int k = 0; k < (1 << SLOT_CACHE_BITS); k++)
        for (int f = 0; f < 4; f++) Py_CLEAR(self->slot_cache[k].obj[f]);
    return 0;
}

static void sortbuf_dealloc(SortBuffer *self) {
    PyObject_GC_UnTrack(self);
    sortbuf_clear(self);
    PyMem_Free(self->rec);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *sortbuf_new(PyTypeObject *type, PyObject *args,
                             PyObject *kwds) {
    Py_ssize_t capacity;
    PyObject *orders, *slots, *spill, *stype, *atype;
    if (!PyArg_ParseTuple(args, "nO!O!OO!O!:SortBuffer", &capacity,
                          &PyList_Type, &orders, &PyDict_Type, &slots,
                          &spill, &PyType_Type, &stype, &PyType_Type, &atype))
        return NULL;
    if (capacity < 1 || capacity > (Py_ssize_t)UINT32_MAX) {
        PyErr_Format(PyExc_ValueError,
                     "capacity must be in [1, 2**32), got %zd", capacity);
        return NULL;
    }
    SortBuffer *self = (SortBuffer *)type->tp_alloc(type, 0);
    if (!self) return NULL;
    self->capacity = capacity;
    self->fast = 1;
    for (int k = 0; k < N_SFIELDS; k++)
        self->fast &= (self->off[k] = member_offset(
                           (PyTypeObject *)stype, session_field_names[k])) >= 0;
    Py_INCREF(orders);
    self->orders = orders;
    Py_INCREF(slots);
    self->slots = slots;
    Py_INCREF(spill);
    self->spill = spill;
    Py_INCREF(stype);
    self->session_type = stype;
    Py_INCREF(atype);
    self->attachment_type = atype;
    return (PyObject *)self;
}

/* A float field's value (ints convert, as struct's 'd' converts them). */
static int field_double(PyObject *o, double *out) {
    if (PyFloat_CheckExact(o)) {
        *out = PyFloat_AS_DOUBLE(o);
        return 0;
    }
    *out = PyFloat_AsDouble(o);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* An integer field that must fit int64 (or u32); otherwise ValueError
 * naming the session and the field, as store.py's _field_error does. */
static int field_int(PyObject *o, PyObject *sid, const char *field, int u32,
                     int64_t *out) {
    int overflow = 0;
    long long v = PyLong_AsLongLongAndOverflow(o, &overflow);
    if (v == -1 && PyErr_Occurred()) return -1;
    if (overflow || (u32 && (v < 0 || v > (long long)UINT32_MAX))) {
        PyErr_Format(PyExc_ValueError, "session %R: %s %R is outside %s", sid,
                     field, o, u32 ? "u32" : "int64");
        return -1;
    }
    *out = v;
    return 0;
}

/* The attachment's isp (new reference), pop and exchange.  Exact
 * AttachmentPoints (frozen) of exact Sessions are read once per
 * object and cached by identity; anything else is read every time. */
static PyObject *attachment_fields(SortBuffer *self, PyObject *att,
                                   PyObject *sid, int fast, uint32_t *pop,
                                   uint32_t *exchange) {
    fast = fast && Py_TYPE(att) == (PyTypeObject *)self->attachment_type;
    AttEntry *e = &self->att[(uint64_t)(uintptr_t)att *
                                 UINT64_C(0x9E3779B97F4A7C15) >>
                             (64 - ATT_CACHE_BITS)];
    if (fast && e->att == att) {
        *pop = e->pop;
        *exchange = e->exchange;
        Py_INCREF(e->isp);
        return e->isp;
    }
    PyObject *isp = PyObject_GetAttr(att, att_names[0]);
    if (!isp) return NULL;
    int64_t v[2];
    for (int k = 0; k < 2; k++) {
        PyObject *o = PyObject_GetAttr(att, att_names[k + 1]);
        int rc = o ? field_int(o, sid, k ? "exchange" : "pop", 1, &v[k]) : -1;
        Py_XDECREF(o);
        if (rc < 0) {
            Py_DECREF(isp);
            return NULL;
        }
    }
    *pop = (uint32_t)v[0];
    *exchange = (uint32_t)v[1];
    if (fast) {
        Py_XDECREF(e->att);
        Py_XDECREF(e->isp);
        Py_INCREF(att);
        Py_INCREF(isp);
        e->att = att;
        e->isp = isp;
        e->pop = *pop;
        e->exchange = *exchange;
    }
    return isp;
}

/* The slot of (content_id, isp, bitrate, device), or -1 with an
 * exception.  The sorter's dict decides by equality; in front of it, a
 * cache keyed by the four objects' identities, which it holds, so that
 * no cached address is reused by another object. */
static Py_ssize_t slot_of(SortBuffer *self, PyObject *const obj[4]) {
    uint64_t h = 0;
    for (int f = 0; f < 4; f++)
        h = (h ^ (uint64_t)(uintptr_t)obj[f]) * UINT64_C(0x9E3779B97F4A7C15);
    SlotEntry *e = &self->slot_cache[h >> (64 - SLOT_CACHE_BITS)];
    if (e->obj[0] == obj[0] && e->obj[1] == obj[1] && e->obj[2] == obj[2] &&
        e->obj[3] == obj[3])
        return e->slot;
    PyObject *key = PyTuple_Pack(4, obj[0], obj[1], obj[2], obj[3]);
    if (!key) return -1;
    PyObject *known = PyDict_GetItemWithError(self->slots, key); /* borrowed */
    Py_ssize_t slot = -1;
    if (known) {
        slot = PyLong_AsSsize_t(known);
    } else if (!PyErr_Occurred()) {
        slot = PyDict_GET_SIZE(self->slots);
        PyObject *fresh = PyLong_FromSsize_t(slot);
        if (!fresh || PyDict_SetItem(self->slots, key, fresh) < 0) slot = -1;
        Py_XDECREF(fresh);
    }
    Py_DECREF(key);
    if (slot < 0 || slot > (Py_ssize_t)UINT32_MAX) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_OverflowError, "more than 2**32 sort slots");
        return -1;
    }
    for (int f = 0; f < 4; f++) {
        Py_INCREF(obj[f]);
        Py_XSETREF(e->obj[f], obj[f]);
    }
    e->slot = (uint32_t)slot;
    return slot;
}

/* add(group, session): pack one session; calls spill() once full. */
static PyObject *sortbuf_add(SortBuffer *self, PyObject *const *args,
                             Py_ssize_t nargs) {
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "add(group, session)");
        return NULL;
    }
    if (self->finished) {
        PyErr_SetString(PyExc_RuntimeError, "cannot add sessions after write()");
        return NULL;
    }
    Py_ssize_t group = PyLong_AsSsize_t(args[0]);
    if (group == -1 && PyErr_Occurred()) return NULL;
    if (group < 0 || group >= PyList_GET_SIZE(self->orders)) {
        PyErr_Format(PyExc_IndexError, "group %zd is not registered", group);
        return NULL;
    }
    if (self->n == self->cap) {
        Py_ssize_t cap = self->cap ? 2 * self->cap : 256;
        if (cap > self->capacity) cap = self->capacity;
        if (self->exports || cap == self->n) {
            PyErr_SetString(PyExc_BufferError, "sort buffer cannot grow now");
            return NULL;
        }
        uint8_t *rec = PyMem_Realloc(self->rec, cap * RUN_SIZE);
        if (!rec) return PyErr_NoMemory();
        self->rec = rec;
        self->cap = cap;
    }

    PyObject *s = args[1], *v[N_SFIELDS] = {NULL}, *isp = NULL;
    PyObject *result = NULL;
    int fast = self->fast && Py_TYPE(s) == (PyTypeObject *)self->session_type;
    for (int k = 0; k < N_SFIELDS; k++) {
        PyObject *o = fast ? *(PyObject **)((char *)s + self->off[k]) : NULL;
        if (o)
            Py_INCREF(o);
        else if (!(o = PyObject_GetAttr(s, session_names[k])))
            goto done;
        v[k] = o;
    }
    int64_t sid, uid;
    double start, duration;
    uint32_t pop, exchange;
    if (field_int(v[F_SID], v[F_SID], "session_id", 0, &sid) < 0 ||
        field_int(v[F_UID], v[F_SID], "user_id", 0, &uid) < 0 ||
        field_double(v[F_START], &start) < 0 ||
        field_double(v[F_DURATION], &duration) < 0)
        goto done;
    isp = attachment_fields(self, v[F_ATT], v[F_SID], fast, &pop, &exchange);
    if (!isp) goto done;
    PyObject *const key[4] = {v[F_CONTENT], isp, v[F_RATE], v[F_DEVICE]};
    Py_ssize_t slot = slot_of(self, key);
    if (slot < 0) goto done;
    uint8_t *p = self->rec + self->n * RUN_SIZE;
    uint32_t g32 = (uint32_t)group, s32 = (uint32_t)slot;
    memcpy(p, &start, 8);
    memcpy(p + 8, &sid, 8);
    memcpy(p + 16, &g32, 4);
    memcpy(p + 20, &s32, 4);
    memcpy(p + 24, &uid, 8);
    memcpy(p + 32, &duration, 8);
    memcpy(p + 40, &pop, 4);
    memcpy(p + 44, &exchange, 4);
    if (++self->n == self->capacity) {
        result = PyObject_CallNoArgs(self->spill);
        if (!result) goto done;
        Py_DECREF(result);
    }
    result = Py_None;
    Py_INCREF(result);
done:
    for (int k = 0; k < N_SFIELDS; k++) Py_XDECREF(v[k]);
    Py_XDECREF(isp);
    return result;
}

/* Order of two run records of one group: start, session_id, slot,
 * user_id, duration, pop, exchange -- the tuple key after the group's
 * order.  Floats compare as python's do (-0.0 == 0.0). */
static int run_fields_cmp(const uint8_t *a, const uint8_t *b) {
    double x, y;
    int64_t i, j;
    uint32_t u, w;
    memcpy(&x, a, 8);
    memcpy(&y, b, 8);
    if (x < y) return -1;
    if (x > y) return 1;
    memcpy(&i, a + 8, 8);
    memcpy(&j, b + 8, 8);
    if (i != j) return i < j ? -1 : 1;
    memcpy(&u, a + 20, 4);
    memcpy(&w, b + 20, 4);
    if (u != w) return u < w ? -1 : 1;
    memcpy(&i, a + 24, 8);
    memcpy(&j, b + 24, 8);
    if (i != j) return i < j ? -1 : 1;
    memcpy(&x, a + 32, 8);
    memcpy(&y, b + 32, 8);
    if (x < y) return -1;
    if (x > y) return 1;
    for (int off = 40; off <= 44; off += 4) {
        memcpy(&u, a + off, 4);
        memcpy(&w, b + off, 4);
        if (u != w) return u < w ? -1 : 1;
    }
    return 0;
}

static uint32_t run_group(const uint8_t *r) {
    uint32_t g;
    memcpy(&g, r + 16, 4);
    return g;
}

static int run_cmp(const uint8_t *a, const uint8_t *b, const uint32_t *rank) {
    uint32_t x = rank[run_group(a)], y = rank[run_group(b)];
    if (x != y) return x < y ? -1 : 1;
    return run_fields_cmp(a, b);
}

/* Stable merge sort of record indices a[0:n) by run_fields_cmp; tmp
 * holds n / 2 indices. */
static void sort_indices(uint32_t *a, uint32_t *tmp, Py_ssize_t n,
                         const uint8_t *rec) {
    if (n <= 12) {
        for (Py_ssize_t i = 1; i < n; i++) {
            uint32_t x = a[i];
            Py_ssize_t j = i;
            for (; j > 0 && run_fields_cmp(rec + (size_t)a[j - 1] * RUN_SIZE,
                                           rec + (size_t)x * RUN_SIZE) > 0;
                 j--)
                a[j] = a[j - 1];
            a[j] = x;
        }
        return;
    }
    Py_ssize_t h = n / 2, i = 0, j = h, k = 0;
    sort_indices(a, tmp, h, rec);
    sort_indices(a + h, tmp, n - h, rec);
    if (run_fields_cmp(rec + (size_t)a[h - 1] * RUN_SIZE,
                       rec + (size_t)a[h] * RUN_SIZE) <= 0)
        return;
    memcpy(tmp, a, h * sizeof(uint32_t));
    while (i < h && j < n)
        a[k++] = run_fields_cmp(rec + (size_t)a[j] * RUN_SIZE,
                                rec + (size_t)tmp[i] * RUN_SIZE) < 0
                     ? a[j++]
                     : tmp[i++];
    while (i < h) a[k++] = tmp[i++];
}

/* rank[group] from by_rank, the group ids in rank order; *groups gets
 * its length.  PyMem-allocated, so tracemalloc sees it. */
static uint32_t *rank_table(PyObject *by_rank, Py_ssize_t *groups) {
    Py_ssize_t g = PyList_GET_SIZE(by_rank);
    uint32_t *rank = PyMem_Malloc((g ? g : 1) * sizeof(uint32_t));
    if (!rank) return (uint32_t *)PyErr_NoMemory();
    memset(rank, 0xFF, (g ? g : 1) * sizeof(uint32_t));
    for (Py_ssize_t r = 0; r < g; r++) {
        Py_ssize_t id = PyLong_AsSsize_t(PyList_GET_ITEM(by_rank, r));
        if (id < 0 || id >= g || rank[id] != UINT32_MAX) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError,
                                "by_rank must order every group id once");
            PyMem_Free(rank);
            return NULL;
        }
        rank[id] = (uint32_t)r;
    }
    *groups = g;
    return rank;
}

/* Sort the n buffered records in place: a stable counting sort on the
 * group's rank, a stable merge sort within each group, then the
 * permutation applied record by record.  Scratch: 4 bytes a record. */
static int sort_records(uint8_t *rec, Py_ssize_t n, const uint32_t *rank,
                        Py_ssize_t groups) {
    if (n < 2) return 0;
    uint32_t *end = PyMem_Calloc(groups + 1, sizeof(uint32_t));
    uint32_t *idx = PyMem_Malloc(n * sizeof(uint32_t)), *tmp = NULL;
    int rc = -1;
    if (!end || !idx) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        uint32_t g = run_group(rec + i * RUN_SIZE);
        if (g >= groups) {
            PyErr_Format(PyExc_ValueError, "run record of unranked group %u", g);
            goto done;
        }
        end[rank[g] + 1]++;
    }
    Py_ssize_t longest = 0;
    for (Py_ssize_t r = 0; r < groups; r++) {
        if (end[r + 1] > longest) longest = end[r + 1];
        end[r + 1] += end[r];
    }
    for (Py_ssize_t i = 0; i < n; i++)
        idx[end[rank[run_group(rec + i * RUN_SIZE)]]++] = (uint32_t)i;
    /* end[r] is now where rank r's segment ends. */
    if (!(tmp = PyMem_Malloc((longest / 2 + 1) * sizeof(uint32_t)))) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t r = 0, lo = 0; r < groups; lo = end[r++])
        if (end[r] - lo > 1) sort_indices(idx + lo, tmp, end[r] - lo, rec);
    /* idx[j] is the record that belongs at j: follow each cycle. */
    for (Py_ssize_t i = 0; i < n; i++) {
        if (idx[i] == i) continue;
        uint8_t held[RUN_SIZE];
        memcpy(held, rec + i * RUN_SIZE, RUN_SIZE);
        Py_ssize_t j = i;
        for (;;) {
            Py_ssize_t k = idx[j];
            idx[j] = (uint32_t)j;
            if (k == i) {
                memcpy(rec + j * RUN_SIZE, held, RUN_SIZE);
                break;
            }
            memcpy(rec + j * RUN_SIZE, rec + k * RUN_SIZE, RUN_SIZE);
            j = k;
        }
    }
    rc = 0;
done:
    PyMem_Free(end);
    PyMem_Free(idx);
    PyMem_Free(tmp);
    return rc;
}

/* sort(by_rank): order the buffered records, groups ranked by by_rank. */
static PyObject *sortbuf_sort(SortBuffer *self, PyObject *by_rank) {
    if (!PyList_Check(by_rank)) {
        PyErr_SetString(PyExc_TypeError, "by_rank must be a list");
        return NULL;
    }
    if (self->exports) {
        PyErr_SetString(PyExc_BufferError, "sort buffer is exported");
        return NULL;
    }
    Py_ssize_t groups;
    uint32_t *rank = rank_table(by_rank, &groups);
    if (!rank) return NULL;
    int rc = sort_records(self->rec, self->n, rank, groups);
    PyMem_Free(rank);
    if (rc < 0) return NULL;
    Py_RETURN_NONE;
}

/* clear(): drop the buffered records (after a spill), keeping room. */
static PyObject *sortbuf_clear_records(SortBuffer *self,
                                       PyObject *Py_UNUSED(ignored)) {
    if (self->exports) {
        PyErr_SetString(PyExc_BufferError, "sort buffer is exported");
        return NULL;
    }
    self->n = 0;
    Py_RETURN_NONE;
}

/* One merge input: a spilled run read chunk by chunk, or the buffer. */
typedef struct {
    PyObject *data; /* the run's current chunk (bytes) */
    const uint8_t *p, *end;
    Py_ssize_t next, count; /* records read so far / in the run */
} Source;

/* Read a run's next chunk through read(run, first, count). */
static int source_refill(Source *s, Py_ssize_t run, Py_ssize_t chunk,
                         PyObject *read) {
    Py_CLEAR(s->data);
    s->p = s->end = NULL;
    Py_ssize_t want = s->count - s->next;
    if (want > chunk) want = chunk;
    if (want <= 0) return 0;
    PyObject *data = PyObject_CallFunction(read, "nnn", run, s->next, want);
    if (!data) return -1;
    if (!PyBytes_Check(data) || PyBytes_GET_SIZE(data) != want * RUN_SIZE) {
        Py_DECREF(data);
        PyErr_Format(PyExc_ValueError,
                     "run %zd: read did not return %zd records", run, want);
        return -1;
    }
    s->data = data;
    s->p = (const uint8_t *)PyBytes_AS_STRING(data);
    s->end = s->p + want * RUN_SIZE;
    s->next += want;
    return 0;
}

static int source_before(const Source *src, int32_t a, int32_t b,
                         const uint32_t *rank) {
    int c = run_cmp(src[a].p, src[b].p, rank);
    return c < 0 || (c == 0 && a < b);
}

static void heap_down(int32_t *heap, Py_ssize_t m, Py_ssize_t i,
                      const Source *src, const uint32_t *rank) {
    for (;;) {
        Py_ssize_t least = i, l = 2 * i + 1, r = l + 1;
        if (l < m && source_before(src, heap[l], heap[least], rank)) least = l;
        if (r < m && source_before(src, heap[r], heap[least], rank)) least = r;
        if (least == i) return;
        int32_t t = heap[i];
        heap[i] = heap[least];
        heap[least] = t;
        i = least;
    }
}

/* A store string-table ref that must fit its field. */
static int table_ref(PyObject *o, uint64_t max, const char *table,
                     uint32_t *out) {
    Py_ssize_t v = PyLong_AsSsize_t(o);
    if (v == -1 && PyErr_Occurred()) return -1;
    if (v < 0 || (uint64_t)v > max) {
        PyErr_Format(PyExc_ValueError,
                     "a store holds at most %llu distinct %s strings",
                     (unsigned long long)max + 1, table);
        return -1;
    }
    *out = (uint32_t)v;
    return 0;
}

/* merge(by_rank, runs, chunk, read, emit, refs, slots): sort the
 * buffer, then merge it with the spilled runs (runs[r] records each,
 * read chunk records at a time) into 56-byte store records, passed to
 * emit(bytes) OUT_RECORDS at a time.  refs(slot) gives a slot's
 * (content_ref, bitrate, isp_ref, device_ref) the first time it
 * appears in merged order.  Returns [(group, index, count)] per group,
 * in merged order.  The buffer is released: a sorter merges once. */
static PyObject *sortbuf_merge(SortBuffer *self, PyObject *args) {
    PyObject *by_rank, *runs, *read, *emit, *refs;
    Py_ssize_t chunk, nslots;
    if (!PyArg_ParseTuple(args, "O!O!nOOOn:merge", &PyList_Type, &by_rank,
                          &PyList_Type, &runs, &chunk, &read, &emit, &refs,
                          &nslots))
        return NULL;
    if (self->exports) {
        PyErr_SetString(PyExc_BufferError, "sort buffer is exported");
        return NULL;
    }
    self->finished = 1;
    Py_ssize_t groups, k = PyList_GET_SIZE(runs), m = 0, written = 0,
                       nout = 0, first = 0;
    uint32_t *rank = rank_table(by_rank, &groups);
    Source *src = PyMem_Calloc(k + 1, sizeof(Source));
    int32_t *heap = PyMem_Malloc((k + 1) * sizeof(int32_t));
    uint8_t *out = PyMem_Malloc(OUT_RECORDS * DB_RECORD_SIZE);
    /* per slot: content ref, isp ref, device ref, bitrate, seen */
    uint32_t *slot_refs = PyMem_Calloc(3 * (nslots ? nslots : 1), 4);
    double *slot_rate = PyMem_Malloc((nslots ? nslots : 1) * sizeof(double));
    uint8_t *seen = PyMem_Calloc(nslots ? nslots : 1, 1);
    PyObject *extents = PyList_New(0), *result = NULL;
    uint32_t cur_rank = 0, cur_group = 0;
    if (!rank || !extents) goto done;
    if (!src || !heap || !out || !slot_refs || !slot_rate || !seen ||
        chunk < 1 || nslots < 0) {
        if (!PyErr_Occurred()) {
            if (chunk < 1 || nslots < 0)
                PyErr_SetString(PyExc_ValueError, "bad chunk or slot count");
            else
                PyErr_NoMemory();
        }
        goto done;
    }
    if (sort_records(self->rec, self->n, rank, groups) < 0) goto done;
    for (Py_ssize_t r = 0; r < k; r++) {
        src[r].count = PyLong_AsSsize_t(PyList_GET_ITEM(runs, r));
        if (src[r].count == -1 && PyErr_Occurred()) goto done;
        if (source_refill(&src[r], r, chunk, read) < 0) goto done;
    }
    src[k].p = self->rec;
    src[k].end = self->rec + self->n * RUN_SIZE;
    for (Py_ssize_t r = 0; r <= k; r++) {
        if (src[r].p == src[r].end) continue;
        if (run_group(src[r].p) >= groups) goto corrupt;
        heap[m++] = (int32_t)r;
    }
    for (Py_ssize_t i = m / 2; i-- > 0;) heap_down(heap, m, i, src, rank);

    while (m > 0) {
        int32_t top = heap[0];
        Source *s = &src[top];
        const uint8_t *r = s->p;
        uint32_t g = run_group(r), slot;
        memcpy(&slot, r + 20, 4);
        if (slot >= nslots) goto corrupt;
        if (!seen[slot]) {
            PyObject *t = PyObject_CallFunction(refs, "n", (Py_ssize_t)slot);
            if (!t) goto done;
            int ok = PyTuple_Check(t) && PyTuple_GET_SIZE(t) == 4 &&
                     table_ref(PyTuple_GET_ITEM(t, 0), UINT32_MAX, "content",
                               &slot_refs[3 * slot]) == 0 &&
                     field_double(PyTuple_GET_ITEM(t, 1), &slot_rate[slot]) == 0 &&
                     table_ref(PyTuple_GET_ITEM(t, 2), 0xFFFF, "isp",
                               &slot_refs[3 * slot + 1]) == 0 &&
                     table_ref(PyTuple_GET_ITEM(t, 3), 0xFFFF, "device",
                               &slot_refs[3 * slot + 2]) == 0;
            Py_DECREF(t);
            if (!ok) {
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_TypeError,
                                    "refs(slot) must return a 4-tuple");
                goto done;
            }
            seen[slot] = 1;
        }
        uint32_t rk = rank[g];
        if (written == 0 || rk != cur_rank) {
            if (written > 0) {
                PyObject *e = Py_BuildValue("(Inn)", cur_group, first,
                                            written - first);
                if (!e || PyList_Append(extents, e) < 0) {
                    Py_XDECREF(e);
                    goto done;
                }
                Py_DECREF(e);
            }
            cur_rank = rk;
            cur_group = g;
            first = written;
        }
        uint8_t *o = out + nout * DB_RECORD_SIZE;
        uint16_t isp_ref = (uint16_t)slot_refs[3 * slot + 1],
                 device_ref = (uint16_t)slot_refs[3 * slot + 2];
        memcpy(o, r + 8, 8);                  /* session_id */
        memcpy(o + 8, r + 24, 8);             /* user_id */
        memcpy(o + 16, &slot_refs[3 * slot], 4); /* content ref */
        memcpy(o + 20, r, 8);                 /* start */
        memcpy(o + 28, r + 32, 8);            /* duration */
        memcpy(o + 36, &slot_rate[slot], 8);  /* bitrate */
        memcpy(o + 44, &isp_ref, 2);
        memcpy(o + 46, r + 40, 8);            /* pop, exchange */
        memcpy(o + 54, &device_ref, 2);
        written++;
        if (++nout == OUT_RECORDS) {
            PyObject *b = PyBytes_FromStringAndSize((char *)out,
                                                    nout * DB_RECORD_SIZE);
            PyObject *rv = b ? PyObject_CallOneArg(emit, b) : NULL;
            Py_XDECREF(b);
            if (!rv) goto done;
            Py_DECREF(rv);
            nout = 0;
        }
        s->p += RUN_SIZE;
        if (s->p == s->end && top < k &&
            source_refill(s, top, chunk, read) < 0)
            goto done;
        if (s->p == s->end)
            heap[0] = heap[--m];
        else if (run_group(s->p) >= groups)
            goto corrupt;
        heap_down(heap, m, 0, src, rank);
    }
    if (nout > 0) {
        PyObject *b = PyBytes_FromStringAndSize((char *)out, nout * DB_RECORD_SIZE);
        PyObject *rv = b ? PyObject_CallOneArg(emit, b) : NULL;
        Py_XDECREF(b);
        if (!rv) goto done;
        Py_DECREF(rv);
    }
    if (written > 0) {
        PyObject *e = Py_BuildValue("(Inn)", cur_group, first, written - first);
        if (!e || PyList_Append(extents, e) < 0) {
            Py_XDECREF(e);
            goto done;
        }
        Py_DECREF(e);
    }
    result = extents;
    extents = NULL;
    goto done;
corrupt:
    PyErr_SetString(PyExc_ValueError, "run record names an unknown group or slot");
done:
    if (src)
        for (Py_ssize_t r = 0; r <= k; r++) Py_XDECREF(src[r].data);
    PyMem_Free(src);
    PyMem_Free(heap);
    PyMem_Free(out);
    PyMem_Free(slot_refs);
    PyMem_Free(slot_rate);
    PyMem_Free(seen);
    PyMem_Free(rank);
    Py_XDECREF(extents);
    PyMem_Free(self->rec);
    self->rec = NULL;
    self->n = self->cap = 0;
    return result;
}

static Py_ssize_t sortbuf_len(SortBuffer *self) { return self->n; }

static int sortbuf_getbuffer(SortBuffer *self, Py_buffer *view, int flags) {
    static uint8_t empty;
    if (PyBuffer_FillInfo(view, (PyObject *)self,
                          self->rec ? self->rec : &empty,
                          self->n * RUN_SIZE, 1, flags) < 0)
        return -1;
    self->exports++;
    return 0;
}

static void sortbuf_releasebuffer(SortBuffer *self, Py_buffer *view) {
    self->exports--;
}

static PyMethodDef sortbuf_methods[] = {
    {"add", (PyCFunction)(void (*)(void))sortbuf_add, METH_FASTCALL,
     "add(group, session): pack one session as a run record; calls "
     "spill() when the buffer holds capacity records."},
    {"sort", (PyCFunction)sortbuf_sort, METH_O,
     "sort(by_rank): order the buffer in place by its group's rank in "
     "by_rank, then the tuple key."},
    {"clear", (PyCFunction)sortbuf_clear_records, METH_NOARGS,
     "clear(): drop the buffered records, after a spill wrote them."},
    {"merge", (PyCFunction)sortbuf_merge, METH_VARARGS,
     "merge(by_rank, runs, chunk, read, emit, refs, slots): merge the "
     "spilled runs and the buffer into store records; returns the "
     "extents."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods sortbuf_as_sequence = {
    .sq_length = (lenfunc)sortbuf_len,
};

static PyBufferProcs sortbuf_as_buffer = {
    .bf_getbuffer = (getbufferproc)sortbuf_getbuffer,
    .bf_releasebuffer = (releasebufferproc)sortbuf_releasebuffer,
};

static PyTypeObject SortBufferType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.SortBuffer",
    .tp_doc = "SortBuffer(capacity, orders, slots, spill, session_type, "
              "attachment_type): ExternalGroupSorter's packed run buffer "
              "(trace/store.py); the buffer protocol exposes the records.",
    .tp_basicsize = sizeof(SortBuffer),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = sortbuf_new,
    .tp_dealloc = (destructor)sortbuf_dealloc,
    .tp_traverse = (traverseproc)sortbuf_traverse,
    .tp_clear = (inquiry)sortbuf_clear,
    .tp_methods = sortbuf_methods,
    .tp_as_sequence = &sortbuf_as_sequence,
    .tp_as_buffer = &sortbuf_as_buffer,
};

/* ------------------------------------------------------------------ */
/* Trace generator front end: the population's draws and the session  */
/* loop.  replay_population() repeats repro/trace/population.py's      */
/* _population_columns (the semantics reference) for an exact          */
/* random.Random: every uniform from its bound random(), every         */
/* exchange through its getrandbits() as randrange() draws it, and     */
/* random.py's own bisect, choices and normalvariate arithmetic.       */
/* session_maker() returns a SessionMaker over the population's        */
/* columns and tables; calling it with one item's replay_item result   */
/* (the kept count and the columns) gives a lazy iterator that         */
/* allocates each kept Session and fills its slots directly, sharing   */
/* the tables' attachment, bitrate and device objects, with            */
/* Session.__post_init__'s checks and messages -- the python loop's    */
/* sessions, without running Session.__init__.                         */

/* random.NV_MAGICCONST = 4 * exp(-0.5) / sqrt(2.0), as its shortest
 * repr. */
#define RANDOM_NV_MAGICCONST 1.7155277699214135

/* A one-dimensional C-contiguous buffer of `typecode` items, or -1
 * with TypeError. */
static int typed_view(PyObject *o, const char *typecode, Py_ssize_t itemsize,
                      const char *what, Py_buffer *view) {
    if (PyObject_GetBuffer(o, view, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != itemsize || !view->format ||
        strcmp(view->format, typecode) != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s must be an array('%s')", what,
                     typecode);
        return -1;
    }
    return 0;
}

/* random.Random.getrandbits(k) as an integer below 2**64. */
static int random_bits(PyObject *getrandbits, PyObject *k, uint64_t *out) {
    PyObject *value = PyObject_CallOneArg(getrandbits, k);
    if (!value) return -1;
    *out = PyLong_AsUnsignedLongLong(value);
    Py_DECREF(value);
    return (*out == (uint64_t)-1 && PyErr_Occurred()) ? -1 : 0;
}

/* replay_population(random, getrandbits, cum_isp, offsets, sizes,
 * cum_device, sigma, num_users): the columns _population_columns
 * draws -- attachment codes and device codes (array('I')) and
 * activities (array('d')) -- with its per-user errors.  cum_isp is the
 * city's cumulative shares, offsets and sizes each ISP's first
 * attachment code and exchange count (array('q')), cum_device the
 * device mix's cumulative shares; _population_tables checks the
 * arguments before either replay. */
static PyObject *replay_population(PyObject *self, PyObject *args) {
    PyObject *random, *getrandbits, *result = NULL;
    Py_buffer cum_b = {0}, off_b = {0}, size_b = {0}, dev_b = {0};
    Py_buffer views[3] = {{0}};
    PyObject *columns[3] = {NULL, NULL, NULL}, **widths = NULL;
    double sigma;
    Py_ssize_t num_users;
    if (!PyArg_ParseTuple(args, "OOy*y*y*y*dn", &random, &getrandbits,
                          &cum_b, &off_b, &size_b, &dev_b, &sigma,
                          &num_users))
        return NULL;
    Py_ssize_t n_isp = cum_b.len / (Py_ssize_t)sizeof(double);
    Py_ssize_t n_dev = dev_b.len / (Py_ssize_t)sizeof(double);
    const double *cum_isp = cum_b.buf, *cum_dev = dev_b.buf;
    const int64_t *offsets = off_b.buf, *sizes = size_b.buf;
    if (n_isp < 1 || n_dev < 1 || num_users < 0 ||
        off_b.len != n_isp * (Py_ssize_t)sizeof(int64_t) ||
        size_b.len != n_isp * (Py_ssize_t)sizeof(int64_t)) {
        PyErr_SetString(PyExc_ValueError,
                        "replay_population requires >= 1 ISP, an offset and "
                        "a size per ISP, >= 1 device and num_users >= 0");
        goto done;
    }
    /* randrange(size): getrandbits(size.bit_length()) until below size. */
    widths = PyMem_Calloc(n_isp, sizeof(PyObject *));
    if (!widths) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n_isp; i++) {
        int bits = 0;
        if (sizes[i] < 1 || offsets[i] < 0 ||
            offsets[i] + sizes[i] > (int64_t)UINT32_MAX + 1) {
            PyErr_SetString(PyExc_ValueError,
                            "ISP exchange ranges must be non-empty u32 codes");
            goto done;
        }
        while (bits < 63 && (sizes[i] >> bits) != 0) bits++;
        if (!(widths[i] = PyLong_FromLong(bits))) goto done;
    }
    static const char *const typecodes[3] = {"I", "I", "d"};
    for (int c = 0; c < 3; c++)
        if (!(columns[c] = zeroed_array(typecodes[c], num_users, &views[c])))
            goto done;
    if (views[0].itemsize != 4 || views[1].itemsize != 4) {
        PyErr_SetString(PyExc_TypeError, "array('I') items are not 32-bit");
        goto done;
    }
    uint32_t *codes = views[0].buf, *devices = views[1].buf;
    double *activity = views[2].buf;
    double isp_total = cum_isp[n_isp - 1], dev_total = cum_dev[n_dev - 1] + 0.0;
    for (Py_ssize_t user = 0; user < num_users; user++) {
        double u, u1, u2, z;
        uint64_t exchange;
        /* CityNetwork.sample_isp */
        if (uniform(random, &u) < 0) goto done;
        Py_ssize_t isp = bisect_right(cum_isp, u * isp_total, 0, n_isp);
        if (isp == n_isp) {
            PyErr_SetString(PyExc_IndexError, "tuple index out of range");
            goto done;
        }
        /* ISPNetwork.sample_attachment: randrange(num_exchanges) */
        do {
            if (random_bits(getrandbits, widths[isp], &exchange) < 0)
                goto done;
        } while (exchange >= (uint64_t)sizes[isp]);
        codes[user] = (uint32_t)(offsets[isp] + (int64_t)exchange);
        /* choices(devices, cum_weights=...)[0] */
        if (uniform(random, &u) < 0) goto done;
        devices[user] = (uint32_t)bisect_right(cum_dev, u * dev_total, 0,
                                               n_dev - 1);
        /* lognormvariate(0.0, sigma) = exp(normalvariate(0.0, sigma)) */
        for (;;) {
            if (uniform(random, &u1) < 0 || uniform(random, &u2) < 0)
                goto done;
            u2 = 1.0 - u2;
            z = RANDOM_NV_MAGICCONST * (u1 - 0.5) / u2;
            if (z * z / 4.0 <= -log(u2)) break;
        }
        double x = 0.0 + z * sigma;
        activity[user] = exp(x);
        if (isinf(activity[user]) && isfinite(x)) { /* math.exp's check */
            PyErr_SetString(PyExc_OverflowError, "math range error");
            goto done;
        }
        if (activity[user] <= 0.0) { /* User's check: exp underflowed */
            PyObject *v = PyFloat_FromDouble(activity[user]);
            if (v) PyErr_Format(PyExc_ValueError,
                                "activity must be > 0, got %R", v);
            Py_XDECREF(v);
            goto done;
        }
    }
    for (int c = 0; c < 3; c++) PyBuffer_Release(&views[c]);
    result = PyTuple_Pack(3, columns[0], columns[1], columns[2]);

done:
    for (int c = 0; c < 3; c++) {
        PyBuffer_Release(&views[c]);
        Py_XDECREF(columns[c]);
    }
    if (widths)
        for (Py_ssize_t i = 0; i < n_isp; i++) Py_XDECREF(widths[i]);
    PyMem_Free(widths);
    PyBuffer_Release(&cum_b);
    PyBuffer_Release(&off_b);
    PyBuffer_Release(&size_b);
    PyBuffer_Release(&dev_b);
    return result;
}

typedef struct {
    PyObject_HEAD
    PyObject *type;            /* the Session type */
    Py_ssize_t off[N_SFIELDS]; /* its slot offsets */
    PyObject *attachments;     /* tuple: attachment code -> point */
    PyObject *codes;           /* array('I'): user -> attachment code */
    PyObject *bitrates, *devices; /* tuples: device code -> bitrate, name */
    PyObject *device_codes;    /* array('I'): user -> device code */
} SessionMaker;

enum { C_START, C_DURATION, C_VIEWER, C_CODE, C_DEVICE, N_COLUMNS };

typedef struct {
    PyObject_HEAD
    SessionMaker *maker;
    PyObject *content_id;
    Py_buffer col[N_COLUMNS];
    Py_ssize_t next, n, num_users;
    long long session_id; /* of the next session */
} SessionIter;

static PyTypeObject SessionMakerType, SessionIterType;
static PyObject *zero_int, *inf_float; /* Session.__post_init__'s 0 and _INF */

static int maker_traverse(SessionMaker *self, visitproc visit, void *arg) {
    Py_VISIT(self->type);
    Py_VISIT(self->attachments);
    Py_VISIT(self->codes);
    Py_VISIT(self->bitrates);
    Py_VISIT(self->devices);
    Py_VISIT(self->device_codes);
    return 0;
}

static int maker_clear(SessionMaker *self) {
    Py_CLEAR(self->type);
    Py_CLEAR(self->attachments);
    Py_CLEAR(self->codes);
    Py_CLEAR(self->bitrates);
    Py_CLEAR(self->devices);
    Py_CLEAR(self->device_codes);
    return 0;
}

static void maker_dealloc(SessionMaker *self) {
    PyObject_GC_UnTrack(self);
    maker_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* session_maker(session_type, attachments, codes, bitrates, devices,
 * device_codes): a SessionMaker, or None when a Session field is not a
 * plain slot of session_type (the generator then runs its python
 * loop). */
static PyObject *session_maker(PyObject *self, PyObject *args) {
    PyObject *type, *attachments, *codes, *bitrates, *devices, *device_codes;
    if (!PyArg_ParseTuple(args, "O!O!OO!O!O:session_maker", &PyType_Type,
                          &type, &PyTuple_Type, &attachments, &codes,
                          &PyTuple_Type, &bitrates, &PyTuple_Type, &devices,
                          &device_codes))
        return NULL;
    if (PyTuple_GET_SIZE(bitrates) != PyTuple_GET_SIZE(devices)) {
        PyErr_SetString(PyExc_ValueError,
                        "bitrates and devices must align, one per device");
        return NULL;
    }
    Py_ssize_t off[N_SFIELDS];
    for (int k = 0; k < N_SFIELDS; k++)
        if ((off[k] = member_offset((PyTypeObject *)type,
                                    session_field_names[k])) < 0)
            Py_RETURN_NONE;
    SessionMaker *m = PyObject_GC_New(SessionMaker, &SessionMakerType);
    if (!m) return NULL;
    memcpy(m->off, off, sizeof(off));
    m->type = Py_NewRef(type);
    m->attachments = Py_NewRef(attachments);
    m->codes = Py_NewRef(codes);
    m->bitrates = Py_NewRef(bitrates);
    m->devices = Py_NewRef(devices);
    m->device_codes = Py_NewRef(device_codes);
    PyObject_GC_Track(m);
    return (PyObject *)m;
}

static void iter_dealloc(SessionIter *self) {
    for (int c = 0; c < N_COLUMNS; c++) PyBuffer_Release(&self->col[c]);
    Py_XDECREF(self->maker);
    Py_XDECREF(self->content_id);
    PyObject_Free(self);
}

/* maker(session_id, content_id, kept, starts, durations, viewers): the
 * lazy iterator over one item's kept sessions -- the first kept entries
 * of replay_item's columns -- numbered from session_id. */
static PyObject *maker_call(SessionMaker *self, PyObject *args,
                            PyObject *kwds) {
    long long session_id;
    Py_ssize_t kept;
    PyObject *content_id, *starts, *durations, *viewers;
    if (kwds && PyDict_GET_SIZE(kwds)) {
        PyErr_SetString(PyExc_TypeError, "SessionMaker takes no keywords");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "LOnOOO:SessionMaker", &session_id,
                          &content_id, &kept, &starts, &durations, &viewers))
        return NULL;
    SessionIter *it = PyObject_New(SessionIter, &SessionIterType);
    if (!it) return NULL;
    memset(it->col, 0, sizeof(it->col));
    it->maker = (SessionMaker *)Py_NewRef(self);
    it->content_id = Py_NewRef(content_id);
    it->next = 0;
    it->session_id = session_id;
    struct {
        PyObject *o;
        const char *typecode, *what;
        Py_ssize_t itemsize;
    } cols[N_COLUMNS] = {
        {starts, "d", "starts", 8},          {durations, "d", "durations", 8},
        {viewers, "q", "viewers", 8},        {self->codes, "I", "codes", 4},
        {self->device_codes, "I", "device codes", 4},
    };
    for (int c = 0; c < N_COLUMNS; c++)
        if (typed_view(cols[c].o, cols[c].typecode, cols[c].itemsize,
                       cols[c].what, &it->col[c]) < 0) {
            Py_DECREF(it);
            return NULL;
        }
    it->n = kept;
    it->num_users = it->col[C_CODE].shape[0];
    if (kept < 0 || it->col[C_START].shape[0] < kept ||
        it->col[C_DURATION].shape[0] < kept ||
        it->col[C_VIEWER].shape[0] < kept ||
        it->col[C_DEVICE].shape[0] != it->num_users) {
        PyErr_SetString(PyExc_ValueError,
                        "session columns must hold kept >= 0 entries and "
                        "user columns must align");
        Py_DECREF(it);
        return NULL;
    }
    return (PyObject *)it;
}

/* Session.__post_init__'s `not 0 < bitrate < _INF`: 1 when it holds,
 * 0 when not, -1 with the comparison's exception. */
static int positive_finite(PyObject *v) {
    if (PyFloat_CheckExact(v)) {
        double x = PyFloat_AS_DOUBLE(v);
        return 0.0 < x && x < Py_HUGE_VAL;
    }
    int ok = PyObject_RichCompareBool(zero_int, v, Py_LT);
    return ok == 1 ? PyObject_RichCompareBool(v, inf_float, Py_LT) : ok;
}

static PyObject *iter_next(SessionIter *it) {
    if (it->next >= it->n) return NULL;
    SessionMaker *m = it->maker;
    Py_ssize_t i = it->next;
    double start = ((const double *)it->col[C_START].buf)[i];
    double duration = ((const double *)it->col[C_DURATION].buf)[i];
    int64_t viewer = ((const int64_t *)it->col[C_VIEWER].buf)[i];
    if (viewer < 0 || viewer >= it->num_users) {
        PyErr_Format(PyExc_IndexError, "viewer %lld is outside the population",
                     (long long)viewer);
        return NULL;
    }
    uint32_t code = ((const uint32_t *)it->col[C_CODE].buf)[viewer];
    uint32_t device = ((const uint32_t *)it->col[C_DEVICE].buf)[viewer];
    if (code >= PyTuple_GET_SIZE(m->attachments) ||
        device >= PyTuple_GET_SIZE(m->devices)) {
        PyErr_Format(PyExc_IndexError, "user %lld has no such %s",
                     (long long)viewer,
                     device >= PyTuple_GET_SIZE(m->devices) ? "device"
                                                            : "attachment");
        return NULL;
    }
    PyObject *bitrate = PyTuple_GET_ITEM(m->bitrates, device);
    /* Session.__post_init__, check for check. */
    if (!(0.0 <= start && start < Py_HUGE_VAL)) {
        PyObject *v = PyFloat_FromDouble(start);
        if (v) PyErr_Format(PyExc_ValueError,
                            "start must be >= 0 and finite, got %R", v);
        Py_XDECREF(v);
        return NULL;
    }
    if (!(0.0 < duration && duration < Py_HUGE_VAL)) {
        PyObject *v = PyFloat_FromDouble(duration);
        if (v) PyErr_Format(PyExc_ValueError,
                            "duration must be > 0 and finite, got %R", v);
        Py_XDECREF(v);
        return NULL;
    }
    int ok = positive_finite(bitrate);
    if (ok == 0)
        PyErr_Format(PyExc_ValueError,
                     "bitrate must be finite and > 0, got %R", bitrate);
    if (ok <= 0) return NULL;
    if ((ok = PyObject_IsTrue(it->content_id)) == 0)
        PyErr_SetString(PyExc_ValueError, "content_id must be non-empty");
    if (ok <= 0) return NULL;

    PyTypeObject *tp = (PyTypeObject *)m->type;
    PyObject *v[N_SFIELDS];
    v[F_SID] = PyLong_FromLongLong(it->session_id);
    v[F_UID] = PyLong_FromLongLong((long long)viewer);
    v[F_START] = PyFloat_FromDouble(start);
    v[F_DURATION] = PyFloat_FromDouble(duration);
    PyObject *s = tp->tp_alloc(tp, 0);
    if (!s || !v[F_SID] || !v[F_UID] || !v[F_START] || !v[F_DURATION]) {
        Py_XDECREF(s);
        Py_XDECREF(v[F_SID]);
        Py_XDECREF(v[F_UID]);
        Py_XDECREF(v[F_START]);
        Py_XDECREF(v[F_DURATION]);
        return NULL;
    }
    v[F_CONTENT] = Py_NewRef(it->content_id);
    v[F_RATE] = Py_NewRef(bitrate);
    v[F_ATT] = Py_NewRef(PyTuple_GET_ITEM(m->attachments, code));
    v[F_DEVICE] = Py_NewRef(PyTuple_GET_ITEM(m->devices, device));
    for (int k = 0; k < N_SFIELDS; k++)
        *(PyObject **)((char *)s + m->off[k]) = v[k];
    it->next++;
    it->session_id++;
    return s;
}

static PyTypeObject SessionMakerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.SessionMaker",
    .tp_doc = "A trace's session builder (see session_maker); "
              "maker(session_id, content_id, kept, starts, durations, "
              "viewers) iterates one item's kept sessions.",
    .tp_basicsize = sizeof(SessionMaker),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_dealloc = (destructor)maker_dealloc,
    .tp_traverse = (traverseproc)maker_traverse,
    .tp_clear = (inquiry)maker_clear,
    .tp_call = (ternaryfunc)maker_call,
};

static PyTypeObject SessionIterType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.SessionIter",
    .tp_doc = "One item's sessions, built as they are drawn.",
    .tp_basicsize = sizeof(SessionIter),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_dealloc = (destructor)iter_dealloc,
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)iter_next,
};

static PyMethodDef ckernel_methods[] = {
    {"sweep", sweep, METH_VARARGS,
     "Columnar swarm sweep over packed schedule columns; returns the "
     "swarm's packed output block (docs/BLOCK_FORMAT.md) and its "
     "matching/accounting seconds."},
    {"check", check, METH_VARARGS,
     "check(outputs, first_index): verify each (key, block) output's "
     "framing and CRC-32; ValueError names the refused task."},
    {"fold", fold, METH_VARARGS,
     "Fold checked (key, block) outputs into a StreamingReducer's "
     "columns; returns the user rows seen, or None to decline."},
    {"build", build, METH_VARARGS,
     "build(sessions, dtau, linger, participates): packed schedule "
     "columns straight from Session slots, lingering seeds included "
     "(participates(uid) is called once per user when linger > 0); "
     "returns None to decline, and the task runs on the object kernel."},
    {"decode_build", decode_build, METH_VARARGS,
     "decode_build(raw, n, dtau, linger, participates): fused "
     "zero-object ingest, decoding n raw 56-byte store records into "
     "build()'s packed schedule in one pass; returns None to decline, "
     "and the task runs on the object kernel."},
    {"supplies", supplies_helper, METH_VARARGS,
     "Per-session supply column from per-bitrate rates (and optional "
     "per-slot participation bytes) for a schedule."},
    {"replay_item", replay_item, METH_VARARGS,
     "Replay one catalogue item's trace-generator draws after its "
     "Poisson count through the bound random(); returns (kept, starts, "
     "durations, viewer indices), the kept sessions being the first "
     "kept entries of each count-long array."},
    {"replay_population", replay_population, METH_VARARGS,
     "replay_population(random, getrandbits, cum_isp, offsets, sizes, "
     "cum_device, sigma, num_users): the trace generator's population "
     "draws through the bound random() and getrandbits(); returns the "
     "(attachment codes, device codes, activities) arrays."},
    {"session_maker", session_maker, METH_VARARGS,
     "session_maker(session_type, attachments, codes, bitrates, devices, "
     "device_codes): the trace generator's session builder over the "
     "population's columns, or None when a Session field is not a plain "
     "slot."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro.sim._ckernel",
    "Compiled columnar swarm sweep (bit-for-bit replay of the object "
    "kernel; see repro/sim/kernel_columns.py) and trace-generator draw "
    "replay (see repro/trace/generator.py).",
    -1,
    ckernel_methods,
};

PyMODINIT_FUNC PyInit__ckernel(void) {
    PyObject *array_module = PyImport_ImportModule("array");
    if (!array_module) return NULL;
    array_type = PyObject_GetAttrString(array_module, "array");
    Py_DECREF(array_module);
    if (!array_type) return NULL;
    crc_init();
    for (int k = 0; k < N_SFIELDS; k++)
        if (!(session_names[k] =
                  PyUnicode_InternFromString(session_field_names[k])))
            return NULL;
    static const char *const att_field_names[3] = {"isp", "pop", "exchange"};
    for (int k = 0; k < 3; k++)
        if (!(att_names[k] = PyUnicode_InternFromString(att_field_names[k])))
            return NULL;
    if (PyType_Ready(&SortBufferType) < 0 ||
        PyType_Ready(&SessionMakerType) < 0 ||
        PyType_Ready(&SessionIterType) < 0)
        return NULL;
    if (!(zero_int = PyLong_FromLong(0)) ||
        !(inf_float = PyFloat_FromDouble(Py_HUGE_VAL)))
        return NULL;
    PyObject *module = PyModule_Create(&ckernel_module);
    if (!module) return NULL;
    Py_INCREF(&SortBufferType);
    if (PyModule_AddObject(module, "SortBuffer", (PyObject *)&SortBufferType) < 0) {
        Py_DECREF(&SortBufferType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
