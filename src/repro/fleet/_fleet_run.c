/*
 * The native shard run of the fleet simulator (repro.fleet.native).
 *
 * fr_run advances one shard of `lanes` network instances by `steps`
 * steps, each exactly one FleetShard.step() of repro.fleet.sim: inject
 * the stimulus, pick one machine per lane round-robin, then run the
 * picked machines' kernels in order, each writing back its state and
 * flags and then delivering its emissions.  A plane is `lanes` bits in
 * W = ceil(lanes / 64) 64-bit words, lane i at bit i % 64 of word i / 64;
 * bits past the last lane are always zero.
 *
 * The Python side packs every plane of the shard into one arena and
 * describes the network in one int32 program (its layout is documented
 * in repro.fleet.native): the counters, the event table, the stimulus
 * draws, and per machine its parameter planes and its kernel tape, four
 * ints per op (opcode, name, a, b) and one operand per result.  An
 * operand i >= 0 is op i's result, ~p is parameter p (0: all zeroes,
 * 1: all ones, 2: the machine's pick plane, then its flags, its state
 * and its input buffers).
 *
 * The stimulus replays CPython's random.getrandbits(lanes) from the
 * Mersenne Twister state in mt[0..623], whose index is mt[624]; both are
 * written back.  Everything is allocated before the arena is touched: a
 * run that cannot allocate returns 1 with everything as it was.  A run
 * whose counter outgrows the planes given to it stops and returns 2; the
 * Python side sizes them so that it cannot.
 *
 * The host is little-endian (the Python side checks): a plane's words
 * are its bytes in lane order, as int.to_bytes(..., "little") packs them.
 * The plane loops take four words at a time over restrict pointers, a
 * form the -O2 vectorizer turns into SIMD, then the rest one by one.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t word;

#define MT_N 624
#define MT_M 397
#define PROB_BITS 16

enum { OP_AND, OP_OR, OP_XOR };

typedef struct {
    int width;          /* buffer planes; 0 for a pure event */
    word *buffer;       /* its first buffer plane, or NULL */
    int consumers;
    word **flag;        /* per consumer: the flag plane of this event */
    word **runnable;    /* per consumer: its runnable plane */
    int counter;        /* its environment counter when it has no consumer */
} Event;

typedef struct {
    const Event *event;
    int threshold;
    int bits;           /* value planes drawn */
    const int32_t *lo;  /* the value bias, one bit per buffer plane */
} Stimulus;

typedef struct {
    int flags, state, ops, results, outputs;
    word **param;       /* operand ~p -> its plane */
    word **dst, **a, **b; /* per op */
    const int32_t *tape;
    const int32_t *result;
    const int32_t *out; /* per output: its event */
} Machine;

typedef struct {
    word *planes;
    int count, cap;
    int32_t *count_at;  /* where the count goes back in the program */
} Counter;

typedef struct {
    int W, n32, tail_shift, machines, stimuli, overflow;
    uint32_t *mt;
    int mt_index;
    uint32_t *draw32;
    word *zero, *ones, *cursor, *runnable, *pick, *any, *carry, *hits;
    word *presence, *draws, *values, *temps, *snap;
    word **value_at, **res;
    Event *event;
    Stimulus *stimulus;
    Machine *machine;
    Counter *counter;
} Run;

/* -- CPython's Mersenne Twister ------------------------------------------ */

static uint32_t tempered(uint32_t y)
{
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    return y ^ (y >> 18);
}

/* The next word of the state: mt[k] from mt[k], mt[k + 1], mt[k + m]. */
#define MT_NEXT(k, k1, km)                                              \
    do {                                                                \
        uint32_t y_ = (mt[k] & 0x80000000u) | (mt[k1] & 0x7fffffffu);   \
        mt[k] = mt[km] ^ (y_ >> 1) ^ ((0u - (y_ & 1u)) & 0x9908b0dfu);  \
    } while (0)

static void mt_refill(uint32_t *mt)
{
    int kk, k;
    for (kk = 0; kk + 4 <= MT_N - MT_M; kk += 4)
        for (k = 0; k < 4; k++)
            MT_NEXT(kk + k, kk + k + 1, kk + k + MT_M);
    for (; kk < MT_N - MT_M; kk++)
        MT_NEXT(kk, kk + 1, kk + MT_M);
    for (; kk + 4 <= MT_N - 1; kk += 4)
        for (k = 0; k < 4; k++)
            MT_NEXT(kk + k, kk + k + 1, kk + k + (MT_M - MT_N));
    for (; kk < MT_N - 1; kk++)
        MT_NEXT(kk, kk + 1, kk + (MT_M - MT_N));
    MT_NEXT(MT_N - 1, 0, MT_M - 1);
}

static void temper(uint32_t *restrict out, const uint32_t *restrict mt,
                   int n)
{
    int i = 0, k;
    for (; i + 4 <= n; i += 4)
        for (k = 0; k < 4; k++)
            out[i + k] = tempered(mt[i + k]);
    for (; i < n; i++)
        out[i] = tempered(mt[i]);
}

/* One plane, as getrandbits(lanes) makes it: 32-bit words least
 * significant first, the last, partial one shifted right. */
static void draw_plane(Run *r, word *out)
{
    uint32_t *w32 = r->draw32, *mt = r->mt;
    int i = 0, idx = r->mt_index;
    while (i < r->n32) {
        int chunk;
        if (idx >= MT_N) {
            mt_refill(mt);
            idx = 0;
        }
        chunk = r->n32 - i < MT_N - idx ? r->n32 - i : MT_N - idx;
        temper(w32 + i, mt + idx, chunk);
        i += chunk;
        idx += chunk;
    }
    r->mt_index = idx;
    w32[r->n32 - 1] >>= r->tail_shift;
    memcpy(out, w32, (size_t)r->W * sizeof(word));
}

/* -- planes --------------------------------------------------------------- */

/* d = x op y, and the in-place forms the deliveries use. */
#define PLANE_LOOP(name, params, stmt)                                  \
    static void name params                                             \
    {                                                                   \
        int w0 = 0, k, w;                                               \
        for (; w0 + 4 <= W; w0 += 4)                                    \
            for (k = 0; k < 4; k++) {                                   \
                w = w0 + k;                                             \
                stmt;                                                   \
            }                                                           \
        for (w = w0; w < W; w++)                                        \
            stmt;                                                       \
    }

PLANE_LOOP(plane_and, (word *restrict d, const word *restrict x,
                       const word *restrict y, int W),
           d[w] = x[w] & y[w])
PLANE_LOOP(plane_or, (word *restrict d, const word *restrict x,
                      const word *restrict y, int W),
           d[w] = x[w] | y[w])
PLANE_LOOP(plane_xor, (word *restrict d, const word *restrict x,
                       const word *restrict y, int W),
           d[w] = x[w] ^ y[w])
PLANE_LOOP(plane_or_into, (word *restrict d, const word *restrict x, int W),
           d[w] |= x[w])
PLANE_LOOP(plane_andnot_into, (word *restrict d, const word *restrict x,
                               int W),
           d[w] &= ~x[w])
/* A counter plane plus the carry: p ^= carry, carry = old p & carry */
PLANE_LOOP(plane_ripple, (word *restrict p, word *restrict carry, int W),
           (p[w] ^= carry[w], carry[w] &= ~p[w]))
/* buf = presence ? v : buf */
PLANE_LOOP(plane_select_into, (word *restrict d, const word *restrict v,
                               const word *restrict c, int W),
           d[w] ^= (d[w] ^ v[w]) & c[w])
/* One set threshold bit of the presence compare: lt |= eq & ~p; eq &= p */
PLANE_LOOP(plane_less, (word *restrict lt, word *restrict eq,
                        const word *restrict p, int W),
           (lt[w] |= eq[w] & ~p[w], eq[w] &= p[w]))
/* One bit of the value bias: out = p ^ carry (^ ones), carry out */
PLANE_LOOP(plane_add0, (word *restrict out, word *restrict carry,
                        const word *restrict p, int W),
           (out[w] = p[w] ^ carry[w], carry[w] &= p[w]))
PLANE_LOOP(plane_add1, (word *restrict out, word *restrict carry,
                        const word *restrict p, const word *restrict ones,
                        int W),
           (out[w] = p[w] ^ carry[w] ^ ones[w], carry[w] |= p[w]))

static int nonzero(const Run *r, const word *p)
{
    word acc = 0;
    int w;
    for (w = 0; w < r->W; w++)
        acc |= p[w];
    return acc != 0;
}

/* LaneCounter.add: ripple `x` in, growing a plane exactly when a carry
 * is left past the top one. */
static void counter_add(Run *r, Counter *c, const word *x)
{
    word *carry = r->carry;
    int i, W = r->W;
    if (!nonzero(r, x))
        return;
    memcpy(carry, x, (size_t)W * sizeof(word));
    for (i = 0; i < c->count; i++) {
        plane_ripple(c->planes + (size_t)i * W, carry, W);
        if (!nonzero(r, carry))
            return;
    }
    if (c->count == c->cap) {
        r->overflow = 1;
        return;
    }
    memcpy(c->planes + (size_t)c->count * W, carry, (size_t)W * sizeof(word));
    c->count++;
}

/* FleetShard._deliver: latch the values, count the events lost on a
 * full 1-place buffer, set the consumers' flags and make them runnable. */
static void deliver(Run *r, const Event *e, const word *presence,
                    word *const *values)
{
    int b, i, W = r->W;
    for (b = 0; b < e->width; b++)
        plane_select_into(e->buffer + (size_t)b * W, values[b], presence, W);
    if (!e->consumers) {
        counter_add(r, &r->counter[e->counter], presence);
        return;
    }
    for (i = 0; i < e->consumers; i++) {
        plane_and(r->hits, presence, e->flag[i], W);
        counter_add(r, &r->counter[0], r->hits);
        plane_or_into(e->flag[i], presence, W);
        plane_or_into(e->runnable[i], presence, W);
    }
}

/* -- one step ------------------------------------------------------------- */

/* StimulusStream.step_planes and its injection: 16 draws compared with
 * the threshold, then the value draws plus the bias. */
static void inject(Run *r)
{
    int s, i, W = r->W;
    size_t bytes = (size_t)W * sizeof(word);
    for (s = 0; s < r->stimuli; s++) {
        const Stimulus *st = &r->stimulus[s];
        const Event *e = st->event;
        word *draws = r->draws, *presence = r->presence, *eq = r->hits;
        for (i = 0; i < PROB_BITS + st->bits; i++)
            draw_plane(r, draws + (size_t)i * W);
        if (st->threshold <= 0) {
            memset(presence, 0, bytes);
        } else if (st->threshold >= 1 << PROB_BITS) {
            memcpy(presence, r->ones, bytes);
        } else {
            memset(presence, 0, bytes);
            memcpy(eq, r->ones, bytes);
            for (i = PROB_BITS - 1; i >= 0; i--) {
                const word *p = draws + (size_t)i * W;
                if ((st->threshold >> i) & 1)
                    plane_less(presence, eq, p, W);
                else
                    plane_andnot_into(eq, p, W);
            }
        }
        if (e->width) {
            memset(r->carry, 0, bytes);
            for (i = 0; i < e->width; i++) {
                const word *p = i < st->bits
                                    ? draws + (size_t)(PROB_BITS + i) * W
                                    : r->zero;
                if (st->lo[i])
                    plane_add1(r->values + (size_t)i * W, r->carry, p,
                               r->ones, W);
                else
                    plane_add0(r->values + (size_t)i * W, r->carry, p, W);
            }
        }
        if (nonzero(r, presence))
            deliver(r, e, presence, r->value_at);
    }
}

/* The round-robin pick, lane by lane within each word: from its cursor,
 * each lane takes the first runnable machine.  Returns 0 when no lane
 * picks any, and the step ends there. */
static int pick(Run *r)
{
    int M = r->machines, W = r->W, w, c, j, off;
    word picked = 0;
    for (w = 0; w < W; w++) {
        word any = 0;
        for (j = 0; j < M; j++)
            r->pick[(size_t)j * W + w] = 0;
        for (c = 0; c < M; c++) {
            word prefix = r->cursor[(size_t)c * W + w];
            for (off = 0; off < M && prefix; off++) {
                word enabled;
                j = c + off < M ? c + off : c + off - M;
                enabled = r->runnable[(size_t)j * W + w];
                r->pick[(size_t)j * W + w] |= prefix & enabled;
                prefix &= ~enabled;
            }
        }
        for (j = 0; j < M; j++)
            any |= r->pick[(size_t)j * W + w];
        r->any[w] = any;
        picked |= any;
    }
    if (!picked)
        return 0;
    for (w = 0; w < W; w++) {
        word idle = ~r->any[w];
        for (j = M - 1; j >= 0; j--) {
            word before = j ? r->pick[(size_t)(j - 1) * W + w]
                            : r->pick[(size_t)(M - 1) * W + w];
            r->cursor[(size_t)j * W + w] =
                (r->cursor[(size_t)j * W + w] & idle) | before;
        }
        for (j = 0; j < M; j++)
            r->runnable[(size_t)j * W + w] &= ~r->pick[(size_t)j * W + w];
    }
    counter_add(r, &r->counter[1], r->any);
    return 1;
}

/* One machine's kernel over the lanes it was picked in, then its state
 * and flags written back, then its emissions delivered in order. */
static void react(Run *r, const Machine *m)
{
    int W = r->W, i, at;
    size_t bytes = (size_t)W * sizeof(word);
    for (i = 0; i < m->ops; i++) {
        switch (m->tape[4 * i]) {
        case OP_AND:
            plane_and(m->dst[i], m->a[i], m->b[i], W);
            break;
        case OP_OR:
            plane_or(m->dst[i], m->a[i], m->b[i], W);
            break;
        default:
            plane_xor(m->dst[i], m->a[i], m->b[i], W);
            break;
        }
    }
    /* The results as the kernel returned them: a flag, state or buffer
     * plane is copied first, as the write-back or a delivery may change
     * it. */
    for (i = 0; i < m->results; i++) {
        int x = m->result[i];
        if (x >= 0) {
            r->res[i] = r->temps + (size_t)x * W;
        } else if (~x < 3) {
            r->res[i] = m->param[~x];
        } else {
            r->res[i] = r->snap + (size_t)i * W;
            memcpy(r->res[i], m->param[~x], bytes);
        }
    }
    for (i = 0; i < m->state; i++)
        memcpy(m->param[3 + m->flags + i], r->res[1 + i], bytes);
    for (i = 0; i < m->flags; i++)
        memcpy(m->param[3 + i], r->res[1 + m->state + i], bytes);
    at = 1 + m->state + m->flags;
    for (i = 0; i < m->outputs; i++) {
        const Event *e = &r->event[m->out[i]];
        const word *emit = r->res[at];
        word *const *values = r->res + at + 1;
        at += 1 + e->width;
        if (nonzero(r, emit))
            deliver(r, e, emit, values);
    }
}

/* -- the program ---------------------------------------------------------- */

typedef struct {
    int events, consumers, stimuli, machines, counters;
    int params, ops, max_ops, max_results, max_draws, max_width;
} Sizes;

static word *plane_at(word *arena, int at, int W)
{
    return arena + (size_t)at * W;
}

/* Walks the program; with `r` set, fills the run's tables too. */
static void walk(const int32_t *prog, Sizes *z, Run *r, word *arena,
                 word **ptrs)
{
    const int32_t *p = prog + 5;
    int W = r ? r->W : 0, i, j, k;
    memset(z, 0, sizeof(*z));
    z->machines = prog[1];
    z->events = prog[2];
    z->stimuli = prog[3];
    z->counters = prog[4];
    if (r) {
        r->cursor = plane_at(arena, p[0], W);
        r->runnable = plane_at(arena, p[1], W);
    }
    p += 2;
    for (i = 0; i < z->counters; i++, p += 3) {
        if (r) {
            Counter *c = &r->counter[i];
            c->planes = plane_at(arena, p[0], W);
            c->cap = p[1];
            c->count = p[2];
            c->count_at = (int32_t *)p + 2;
        }
    }
    for (i = 0; i < z->events; i++) {
        int width = p[0], consumers = p[2];
        if (width > z->max_width)
            z->max_width = width;
        if (r) {
            Event *e = &r->event[i];
            e->width = width;
            e->buffer = width ? plane_at(arena, p[1], W) : NULL;
            e->consumers = consumers;
            e->flag = ptrs;
            e->runnable = ptrs + consumers;
            for (k = 0; k < consumers; k++) {
                e->runnable[k] = r->runnable + (size_t)p[3 + 2 * k] * W;
                e->flag[k] = plane_at(arena, p[4 + 2 * k], W);
            }
            e->counter = p[3 + 2 * consumers];
            ptrs += 2 * consumers;
        }
        z->consumers += consumers;
        p += 4 + 2 * consumers;
    }
    for (i = 0; i < z->stimuli; i++) {
        if (p[2] > z->max_draws)
            z->max_draws = p[2];
        if (r) {
            Stimulus *s = &r->stimulus[i];
            s->event = &r->event[p[0]];
            s->threshold = p[1];
            s->bits = p[2];
            s->lo = p + 4;
        }
        p += 4 + p[3];
    }
    for (j = 0; j < z->machines; j++) {
        int flags = p[0], state = p[1], params = p[2];
        const int32_t *at = p + 3;
        int ops, results, outputs;
        p = at + params;
        ops = p[0];
        results = p[1];
        outputs = p[2];
        if (r) {
            Machine *m = &r->machine[j];
            m->flags = flags;
            m->state = state;
            m->ops = ops;
            m->results = results;
            m->outputs = outputs;
            m->out = p + 3;
            m->tape = p + 3 + outputs;
            m->result = m->tape + 4 * ops;
            m->param = ptrs;
            m->dst = ptrs + 3 + params;
            m->a = m->dst + ops;
            m->b = m->a + ops;
            ptrs = m->b + ops;
            m->param[0] = r->zero;
            m->param[1] = r->ones;
            m->param[2] = r->pick + (size_t)j * W;
            for (k = 0; k < params; k++)
                m->param[3 + k] = plane_at(arena, at[k], W);
            for (k = 0; k < ops; k++) {
                int x = m->tape[4 * k + 2], y = m->tape[4 * k + 3];
                m->dst[k] = r->temps + (size_t)k * W;
                m->a[k] = x >= 0 ? r->temps + (size_t)x * W : m->param[~x];
                m->b[k] = y >= 0 ? r->temps + (size_t)y * W : m->param[~y];
            }
        }
        z->params += 3 + params;
        z->ops += ops;
        if (ops > z->max_ops)
            z->max_ops = ops;
        if (results > z->max_results)
            z->max_results = results;
        p += 3 + outputs + 4 * ops + results;
    }
}

int fr_run(int32_t *prog, word *arena, uint32_t *mt, int steps)
{
    Run run, *r = &run;
    Sizes z;
    size_t W, planes, pointers, i;
    word *block;
    word **ptrs;
    int lanes = prog[0], s, j, status = 0;

    memset(r, 0, sizeof(*r));
    walk(prog, &z, NULL, NULL, NULL);
    W = (size_t)(lanes + 63) / 64;
    r->W = (int)W;
    r->n32 = (lanes + 31) / 32;
    r->tail_shift = (32 - lanes % 32) % 32;
    r->machines = z.machines;
    r->stimuli = z.stimuli;
    /* zero, ones, any, carry, hits, presence; picks; draws; values;
     * kernel temporaries; result copies. */
    planes = 6 + (size_t)z.machines + PROB_BITS + (size_t)z.max_draws
             + (size_t)z.max_width + (size_t)z.max_ops
             + (size_t)z.max_results;
    pointers = (size_t)z.max_width + (size_t)z.max_results
               + 2 * (size_t)z.consumers + (size_t)z.params
               + 3 * (size_t)z.ops;
    /* Each table gets one spare entry: malloc(0) may return NULL. */
    block = malloc(planes * W * sizeof(word));
    ptrs = malloc((pointers + 1) * sizeof(word *));
    r->draw32 = malloc((2 * W) * sizeof(uint32_t));
    r->event = malloc(((size_t)z.events + 1) * sizeof(Event));
    r->stimulus = malloc(((size_t)z.stimuli + 1) * sizeof(Stimulus));
    r->machine = malloc(((size_t)z.machines + 1) * sizeof(Machine));
    r->counter = malloc(((size_t)z.counters + 1) * sizeof(Counter));
    if (!block || !ptrs || !r->draw32 || !r->event || !r->stimulus
        || !r->machine || !r->counter) {
        status = 1;
        goto done;
    }
    memset(block, 0, planes * W * sizeof(word));
    r->zero = block;
    r->ones = block + W;
    r->any = block + 2 * W;
    r->carry = block + 3 * W;
    r->hits = block + 4 * W;
    r->presence = block + 5 * W;
    r->pick = block + 6 * W;
    r->draws = r->pick + (size_t)z.machines * W;
    r->values = r->draws + (PROB_BITS + (size_t)z.max_draws) * W;
    r->temps = r->values + (size_t)z.max_width * W;
    r->snap = r->temps + (size_t)z.max_ops * W;
    for (i = 0; i < W; i++)
        r->ones[i] = ~(word)0;
    if (lanes % 64)
        r->ones[W - 1] = ((word)1 << (lanes % 64)) - 1;
    r->draw32[2 * W - 1] = 0;
    r->value_at = ptrs;
    for (i = 0; i < (size_t)z.max_width; i++)
        r->value_at[i] = r->values + i * W;
    r->res = ptrs + z.max_width;
    walk(prog, &z, r, arena, r->res + z.max_results);
    r->mt = mt;
    r->mt_index = (int)mt[MT_N];

    for (s = 0; s < steps && !r->overflow; s++) {
        inject(r);
        if (!pick(r))
            continue;
        for (j = 0; j < r->machines; j++)
            if (nonzero(r, r->pick + (size_t)j * W))
                react(r, &r->machine[j]);
    }
    if (r->overflow) {
        status = 2;
        goto done;
    }
    mt[MT_N] = (uint32_t)r->mt_index;
    for (j = 0; j < z.counters; j++)
        *r->counter[j].count_at = r->counter[j].count;
done:
    free(block);
    free(ptrs);
    free(r->draw32);
    free(r->event);
    free(r->stimulus);
    free(r->machine);
    free(r->counter);
    return status;
}
