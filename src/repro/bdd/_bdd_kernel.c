/*
 * The native BDD kernel under repro.bdd.BddManager (repro.bdd.kernel).
 *
 * It is the node store and the hot operations of repro.bdd.manager in C,
 * in the same canonical form and with the same work counters.  Edges are
 * (slot << 1) | complement, slot 0 is the terminal, TRUE is edge 0 and
 * FALSE edge 1, and the complement bit is never on a then-edge.  Each
 * variable has a chained unique subtable threaded through next[].
 *
 * Liveness is reference-counted as in the Python manager: a node whose
 * count drops to zero is flagged dead and stays allocated (and
 * resurrectable) until collect, or a structural swap, sweeps it; slots a
 * sweep frees are quarantined until collect purges the operation caches
 * of them, so a cache hit on a quarantined slot reads as a miss.  The
 * ITE, restrict and quantification caches are lossless hash tables, like
 * the Python manager's dicts: an entry only leaves one by a purge or by a
 * wholesale clear when a table grows past the cache limit.
 *
 * Python keeps the handles.  Their reference changes reach the kernel as
 * a queue of edges (an edge to acquire, ~edge to release) that every
 * call that frees nodes or reads reference counts applies first, in
 * order.  The level maps are the kernel's; calls that move variables copy
 * them out to the caller's arrays.
 *
 * Every call that allocates returns -1 (or NULL) when memory runs out;
 * the store is then still valid: nodes built so far are unreferenced
 * newborns that the next collect frees, and a cache entry that did not
 * fit is simply missing.
 */

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TERMINAL_VAR (-1)
#define TRUE_ID 0
#define FALSE_ID 1
#define INITIAL_BUCKETS 8
#define INITIAL_SLOTS 64
#define INITIAL_ENTRIES 64

/* Work counters, in the order of BddManager.counters() minus the live and
 * dead counts, which are fields. */
enum {
    C_SWAPS, C_SKIPS, C_COLLECTS, C_FREED, C_PEAK,
    C_ITE_HITS, C_ITE_MISSES, C_RESTRICT_HITS, C_RESTRICT_MISSES,
    C_QUANT_HITS, C_QUANT_MISSES, C_RESETS, NCOUNTERS
};

/* An operation-cache entry: key (a, b, c), result r.  a is an edge >= 2
 * in every table, so a == 0 marks an empty entry and a == 1 a removed
 * one. */
typedef struct {
    int a, b, c, r;
} Entry;

typedef struct {
    Entry *e;
    unsigned cap;  /* a power of two, or 0 before the first insert */
    unsigned used; /* entries held: the Python dict's len() */
    unsigned tomb; /* removed entries still occupying a place */
} Table;

typedef struct {
    int nvars, var_cap;
    int slots; /* slots ever used, the terminal included */
    int cap;   /* length of the node arrays */
    int *var, *lo, *hi, *ref, *next;
    int *dpos;  /* per slot: 1 + its index in dl when dead, else 0 */
    int *dl;    /* the dead slots */
    int ndead;
    int *fr;    /* slots free for reuse (popped from the end) */
    int nfree;
    int *pend;  /* slots freed since the last collect (quarantined) */
    int npend;
    unsigned char *flag; /* per slot: scratch for purges and checks */
    int *stack; /* 2 * cap: walks and the death/resurrection cascades */
    int *work;  /* 3 * cap: a swap's moved nodes and their old children */
    unsigned *mark; /* per edge (2 * cap): walk generation */
    unsigned gen;
    int **buckets;
    int *nb;      /* per variable: buckets in use (a power of two) */
    int *bcap;    /* per variable: length of its bucket array */
    int *count;   /* per variable: nodes in its subtable */
    int *dead_of; /* per variable: dead nodes in its subtable */
    int *level_of, *var_at;
    unsigned char *vseen; /* 2 * var_cap: scratch for supports, then an
                             evaluation's values */
    int allocated, live, dead;
    long long cnt[NCOUNTERS];
    long long limit;
    Table ite, res, quant;
} K;

/* ------------------------------------------------------------------ */
/* Operation caches                                                   */
/* ------------------------------------------------------------------ */

static unsigned thash(int a, int b, int c)
{
    uint32_t h = (uint32_t)a * 0x9E3779B1u;
    h ^= (uint32_t)b * 0x85EBCA77u + (h >> 13);
    h ^= (uint32_t)c * 0xC2B2AE3Du + (h >> 16);
    h ^= h >> 15;
    h *= 0x2C1B3C6Du;
    h ^= h >> 12;
    return h;
}

static Entry *tfind(const Table *t, int a, int b, int c)
{
    unsigned i, mask;
    if (!t->cap)
        return NULL;
    mask = t->cap - 1;
    for (i = thash(a, b, c) & mask;; i = (i + 1) & mask) {
        Entry *e = &t->e[i];
        if (!e->a)
            return NULL;
        if (e->a == a && e->b == b && e->c == c)
            return e;
    }
}

/* Re-place every entry in a table sized for one more, dropping removed
 * ones.  -1, with the table unchanged, when out of memory. */
static int trehash(Table *t)
{
    unsigned cap = t->cap > INITIAL_ENTRIES ? t->cap : INITIAL_ENTRIES, i;
    Entry *e;
    while ((t->used + 1) * 4 > cap)
        cap *= 2;
    if (!(e = calloc(cap, sizeof *e)))
        return -1;
    for (i = 0; i < t->cap; i++) {
        Entry *old = &t->e[i];
        unsigned j;
        if (old->a < 2)
            continue;
        for (j = thash(old->a, old->b, old->c) & (cap - 1); e[j].a;
             j = (j + 1) & (cap - 1))
            ;
        e[j] = *old;
    }
    free(t->e);
    t->e = e;
    t->cap = cap;
    t->tomb = 0;
    return 0;
}

static int tput(Table *t, int a, int b, int c, int r)
{
    unsigned i, mask;
    Entry *e, *slot = NULL;
    if ((t->used + t->tomb + 1) * 2 > t->cap && trehash(t))
        return -1;
    mask = t->cap - 1;
    for (i = thash(a, b, c) & mask;; i = (i + 1) & mask) {
        e = &t->e[i];
        if (!e->a)
            break;
        if (e->a == 1) {
            if (!slot)
                slot = e;
        } else if (e->a == a && e->b == b && e->c == c) {
            e->r = r;
            return 0;
        }
    }
    if (slot) {
        e = slot;
        t->tomb--;
    }
    e->a = a;
    e->b = b;
    e->c = c;
    e->r = r;
    t->used++;
    return 0;
}

static void tclear(Table *t)
{
    if (t->used || t->tomb)
        memset(t->e, 0, t->cap * sizeof *t->e);
    t->used = t->tomb = 0;
}

/* Remove the entries naming a flagged slot.  Field b is a packed
 * (variable, value) pair in the restrict table (check_b 0); a negative c
 * names no slot. */
static void tpurge(Table *t, const unsigned char *flag, int check_b)
{
    unsigned i;
    for (i = 0; i < t->cap; i++) {
        Entry *e = &t->e[i];
        if (e->a < 2)
            continue;
        if (flag[e->a >> 1] || flag[e->r >> 1] ||
            (check_b && flag[e->b >> 1]) || (e->c >= 0 && flag[e->c >> 1])) {
            e->a = 1;
            t->used--;
            t->tomb++;
        }
    }
}

/* After an insert: a table past the limit is cleared wholesale. */
static void tlimit(K *k, Table *t)
{
    if ((long long)t->used > k->limit) {
        tclear(t);
        k->cnt[C_RESETS]++;
    }
}

/* ------------------------------------------------------------------ */
/* Node store                                                         */
/* ------------------------------------------------------------------ */

/* Make the node arrays hold `need` more slots than are in use. */
static int reserve(K *k, int need)
{
    size_t want = (size_t)k->slots + (size_t)need, cap;
    void *p;
    if (want <= (size_t)k->cap)
        return 0;
    cap = k->cap ? (size_t)k->cap : INITIAL_SLOTS;
    while (cap < want)
        cap *= 2;
    if (cap > INT_MAX / 4)
        return -1;
#define GROW(field, len)                                          \
    if (!(p = realloc(k->field, (len) * sizeof *k->field)))        \
        return -1;                                                 \
    k->field = p;
    GROW(var, cap) GROW(lo, cap) GROW(hi, cap) GROW(ref, cap)
    GROW(next, cap) GROW(dpos, cap) GROW(dl, cap) GROW(fr, cap)
    GROW(pend, cap) GROW(flag, cap) GROW(stack, 2 * cap)
    GROW(work, 3 * cap) GROW(mark, 2 * cap)
#undef GROW
    memset(k->flag + k->cap, 0, cap - (size_t)k->cap);
    memset(k->mark + 2 * (size_t)k->cap, 0,
           2 * (cap - (size_t)k->cap) * sizeof *k->mark);
    k->cap = (int)cap;
    return 0;
}

static unsigned nhash(int lo, int hi)
{
    return ((unsigned)lo * 0x9E3779B1u) ^ ((unsigned)hi * 0x45D9F3Bu);
}

static int *bucket(K *k, int v, int lo, int hi)
{
    return &k->buckets[v][nhash(lo, hi) & (unsigned)(k->nb[v] - 1)];
}

/* Remove n from its variable's chain (its count is the caller's). */
static void unchain(K *k, int n)
{
    int *b = bucket(k, k->var[n], k->lo[n], k->hi[n]);
    while (*b != n)
        b = &k->next[*b];
    *b = k->next[n];
}

/* Rehash v's subtable into `size` buckets.  Chains only lengthen when the
 * memory is short, so a failure to grow is harmless. */
static void resize_subtable(K *k, int v, int size)
{
    int old = k->nb[v], i, n, follow, all = 0, *b = k->buckets[v];
    if (size == old)
        return;
    if (size > k->bcap[v]) {
        if (!(b = realloc(b, (size_t)size * sizeof *b)))
            return;
        k->buckets[v] = b;
        k->bcap[v] = size;
    }
    /* Gather every chain into one list, then relink its nodes. */
    for (i = 0; i < old; i++)
        for (n = b[i]; n; n = follow) {
            follow = k->next[n];
            k->next[n] = all;
            all = n;
        }
    memset(b, 0, (size_t)size * sizeof *b);
    k->nb[v] = size;
    for (n = all; n; n = follow) {
        int *h = bucket(k, v, k->lo[n], k->hi[n]);
        follow = k->next[n];
        k->next[n] = *h;
        *h = n;
    }
}

static void grow_subtable(K *k, int v)
{
    int size = k->nb[v];
    while (k->count[v] > 2 * size)
        size *= 2;
    resize_subtable(k, v, size);
}

static void set_dead(K *k, int n)
{
    k->dl[k->ndead++] = n;
    k->dpos[n] = k->ndead;
    k->dead_of[k->var[n]]++;
    k->dead++;
    k->live--;
}

static void clear_dead(K *k, int n)
{
    int i = k->dpos[n] - 1, last = k->dl[--k->ndead];
    k->dl[i] = last;
    k->dpos[last] = i + 1;
    k->dpos[n] = 0;
    k->dead_of[k->var[n]]--;
    k->dead--;
    k->live++;
}

/* Slot n (ref 0, children held) leaves the live set; orphans follow. */
static void kill(K *k, int n)
{
    int top = 0;
    set_dead(k, n);
    k->stack[top++] = n;
    while (top) {
        int m = k->stack[--top], c, j;
        for (j = 0; j < 2; j++) {
            c = (j ? k->hi[m] : k->lo[m]) >> 1;
            if (c && !--k->ref[c]) {
                set_dead(k, c);
                k->stack[top++] = c;
            }
        }
    }
}

/* Dead slot n comes back and re-acquires its children; dead descendants
 * reached through them come back too. */
static void resurrect(K *k, int n)
{
    int top = 0;
    clear_dead(k, n);
    k->stack[top++] = n;
    while (top) {
        int m = k->stack[--top], c, j;
        for (j = 0; j < 2; j++) {
            c = (j ? k->hi[m] : k->lo[m]) >> 1;
            if (!c)
                continue;
            if (!k->ref[c] && k->dpos[c]) {
                clear_dead(k, c);
                k->stack[top++] = c;
            }
            k->ref[c]++;
        }
    }
}

static void incref(K *k, int e)
{
    int n = e >> 1;
    if (!n)
        return;
    if (!k->ref[n] && k->dpos[n])
        resurrect(k, n);
    k->ref[n]++;
}

static void decref(K *k, int e)
{
    int n = e >> 1;
    if (n && !--k->ref[n])
        kill(k, n);
}

/* Apply the handles' queued reference changes, in order. */
static void apply(K *k, const int *q, int nq)
{
    int i;
    for (i = 0; i < nq; i++) {
        if (q[i] >= 0)
            incref(k, q[i]);
        else
            decref(k, ~q[i]);
    }
}

static int lvl(const K *k, int e)
{
    return (e >> 1) ? k->level_of[k->var[e >> 1]] : k->nvars;
}

static int stale(const K *k, int e)
{
    return (e >> 1) && k->var[e >> 1] == TERMINAL_VAR;
}

/* Find or create the reduced node (v, lo, hi).  A found node may be dead
 * (the caller's reference resurrects it); a created one is a newborn
 * with ref 0 that holds its children. */
static int mk(K *k, int v, int lo, int hi)
{
    int c, n, *b;
    if (lo == hi)
        return lo;
    c = hi & 1;
    lo ^= c;
    hi ^= c;
    b = bucket(k, v, lo, hi);
    for (n = *b; n; n = k->next[n])
        if (k->lo[n] == lo && k->hi[n] == hi)
            return (n << 1) | c;
    if (k->nfree) {
        n = k->fr[--k->nfree];
    } else {
        if (reserve(k, 1))
            return -1;
        n = k->slots++;
    }
    k->var[n] = v;
    k->lo[n] = lo;
    k->hi[n] = hi;
    k->ref[n] = 0;
    k->dpos[n] = 0;
    incref(k, lo);
    incref(k, hi);
    b = bucket(k, v, lo, hi);
    k->next[n] = *b;
    *b = n;
    k->count[v]++;
    k->allocated++;
    k->live++;
    if (k->allocated > k->cnt[C_PEAK])
        k->cnt[C_PEAK] = k->allocated;
    if (k->count[v] > 2 * k->nb[v])
        grow_subtable(k, v);
    return (n << 1) | c;
}

/* ------------------------------------------------------------------ */
/* ITE and the operations on it                                       */
/* ------------------------------------------------------------------ */

static int ite_rec(K *k, int f, int g, int h)
{
    int fl, gl, hl, neg, level, t, f0, f1, g0, g1, h0, h1, r0, r1, r;
    Entry *e;
    if (f < 2)
        return f == TRUE_ID ? g : h;
    if (g == h)
        return g;
    if (g == f)
        g = TRUE_ID;
    else if (g == (f ^ 1))
        g = FALSE_ID;
    if (h == f)
        h = FALSE_ID;
    else if (h == (f ^ 1))
        h = TRUE_ID;
    if (g == h)
        return g;
    if (g == TRUE_ID && h == FALSE_ID)
        return f;
    if (g == FALSE_ID && h == TRUE_ID)
        return f ^ 1;
    fl = lvl(k, f);
    /* Standard triples: both argument orders share one entry. */
    if (g == TRUE_ID) { /* OR(f, h) */
        hl = lvl(k, h);
        if (hl < fl || (hl == fl && h < f)) {
            t = f; f = h; h = t; fl = hl;
        }
    } else if (h == FALSE_ID) { /* AND(f, g) */
        gl = lvl(k, g);
        if (gl < fl || (gl == fl && g < f)) {
            t = f; f = g; g = t; fl = gl;
        }
    } else if (h == TRUE_ID) { /* ITE(f, g, 1) == ITE(~g, ~f, 1) */
        gl = lvl(k, g);
        if (gl < fl || (gl == fl && (g ^ 1) < f)) {
            t = f; f = g ^ 1; g = t ^ 1; fl = gl;
        }
    } else if (g == FALSE_ID) { /* ITE(f, 0, h) == ITE(~h, 0, ~f) */
        hl = lvl(k, h);
        if (hl < fl || (hl == fl && (h ^ 1) < f)) {
            t = f; f = h ^ 1; h = t ^ 1; fl = hl;
        }
    } else if (h == (g ^ 1)) { /* XOR: ITE(f, g, ~g) == ITE(g, f, ~f) */
        gl = lvl(k, g);
        if (gl < fl || (gl == fl && (g >> 1) < (f >> 1))) {
            t = f; f = g; g = t; h = t ^ 1; fl = gl;
        }
    }
    /* Main operand regular (swap branches), then-operand regular (negate
     * the triple, restored on the way out). */
    if (f & 1) {
        f ^= 1;
        t = g; g = h; h = t;
    }
    neg = g & 1;
    if (neg) {
        g ^= 1;
        h ^= 1;
    }
    e = tfind(&k->ite, f, g, h);
    if (e && !stale(k, e->r)) {
        k->cnt[C_ITE_HITS]++;
        return e->r ^ neg;
    }
    k->cnt[C_ITE_MISSES]++;
    gl = lvl(k, g);
    hl = lvl(k, h);
    level = fl;
    if (gl < level)
        level = gl;
    if (hl < level)
        level = hl;
    if (fl == level) {
        f0 = k->lo[f >> 1];
        f1 = k->hi[f >> 1];
    } else {
        f0 = f1 = f;
    }
    if (gl == level) {
        g0 = k->lo[g >> 1];
        g1 = k->hi[g >> 1];
    } else {
        g0 = g1 = g;
    }
    if (hl == level) {
        h0 = k->lo[h >> 1] ^ (h & 1);
        h1 = k->hi[h >> 1] ^ (h & 1);
    } else {
        h0 = h1 = h;
    }
    if ((r0 = ite_rec(k, f0, g0, h0)) < 0 || (r1 = ite_rec(k, f1, g1, h1)) < 0)
        return -1;
    if ((r = mk(k, k->var_at[level], r0, r1)) < 0 || tput(&k->ite, f, g, h, r))
        return -1;
    return r ^ neg;
}

/* A top-level ITE: the table is cleared when it ends past the limit. */
static int ite(K *k, int f, int g, int h)
{
    int r = ite_rec(k, f, g, h);
    if ((long long)k->ite.used > k->limit) {
        tclear(&k->ite);
        k->cnt[C_RESETS]++;
    }
    return r;
}

static int restrict_(K *k, int e, int v, int value)
{
    int n = e >> 1, level, target, c, key, r0, r1, r;
    Entry *hit;
    if (!n)
        return e;
    level = k->level_of[k->var[n]];
    target = k->level_of[v];
    if (level > target)
        return e;
    c = e & 1;
    if (level == target)
        return (value ? k->hi[n] : k->lo[n]) ^ c;
    /* Keyed on the regular edge: restrict(~f) == ~restrict(f). */
    key = (v << 1) | value;
    hit = tfind(&k->res, n << 1, key, 0);
    if (hit && !stale(k, hit->r)) {
        k->cnt[C_RESTRICT_HITS]++;
        return hit->r ^ c;
    }
    k->cnt[C_RESTRICT_MISSES]++;
    if ((r0 = restrict_(k, k->lo[n], v, value)) < 0 ||
        (r1 = restrict_(k, k->hi[n], v, value)) < 0 ||
        (r = mk(k, k->var[n], r0, r1)) < 0 || tput(&k->res, n << 1, key, 0, r))
        return -1;
    tlimit(k, &k->res);
    return r ^ c;
}

/* Existential quantification of the positive cube `cube` out of e; it
 * shares the quantification table with and_exists (c == -1 here). */
static int exists_(K *k, int e, int cube)
{
    int nl, n, c, rest, r0, r1, r;
    Entry *hit;
    if (e < 2 || cube == TRUE_ID)
        return e;
    nl = lvl(k, e);
    while (cube && lvl(k, cube) < nl)
        cube = k->hi[cube >> 1];
    if (!cube)
        return e;
    hit = tfind(&k->quant, e, cube, -1);
    if (hit && !stale(k, hit->r)) {
        k->cnt[C_QUANT_HITS]++;
        return hit->r;
    }
    k->cnt[C_QUANT_MISSES]++;
    n = e >> 1;
    c = e & 1;
    if (lvl(k, cube) == nl) {
        rest = k->hi[cube >> 1];
        if ((r0 = exists_(k, k->lo[n] ^ c, rest)) < 0)
            return -1;
        if (r0 == TRUE_ID)
            r = TRUE_ID;
        else if ((r1 = exists_(k, k->hi[n] ^ c, rest)) < 0 ||
                 (r = ite(k, r0, TRUE_ID, r1)) < 0)
            return -1;
    } else if ((r0 = exists_(k, k->lo[n] ^ c, cube)) < 0 ||
               (r1 = exists_(k, k->hi[n] ^ c, cube)) < 0 ||
               (r = mk(k, k->var[n], r0, r1)) < 0) {
        return -1;
    }
    if (tput(&k->quant, e, cube, -1, r))
        return -1;
    tlimit(k, &k->quant);
    return r;
}

static int and_exists_(K *k, int f, int g, int cube)
{
    int fl, gl, top, t, f0, f1, g0, g1, rest, r0, r1, r;
    Entry *hit;
    if (f == FALSE_ID || g == FALSE_ID || g == (f ^ 1))
        return FALSE_ID;
    if (f == TRUE_ID)
        return exists_(k, g, cube);
    if (g == TRUE_ID || f == g)
        return exists_(k, f, cube);
    if (g < f) {
        t = f; f = g; g = t;
    }
    fl = lvl(k, f);
    gl = lvl(k, g);
    top = fl < gl ? fl : gl;
    while (cube && lvl(k, cube) < top)
        cube = k->hi[cube >> 1];
    if (!cube)
        return ite(k, f, g, FALSE_ID);
    hit = tfind(&k->quant, f, g, cube);
    if (hit && !stale(k, hit->r)) {
        k->cnt[C_QUANT_HITS]++;
        return hit->r;
    }
    k->cnt[C_QUANT_MISSES]++;
    if (fl == top) {
        f0 = k->lo[f >> 1] ^ (f & 1);
        f1 = k->hi[f >> 1] ^ (f & 1);
    } else {
        f0 = f1 = f;
    }
    if (gl == top) {
        g0 = k->lo[g >> 1] ^ (g & 1);
        g1 = k->hi[g >> 1] ^ (g & 1);
    } else {
        g0 = g1 = g;
    }
    if (lvl(k, cube) == top) {
        rest = k->hi[cube >> 1];
        if ((r0 = and_exists_(k, f0, g0, rest)) < 0)
            return -1;
        if (r0 == TRUE_ID)
            r = TRUE_ID;
        else if ((r1 = and_exists_(k, f1, g1, rest)) < 0 ||
                 (r = ite(k, r0, TRUE_ID, r1)) < 0)
            return -1;
    } else if ((r0 = and_exists_(k, f0, g0, cube)) < 0 ||
               (r1 = and_exists_(k, f1, g1, cube)) < 0 ||
               (r = mk(k, k->var_at[top], r0, r1)) < 0) {
        return -1;
    }
    if (tput(&k->quant, f, g, cube, r))
        return -1;
    tlimit(k, &k->quant);
    return r;
}

/* ------------------------------------------------------------------ */
/* The store's life                                                   */
/* ------------------------------------------------------------------ */

void bk_free(K *k)
{
    int v;
    if (!k)
        return;
    if (k->buckets)
        for (v = 0; v < k->nvars; v++)
            free(k->buckets[v]);
    free(k->buckets);
    free(k->nb);
    free(k->bcap);
    free(k->count);
    free(k->dead_of);
    free(k->level_of);
    free(k->var_at);
    free(k->vseen);
    free(k->var);
    free(k->lo);
    free(k->hi);
    free(k->ref);
    free(k->next);
    free(k->dpos);
    free(k->dl);
    free(k->fr);
    free(k->pend);
    free(k->flag);
    free(k->stack);
    free(k->work);
    free(k->mark);
    free(k->ite.e);
    free(k->res.e);
    free(k->quant.e);
    free(k);
}

K *bk_new(long long limit)
{
    K *k = calloc(1, sizeof *k);
    if (!k || reserve(k, 1)) {
        bk_free(k);
        return NULL;
    }
    k->limit = limit;
    k->var[0] = TERMINAL_VAR;
    k->lo[0] = k->hi[0] = k->next[0] = k->dpos[0] = 0;
    k->ref[0] = 1;
    k->slots = 1;
    return k;
}

void bk_set_limit(K *k, long long limit)
{
    k->limit = limit;
}

/* Declare n variables at the bottom of the order; the first one's id, or
 * -1 when out of memory. */
int bk_add_vars(K *k, int n)
{
    int want = k->nvars + n, v;
    if (want > k->var_cap) {
        size_t cap = k->var_cap ? (size_t)k->var_cap : 16;
        void *p;
        while (cap < (size_t)want)
            cap *= 2;
#define GROW(field)                                                      \
        if (!(p = realloc(k->field, cap * sizeof *k->field)))            \
            return -1;                                                   \
        k->field = p;
        GROW(buckets) GROW(nb) GROW(bcap) GROW(count) GROW(dead_of)
        GROW(level_of) GROW(var_at)
#undef GROW
        /* Two halves: the support walk's flags, an evaluation's values. */
        if (!(p = realloc(k->vseen, 2 * cap)))
            return -1;
        k->vseen = p;
        memset(k->vseen, 0, 2 * cap);
        k->var_cap = (int)cap;
    }
    for (v = k->nvars; v < want; v++)
        if (!(k->buckets[v] = calloc(INITIAL_BUCKETS, sizeof(int)))) {
            while (v-- > k->nvars)
                free(k->buckets[v]);
            return -1;
        }
    for (v = k->nvars; v < want; v++) {
        k->nb[v] = k->bcap[v] = INITIAL_BUCKETS;
        k->count[v] = k->dead_of[v] = 0;
        k->level_of[v] = k->var_at[v] = v;
    }
    v = k->nvars;
    k->nvars = want;
    return v;
}

/* ------------------------------------------------------------------ */
/* Whole operations                                                   */
/* ------------------------------------------------------------------ */

int bk_mk(K *k, int v, int lo, int hi)
{
    return mk(k, v, lo, hi);
}

int bk_ite(K *k, int f, int g, int h)
{
    return ite(k, f, g, h);
}

/* AND (op 0) or OR (op 1) of ids[0 .. n), n >= 1, as balanced pairwise
 * rounds; ids is overwritten. */
int bk_fold(K *k, int *ids, int n, int op)
{
    while (n > 1) {
        int m = 0, i, r;
        for (i = 0; i + 1 < n; i += 2) {
            r = op ? ite(k, ids[i], TRUE_ID, ids[i + 1])
                   : ite(k, ids[i], ids[i + 1], FALSE_ID);
            if (r < 0)
                return -1;
            ids[m++] = r;
        }
        if (n & 1)
            ids[m++] = ids[n - 1];
        n = m;
    }
    return ids[0];
}

int bk_restrict(K *k, int e, int v, int value)
{
    return restrict_(k, e, v, value);
}

int bk_exists(K *k, int e, int cube)
{
    return exists_(k, e, cube);
}

int bk_and_exists(K *k, int f, int g, int cube)
{
    return and_exists_(k, f, g, cube);
}

int bk_compose(K *k, int f, int v, int g)
{
    int lo, hi;
    if ((lo = restrict_(k, f, v, 0)) < 0 || (hi = restrict_(k, f, v, 1)) < 0)
        return -1;
    return ite(k, g, hi, lo);
}

/* The cube of n literals: vars[i] positive unless values[i] is 0 (values
 * NULL: all positive, repeats allowed).  Built bottom-up by mk. */
int bk_cube(K *k, const int *vars, int n, const unsigned char *values)
{
    int *order = malloc(((size_t)n + 1) * sizeof *order), i, j, e = TRUE_ID;
    if (!order)
        return -1;
    /* Insertion sort of the literal indices by level, deepest first. */
    for (i = 0; i < n; i++) {
        int l = k->level_of[vars[i]];
        for (j = i; j > 0 && k->level_of[vars[order[j - 1]]] < l; j--)
            order[j] = order[j - 1];
        order[j] = i;
    }
    for (i = 0; i < n && e >= 0; i++) {
        int at = order[i];
        if (i && vars[order[i - 1]] == vars[at])
            continue;
        e = (!values || values[at]) ? mk(k, vars[at], FALSE_ID, e)
                                    : mk(k, vars[at], e, FALSE_ID);
    }
    free(order);
    return e;
}

static int cmp_u64(const void *a, const void *b)
{
    uint64_t x = *(const uint64_t *)a, y = *(const uint64_t *)b;
    return (x > y) - (x < y);
}

/* The edge that is `inside` on the assignments `codes` spell over the n
 * (< 63) variables vars (bit n - 1 - i of a code is vars[i]'s value) and
 * FALSE elsewhere: BddManager._assignments_id. */
static int assignments(K *k, int n, const int *vars, int ncodes,
                       const uint64_t *codes, int inside)
{
    uint64_t *keys;
    int *order, *values, i, j, m, r = -1;
    if (!ncodes)
        return FALSE_ID;
    keys = malloc((size_t)ncodes * sizeof *keys);
    values = malloc((size_t)ncodes * sizeof *values);
    order = malloc(((size_t)n + 1) * sizeof *order);
    if (!keys || !values || !order)
        goto done;
    /* The variables in level order, each code's bits permuted to match. */
    for (i = 0; i < n; i++) {
        int l = k->level_of[vars[i]];
        for (j = i; j > 0 && k->level_of[vars[order[j - 1]]] > l; j--)
            order[j] = order[j - 1];
        order[j] = i;
    }
    for (i = 0; i < ncodes; i++) {
        uint64_t code = 0;
        for (j = 0; j < n; j++)
            code |= ((codes[i] >> (n - 1 - order[j])) & 1u) << (n - 1 - j);
        keys[i] = code;
    }
    qsort(keys, (size_t)ncodes, sizeof *keys, cmp_u64);
    for (i = m = 0; i < ncodes; i++)
        if (!m || keys[m - 1] != keys[i])
            keys[m++] = keys[i];
    if ((uint64_t)m == (uint64_t)1 << n) {
        r = inside;
        goto done;
    }
    for (i = 0; i < m; i++)
        values[i] = inside;
    /* One level at a time from the bottom: a node per distinct prefix. */
    for (j = n - 1; j >= 0; j--) {
        int v = vars[order[j]], w = 0;
        for (i = 0; i < m;) {
            uint64_t parent = keys[i] >> 1;
            int lo = FALSE_ID, hi = FALSE_ID, e;
            if (keys[i] & 1)
                hi = values[i];
            else
                lo = values[i];
            i++;
            if (i < m && keys[i] >> 1 == parent)
                hi = values[i++];
            if ((e = mk(k, v, lo, hi)) < 0)
                goto done;
            keys[w] = parent;
            values[w++] = e;
        }
        m = w;
    }
    r = values[0];
done:
    free(keys);
    free(values);
    free(order);
    return r;
}

int bk_assignments(K *k, const int *vars, int n, const uint64_t *codes,
                   int ncodes, int inside)
{
    return assignments(k, n, vars, ncodes, codes, inside);
}

/* The AND of the assignment sets of nparts disjoint variable groups
 * (nvars[p] variables and ncodes[p] codes each, concatenated), each built
 * with the AND of the groups below it as its inside.  -2 when the
 * groups' levels interleave: the caller conjoins the sets by ITE. */
int bk_conjoin_assignments(K *k, int nparts, const int *nvars,
                           const int *vars, const int *ncodes,
                           const uint64_t *codes)
{
    int *span, p, q, e = TRUE_ID, vi = 0, ci = 0, r = -1;
    if (!nparts)
        return TRUE_ID;
    /* Per part: lowest level, highest level, first var, first code. */
    if (!(span = malloc(4 * (size_t)nparts * sizeof *span)))
        return -1;
    for (p = 0; p < nparts; p++) {
        int top = INT_MAX, bottom = -1, i, at;
        for (i = 0; i < nvars[p]; i++) {
            int l = k->level_of[vars[vi + i]];
            top = l < top ? l : top;
            bottom = l > bottom ? l : bottom;
        }
        /* A stable insertion by top level. */
        for (q = p; q > 0 && span[4 * (q - 1)] > top; q--)
            memcpy(span + 4 * q, span + 4 * (q - 1), 4 * sizeof *span);
        at = 4 * q;
        span[at] = top;
        span[at + 1] = bottom;
        span[at + 2] = p;
        span[at + 3] = vi;
        vi += nvars[p];
    }
    for (p = 0; p + 1 < nparts; p++)
        if (span[4 * p + 1] > span[4 * (p + 1)]) {
            r = -2;
            goto done;
        }
    for (p = nparts - 1; p >= 0; p--) {
        int part = span[4 * p + 2], i;
        for (i = 0, ci = 0; i < part; i++)
            ci += ncodes[i];
        e = assignments(k, nvars[part], vars + span[4 * p + 3], ncodes[part],
                        codes + ci, e);
        if (e < 0)
            goto done;
    }
    r = e;
done:
    free(span);
    return r;
}

/* One TEST vertex of the s-graph builder: chi's cofactors by v. */
int bk_test_step(K *k, int chi, int v, int *out)
{
    if ((out[0] = restrict_(k, chi, v, 0)) < 0 ||
        (out[1] = restrict_(k, chi, v, 1)) < 0)
        return -1;
    return 0;
}

/* One ASSIGN vertex of output v: the label (1 where assigning 1 is valid
 * and assigning 0 is not, after smoothing the later outputs of `cube`,
 * -1 for none), its class on the valid inputs (0 FALSE, 1 TRUE, 2 the
 * label itself) and the child's chi, in the order
 * sgraph.build.build_sgraph takes them. */
int bk_assign_step(K *k, int chi, int v, int cube, int *out)
{
    int c0, c1, can0, can1, label, valid, t;
    if ((c0 = restrict_(k, chi, v, 0)) < 0 || (c1 = restrict_(k, chi, v, 1)) < 0)
        return -1;
    can0 = c0;
    can1 = c1;
    if (cube >= 0 &&
        ((can0 = exists_(k, c0, cube)) < 0 || (can1 = exists_(k, c1, cube)) < 0))
        return -1;
    if ((label = ite(k, can1, can0 ^ 1, FALSE_ID)) < 0 ||
        (valid = ite(k, can0, TRUE_ID, can1)) < 0 ||
        (t = ite(k, valid, label ^ 1, FALSE_ID)) < 0)
        return -1;
    if (t == FALSE_ID) {
        out[0] = 1;
    } else {
        if ((t = ite(k, valid, label, FALSE_ID)) < 0)
            return -1;
        out[0] = t == FALSE_ID ? 0 : 2;
    }
    out[1] = label;
    if ((out[2] = ite(k, c0, TRUE_ID, c1)) < 0)
        return -1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Walks                                                              */
/* ------------------------------------------------------------------ */

static unsigned next_gen(K *k)
{
    if (!++k->gen) {
        memset(k->mark, 0, 2 * (size_t)k->cap * sizeof *k->mark);
        k->gen = 1;
    }
    return k->gen;
}

/* Distinct edges reachable from the n roots (semantic size); counts, when
 * set, receives each non-terminal edge under its node's variable. */
static int walk(K *k, int n, const int *roots, int *counts)
{
    unsigned gen = next_gen(k);
    int top = 0, seen = 0, i;
    for (i = 0; i < n; i++)
        if (k->mark[roots[i]] != gen) {
            k->mark[roots[i]] = gen;
            k->stack[top++] = roots[i];
        }
    while (top) {
        int e = k->stack[--top], nid = e >> 1, j;
        seen++;
        if (!nid)
            continue;
        if (counts)
            counts[k->var[nid]]++;
        for (j = 0; j < 2; j++) {
            int child = (j ? k->hi[nid] : k->lo[nid]) ^ (e & 1);
            if (k->mark[child] != gen) {
                k->mark[child] = gen;
                k->stack[top++] = child;
            }
        }
    }
    return seen;
}

int bk_size(K *k, int n, const int *roots)
{
    return walk(k, n, roots, NULL);
}

int bk_reachable_counts(K *k, const int *q, int nq, const int *roots, int n,
                        int *counts)
{
    apply(k, q, nq);
    memset(counts, 0, (size_t)k->nvars * sizeof *counts);
    return walk(k, n, roots, counts);
}

/* The variables e depends on, into out; returns how many. */
int bk_support(K *k, int e, int *out)
{
    unsigned gen = next_gen(k);
    int top = 0, found = 0, i;
    if (!(e >> 1))
        return 0;
    k->mark[e & ~1] = gen;
    k->stack[top++] = e >> 1;
    while (top) {
        int nid = k->stack[--top], j;
        int v = k->var[nid];
        if (!k->vseen[v]) {
            k->vseen[v] = 1;
            out[found++] = v;
        }
        for (j = 0; j < 2; j++) {
            int c = (j ? k->hi[nid] : k->lo[nid]) >> 1;
            if (c && k->mark[c << 1] != gen) {
                k->mark[c << 1] = gen;
                k->stack[top++] = c;
            }
        }
    }
    for (i = 0; i < found; i++)
        k->vseen[out[i]] = 0;
    return found;
}

int bk_is_positive_cube(K *k, int e)
{
    while (e >= 2) {
        if ((e & 1) || k->lo[e >> 1] != FALSE_ID)
            return 0;
        e = k->hi[e >> 1];
    }
    return e == TRUE_ID;
}

/* The kernel is loaded into the Python process (ctypes.PyDLL, the GIL
 * held), so an evaluation reads its assignment, a dict of variable ->
 * truth value, through these functions of the Python C API. */
typedef struct _object PyObject;
extern PyObject *PyDict_GetItem(PyObject *, PyObject *);
extern PyObject *PyLong_FromLong(long);
extern int PyObject_IsTrue(PyObject *);
extern void Py_DecRef(PyObject *);

/* Variable v's value in the assignment, read once per call into value[v]
 * (3 until read): 0 or 1, or 2 when the assignment leaves v out (or its
 * truth cannot be read). */
static int value_of(PyObject *assignment, unsigned char *value, int v)
{
    if (value[v] == 3) {
        PyObject *key = PyLong_FromLong(v), *item;
        if (!key)
            return value[v] = 2;
        item = PyDict_GetItem(assignment, key);
        Py_DecRef(key);
        value[v] = 2;
        if (item) {
            int truth = PyObject_IsTrue(item);
            if (truth >= 0)
                value[v] = (unsigned char)truth;
        }
    }
    return value[v];
}

static int eval_edge(const K *k, int e, PyObject *assignment,
                     unsigned char *value, int *missing)
{
    while (e >= 2) {
        int nid = e >> 1, v = k->var[nid], b = value_of(assignment, value, v);
        if (b > 1) {
            *missing = v + 1;
            return 0;
        }
        e = (b ? k->hi[nid] : k->lo[nid]) ^ (e & 1);
    }
    return e == TRUE_ID;
}

/* One edge under `assignment` (a dict): 0 or 1, or -2 - v when the walk
 * needs variable v and the assignment leaves it out. */
int bk_eval1(K *k, int e, PyObject *assignment)
{
    unsigned char *value = k->vseen + k->var_cap;
    int missing = 0, r;
    memset(value, 3, (size_t)k->nvars);
    r = eval_edge(k, e, assignment, value, &missing);
    return missing ? -1 - missing : r;
}

/* buf holds n, nflips, then n edges and nflips variables.  Each edge
 * under `assignment` (a dict), then the first edge under each of nflips
 * assignments, the j-th with variable flips[j] inverted; the n + nflips
 * truth values replace the edges and variables in buf.  0, or 1 + the
 * first variable a walk needs that its assignment leaves out. */
int bk_evaluate(K *k, int *buf, PyObject *assignment)
{
    unsigned char *value = k->vseen + k->var_cap;
    int n = buf[0], nflips = buf[1], *at = buf + 2, first = n ? at[0] : 0;
    int i, missing = 0;
    memset(value, 3, (size_t)k->nvars);
    for (i = 0; i < n && !missing; i++)
        at[i] = eval_edge(k, at[i], assignment, value, &missing);
    for (i = n; i < n + nflips && !missing; i++) {
        int v = at[i];
        if (v < 0 || v >= k->nvars || value_of(assignment, value, v) > 1)
            return v + 1;
        value[v] ^= 1;
        at[i] = eval_edge(k, first, assignment, value, &missing);
        value[v] ^= 1;
    }
    return missing;
}

int bk_slots(K *k)
{
    return k->slots;
}

/* Field 0 (var), 1 (lo) or 2 (hi) of one slot. */
int bk_node(K *k, int nid, int field)
{
    if (nid < 0 || nid >= k->slots)
        return INT_MIN;
    return field == 0 ? k->var[nid] : field == 1 ? k->lo[nid] : k->hi[nid];
}

/* Every slot's var, lo and hi (bk_slots() of each). */
void bk_nodes(K *k, int *var, int *lo, int *hi)
{
    size_t n = (size_t)k->slots * sizeof(int);
    memcpy(var, k->var, n);
    memcpy(lo, k->lo, n);
    memcpy(hi, k->hi, n);
}

/* The nodes reachable from e in k->work, bottom-up (deepest level
 * first); returns how many, or -1 when out of memory. */
static int pack(K *k, int e)
{
    unsigned gen = next_gen(k);
    int top = 0, n = 0, i, l, *nodes = k->work, *sorted = k->work + k->cap;
    int *start = malloc(((size_t)k->nvars + 1) * sizeof *start);
    if (!start)
        return -1;
    if (e >> 1) {
        k->mark[e & ~1] = gen;
        k->stack[top++] = e >> 1;
    }
    while (top) {
        int nid = k->stack[--top], j;
        nodes[n++] = nid;
        for (j = 0; j < 2; j++) {
            int c = (j ? k->hi[nid] : k->lo[nid]) >> 1;
            if (c && k->mark[c << 1] != gen) {
                k->mark[c << 1] = gen;
                k->stack[top++] = c;
            }
        }
    }
    /* A counting sort by level, deepest first. */
    memset(start, 0, ((size_t)k->nvars + 1) * sizeof *start);
    for (i = 0; i < n; i++)
        start[k->nvars - 1 - k->level_of[k->var[nodes[i]]] + 1]++;
    for (l = 0; l < k->nvars; l++)
        start[l + 1] += start[l];
    for (i = 0; i < n; i++)
        sorted[start[k->nvars - 1 - k->level_of[k->var[nodes[i]]]]++] = nodes[i];
    memmove(nodes, sorted, (size_t)n * sizeof *nodes);
    free(start);
    return n;
}

/* e alone, copied into dst, which has k's variables and no nodes; dst
 * takes k's order.  The copy's edge, or -1 when out of memory. */
int bk_copy(K *k, K *dst, int e, int *level_of, int *var_at)
{
    int n = pack(k, e), i, *map = k->work + 2 * (size_t)k->cap;
    if (n < 0)
        return -1;
    memcpy(dst->level_of, k->level_of, (size_t)k->nvars * sizeof(int));
    memcpy(dst->var_at, k->var_at, (size_t)k->nvars * sizeof(int));
    memcpy(level_of, k->level_of, (size_t)k->nvars * sizeof(int));
    memcpy(var_at, k->var_at, (size_t)k->nvars * sizeof(int));
    map[0] = TRUE_ID;
    for (i = 0; i < n; i++) {
        int nid = k->work[i], lo = k->lo[nid], hi = k->hi[nid];
        int r = mk(dst, k->var[nid], map[lo >> 1] ^ (lo & 1),
                   map[hi >> 1] ^ (hi & 1));
        if (r < 0)
            return -1;
        map[nid] = r;
    }
    return map[e >> 1] ^ (e & 1);
}

typedef void *(*SiftStoreNew)(int, int, const int *, const int *,
                              const int *, int);

/* e alone in a new native sift store (_sift_store.c's ss_new), packed
 * bottom-up; NULL when out of memory. */
void *bk_sift_store(K *k, int e, SiftStoreNew ss_new)
{
    int n = pack(k, e), i, *slot, *var, *lo, *hi;
    void *store;
    slot = k->work + 2 * (size_t)k->cap;
    if (n < 0 || !(var = malloc(3 * ((size_t)n + 1) * sizeof *var)))
        return NULL;
    lo = var + n + 1;
    hi = lo + n + 1;
    slot[0] = 0;
    for (i = 0; i < n; i++)
        slot[k->work[i]] = i + 1;
    for (i = 0; i < n; i++) {
        int nid = k->work[i];
        var[i] = k->var[nid];
        lo[i] = slot[k->lo[nid] >> 1] << 1 | (k->lo[nid] & 1);
        hi[i] = slot[k->hi[nid] >> 1] << 1;
    }
    store = ss_new(k->nvars, n, var, lo, hi, slot[e >> 1] << 1 | (e & 1));
    free(var);
    return store;
}

/* ------------------------------------------------------------------ */
/* Collection and swaps                                               */
/* ------------------------------------------------------------------ */

/* Free dead slot n into the quarantine. */
static void free_dead(K *k, int n)
{
    int v = k->var[n];
    unchain(k, n);
    k->count[v]--;
    k->dead_of[v]--;
    k->allocated--;
    k->dead--;
    k->dpos[n] = 0;
    k->var[n] = TERMINAL_VAR;
    k->pend[k->npend++] = n;
    k->cnt[C_FREED]++;
}

/* Reclaim every unreferenced node; returns how many.  The caches are
 * purged of the slots freed since the last collect, which then become
 * reusable. */
int bk_collect(K *k, const int *q, int nq)
{
    int n, freed, i;
    k->cnt[C_COLLECTS]++;
    apply(k, q, nq);
    for (n = 1; n < k->slots; n++)
        if (k->var[n] != TERMINAL_VAR && !k->ref[n] && !k->dpos[n])
            kill(k, n);
    freed = k->ndead;
    for (i = 0; i < freed; i++)
        free_dead(k, k->dl[i]);
    k->ndead = 0;
    if (k->npend) {
        for (i = 0; i < k->npend; i++)
            k->flag[k->pend[i]] = 1;
        tpurge(&k->ite, k->flag, 1);
        tpurge(&k->res, k->flag, 0);
        tpurge(&k->quant, k->flag, 1);
        for (i = 0; i < k->npend; i++) {
            k->flag[k->pend[i]] = 0;
            k->fr[k->nfree++] = k->pend[i];
        }
        k->npend = 0;
    }
    return freed;
}

/* g = mk(x, lo, hi) in a swap, with one reference for its new parent;
 * every node is live here, so no resurrection. */
static int swap_mk(K *k, int x, int lo, int hi, int *created)
{
    int c, n, *b;
    if (lo == hi) {
        if (lo >> 1)
            k->ref[lo >> 1]++;
        return lo;
    }
    c = hi & 1;
    lo ^= c;
    hi ^= c;
    b = bucket(k, x, lo, hi);
    for (n = *b; n; n = k->next[n])
        if (k->lo[n] == lo && k->hi[n] == hi) {
            k->ref[n]++;
            return (n << 1) | c;
        }
    n = k->nfree ? k->fr[--k->nfree] : k->slots++;
    k->var[n] = x;
    k->lo[n] = lo;
    k->hi[n] = hi;
    k->ref[n] = 1;
    k->dpos[n] = 0;
    if (lo >> 1)
        k->ref[lo >> 1]++;
    if (hi >> 1)
        k->ref[hi >> 1]++;
    k->next[n] = *b;
    *b = n;
    (*created)++;
    return (n << 1) | c;
}

/* Swap the variables at `level` and `level` + 1 in place (the structural
 * path of BddManager.swap_levels). */
static int swap(K *k, int level)
{
    int x = k->var_at[level], y = k->var_at[level + 1];
    int na = 0, created = 0, b, i, n, *old;
    k->cnt[C_SWAPS]++;
    /* Every dead node is freed first: none survives a relabeling. */
    for (i = 0; i < k->ndead; i++) {
        n = k->dl[i];
        unchain(k, n);
        k->count[k->var[n]]--;
        k->dead_of[k->var[n]]--;
        k->dpos[n] = 0;
        k->var[n] = TERMINAL_VAR;
        k->pend[k->npend++] = n;
    }
    k->allocated -= k->ndead;
    k->dead -= k->ndead;
    k->cnt[C_FREED] += k->ndead;
    k->ndead = 0;
    if (k->count[x] * 8 < k->nb[x]) {
        int size = k->nb[x];
        while (size > INITIAL_BUCKETS && k->count[x] * 4 <= size)
            size /= 2;
        resize_subtable(k, x, size);
    }
    for (b = 0; b < k->nb[x]; b++)
        for (n = k->buckets[x][b]; n; n = k->next[n])
            if (k->var[k->lo[n] >> 1] == y || k->var[k->hi[n] >> 1] == y)
                k->work[na++] = n;
    if (na) {
        if (reserve(k, 2 * na))
            return -1;
        old = k->work + na;
        for (i = 0; i < na; i++) {
            int f0, f1, n0, n1, c0, f00, f01, f10, f11, g0, g1, *h;
            n = k->work[i];
            f0 = k->lo[n];
            f1 = k->hi[n]; /* regular, by the canonical form */
            n0 = f0 >> 1;
            c0 = f0 & 1;
            n1 = f1 >> 1;
            f00 = f01 = f0;
            f10 = f11 = f1;
            if (k->var[n0] == y) {
                f00 = k->lo[n0] ^ c0;
                f01 = k->hi[n0] ^ c0;
            }
            if (k->var[n1] == y) {
                f10 = k->lo[n1];
                f11 = k->hi[n1];
            }
            g0 = swap_mk(k, x, f00, f10, &created);
            g1 = swap_mk(k, x, f01, f11, &created);
            unchain(k, n);
            k->var[n] = y;
            k->lo[n] = g0;
            k->hi[n] = g1;
            h = bucket(k, y, g0, g1);
            k->next[n] = *h;
            *h = n;
            old[2 * i] = f0;
            old[2 * i + 1] = f1;
        }
        k->count[x] += created - na;
        k->count[y] += na;
        k->allocated += created;
        k->live += created;
        if (k->allocated > k->cnt[C_PEAK])
            k->cnt[C_PEAK] = k->allocated;
        /* The old children are released only now: no node dies while
         * the loop may still find it.  The corpses stay resurrectable
         * until the next sweep. */
        for (i = 0; i < 2 * na; i++)
            decref(k, old[i]);
        grow_subtable(k, x);
        grow_subtable(k, y);
    }
    k->var_at[level] = y;
    k->var_at[level + 1] = x;
    k->level_of[x] = level + 1;
    k->level_of[y] = level;
    return 0;
}

static void order_out(const K *k, int *level_of, int *var_at)
{
    memcpy(level_of, k->level_of, (size_t)k->nvars * sizeof(int));
    memcpy(var_at, k->var_at, (size_t)k->nvars * sizeof(int));
}

/* swap_levels(level): `skip` only exchanges the level maps (the
 * interaction fast path).  -1 when out of memory. */
int bk_swap(K *k, const int *q, int nq, int level, int skip, int *level_of,
            int *var_at)
{
    int r = 0;
    apply(k, q, nq);
    if (skip) {
        int x = k->var_at[level], y = k->var_at[level + 1];
        k->cnt[C_SWAPS]++;
        k->cnt[C_SKIPS]++;
        k->var_at[level] = y;
        k->var_at[level + 1] = x;
        k->level_of[x] = level + 1;
        k->level_of[y] = level;
    } else {
        r = swap(k, level);
    }
    order_out(k, level_of, var_at);
    return r;
}

/* Move to `order` (var_at_level), one variable at a time from the top,
 * by adjacent swaps: sifting.move_var_to_level for every level. */
int bk_move_to_order(K *k, const int *q, int nq, const int *order,
                     int *level_of, int *var_at)
{
    int target, r = 0;
    apply(k, q, nq);
    for (target = 0; target < k->nvars && !r; target++) {
        int at = k->level_of[order[target]];
        while (at < target && !r)
            r = swap(k, at++);
        while (at > target && !r)
            r = swap(k, --at);
    }
    order_out(k, level_of, var_at);
    return r;
}

/* ------------------------------------------------------------------ */
/* Checkpoints                                                        */
/* ------------------------------------------------------------------ */

typedef struct {
    int slots, ndead, nfree, npend, allocated, live, dead;
    int *data;
} Checkpoint;

/* Copy n ints at each field between the store and cp's data. */
static void ckpt_transfer(K *k, Checkpoint *cp, int back)
{
    int *d = cp->data, v;
#define MOVE(a, len)                                           \
    do {                                                       \
        if (back)                                              \
            memcpy((a), d, (size_t)(len) * sizeof *d);         \
        else                                                   \
            memcpy(d, (a), (size_t)(len) * sizeof *d);         \
        d += (len);                                            \
    } while (0)
    MOVE(k->var, cp->slots);
    MOVE(k->lo, cp->slots);
    MOVE(k->hi, cp->slots);
    MOVE(k->ref, cp->slots);
    MOVE(k->next, cp->slots);
    MOVE(k->dpos, cp->slots);
    MOVE(k->dl, cp->ndead);
    MOVE(k->fr, cp->nfree);
    MOVE(k->pend, cp->npend);
    MOVE(k->nb, k->nvars);
    MOVE(k->count, k->nvars);
    MOVE(k->dead_of, k->nvars);
    MOVE(k->level_of, k->nvars);
    MOVE(k->var_at, k->nvars);
    for (v = 0; v < k->nvars; v++)
        MOVE(k->buckets[v], k->nb[v]);
#undef MOVE
}

/* A copy of the node store, the subtables and the order (not the work
 * counters, the caches or the handles); NULL when out of memory. */
void *bk_checkpoint(K *k, const int *q, int nq)
{
    Checkpoint *cp;
    size_t len;
    int v;
    apply(k, q, nq);
    len = 6 * (size_t)k->slots + (size_t)k->ndead + (size_t)k->nfree +
          (size_t)k->npend + 5 * (size_t)k->nvars;
    for (v = 0; v < k->nvars; v++)
        len += (size_t)k->nb[v];
    if (!(cp = malloc(sizeof *cp)))
        return NULL;
    if (!(cp->data = malloc(len * sizeof *cp->data))) {
        free(cp);
        return NULL;
    }
    cp->slots = k->slots;
    cp->ndead = k->ndead;
    cp->nfree = k->nfree;
    cp->npend = k->npend;
    cp->allocated = k->allocated;
    cp->live = k->live;
    cp->dead = k->dead;
    ckpt_transfer(k, cp, 0);
    return cp;
}

/* Restore cp.  Arrays never shrink, so everything fits where it was. */
void bk_rollback(K *k, const int *q, int nq, Checkpoint *cp, int *level_of,
                 int *var_at)
{
    apply(k, q, nq);
    k->slots = cp->slots;
    k->ndead = cp->ndead;
    k->nfree = cp->nfree;
    k->npend = cp->npend;
    k->allocated = cp->allocated;
    k->live = cp->live;
    k->dead = cp->dead;
    ckpt_transfer(k, cp, 1);
    order_out(k, level_of, var_at);
}

void bk_free_checkpoint(Checkpoint *cp)
{
    if (cp) {
        free(cp->data);
        free(cp);
    }
}

/* ------------------------------------------------------------------ */
/* Counters, statistics and invariants                                */
/* ------------------------------------------------------------------ */

/* BddManager.counters(), in its order, into out (14 values). */
void bk_counters(K *k, const int *q, int nq, long long *out)
{
    apply(k, q, nq);
    out[0] = k->cnt[C_SWAPS];
    out[1] = k->cnt[C_SKIPS];
    out[2] = k->cnt[C_COLLECTS];
    out[3] = k->cnt[C_FREED];
    out[4] = k->cnt[C_PEAK];
    out[5] = k->live;
    out[6] = k->dead;
    memcpy(out + 7, k->cnt + C_ITE_HITS, 7 * sizeof *out);
}

/* Set counter `which` (an index into bk_counters' order, live and dead
 * excluded). */
void bk_set_counter(K *k, int which, long long value)
{
    static const int at[14] = {
        C_SWAPS, C_SKIPS, C_COLLECTS, C_FREED, C_PEAK, -1, -1,
        C_ITE_HITS, C_ITE_MISSES, C_RESTRICT_HITS, C_RESTRICT_MISSES,
        C_QUANT_HITS, C_QUANT_MISSES, C_RESETS,
    };
    if (which >= 0 && which < 14 && at[which] >= 0)
        k->cnt[at[which]] = value;
}

int bk_live_at_level(K *k, const int *q, int nq, int level)
{
    int v = k->var_at[level];
    apply(k, q, nq);
    return k->count[v] - k->dead_of[v];
}

/* Allocated slots, allocated nodes, bytes held by the store, and nodes
 * whose else-edge is complemented. */
void bk_store_stats(K *k, long long *out)
{
    long long bytes = sizeof *k, complemented = 0;
    int v, b, n;
    bytes += (long long)k->cap * (10 * sizeof(int) + 1 + 2 * sizeof(unsigned)
                                  + 2 * sizeof(int));
    bytes += (long long)(k->ite.cap + k->res.cap + k->quant.cap) * sizeof(Entry);
    for (v = 0; v < k->nvars; v++) {
        bytes += (long long)k->bcap[v] * sizeof(int);
        for (b = 0; b < k->nb[v]; b++)
            for (n = k->buckets[v][b]; n; n = k->next[n])
                complemented += k->lo[n] & 1;
    }
    out[0] = k->slots - 1;
    out[1] = k->allocated;
    out[2] = bytes;
    out[3] = complemented;
}

/* BddManager.check() on the store, with the handles' root edges:
 * 0, or the number of the first invariant that fails (-1 when out of
 * memory). */
int bk_check(K *k, const int *q, int nq, const int *roots, int nroots)
{
    int v, b, n, m, i, err = 0, *expected, allocated = 0, dead = 0;
    apply(k, q, nq);
    for (v = 0; v < k->nvars; v++)
        if (k->var_at[k->level_of[v]] != v || k->level_of[v] < 0 ||
            k->level_of[v] >= k->nvars)
            return 1;
    if (k->var[0] != TERMINAL_VAR || k->ref[0] < 1)
        return 2;
    if (!(expected = calloc((size_t)k->slots, sizeof *expected)))
        return -1;
    memset(k->flag, 0, (size_t)k->slots);
    for (v = 0; v < k->nvars && !err; v++) {
        int count = 0, dead_here = 0;
        for (b = 0; b < k->nb[v] && !err; b++)
            for (n = k->buckets[v][b]; n && !err; n = k->next[n]) {
                int lo = k->lo[n], hi = k->hi[n];
                if (k->var[n] != v)
                    err = 3;
                else if (lo == hi)
                    err = 4; /* unreduced node */
                else if (hi & 1)
                    err = 5; /* complemented then-edge */
                else if (k->flag[n])
                    err = 8; /* slot chained twice */
                for (m = k->buckets[v][b]; m != n && !err; m = k->next[m])
                    if (k->lo[m] == lo && k->hi[m] == hi)
                        err = 6; /* duplicate unique-table entry */
                for (i = 0; i < 2 && !err; i++) {
                    int c = (i ? hi : lo) >> 1;
                    if (c && k->var[c] == TERMINAL_VAR)
                        err = 7; /* edge to a freed slot */
                    else if (c && k->level_of[k->var[c]] <= k->level_of[v])
                        err = 7; /* ordering violated */
                }
                k->flag[n] = 1;
                count++;
                allocated++;
                if (k->dpos[n]) {
                    dead_here++;
                    dead++;
                }
            }
        if (!err && count != k->count[v])
            err = 9;
        if (!err && dead_here != k->dead_of[v])
            err = 10;
    }
    if (!err && (k->allocated != allocated || k->dead != dead ||
                 k->live != allocated - dead || k->ndead != dead))
        err = 11;
    for (i = 0; i < k->ndead && !err; i++)
        if (!k->flag[k->dl[i]] || k->dpos[k->dl[i]] != i + 1)
            err = 12; /* the dead set */
    for (i = 0; i < k->npend && !err; i++)
        if (k->var[k->pend[i]] != TERMINAL_VAR || k->flag[k->pend[i]])
            err = 13;
    for (n = 1; n < k->slots && !err; n++)
        if (k->flag[n] && !k->dpos[n]) {
            for (i = 0; i < 2; i++) {
                int c = (i ? k->hi[n] : k->lo[n]) >> 1;
                if (c)
                    expected[c]++;
            }
        } else if (k->flag[n] && k->ref[n]) {
            err = 14; /* a dead node has references */
        }
    for (i = 0; i < nroots && !err; i++)
        if (roots[i] >= 2)
            expected[roots[i] >> 1]++;
    for (n = 1; n < k->slots && !err; n++)
        if (k->flag[n] && !k->dpos[n] && k->ref[n] != expected[n])
            err = 15; /* refcount */
    free(expected);
    /* Caches may name allocated, terminal or quarantined slots. */
    for (i = 0; i < k->npend; i++)
        k->flag[k->pend[i]] = 1;
    k->flag[0] = 1;
    if (!err) {
        const Table *tables[3];
        int t;
        unsigned j;
        tables[0] = &k->ite;
        tables[1] = &k->res;
        tables[2] = &k->quant;
        for (t = 0; t < 3 && !err; t++)
            for (j = 0; j < tables[t]->cap && !err; j++) {
                const Entry *e = &tables[t]->e[j];
                if (e->a < 2)
                    continue;
                if (!k->flag[e->a >> 1] || !k->flag[e->r >> 1] ||
                    (t != 1 && e->b >= 0 && !k->flag[e->b >> 1]) ||
                    (t != 1 && e->c >= 0 && !k->flag[e->c >> 1]))
                    err = 16 + t; /* a cache names a recycled slot */
                else if (t == 0 && ((e->a & 1) || (e->b & 1)))
                    err = 19; /* non-canonical ite key */
                else if (t == 1 && (e->a & 1))
                    err = 20; /* non-canonical restrict key */
            }
    }
    memset(k->flag, 0, (size_t)k->slots);
    return err;
}
