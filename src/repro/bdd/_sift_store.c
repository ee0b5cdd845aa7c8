/*
 * The native private store a sift of chi explores on (repro.bdd.native).
 *
 * It holds one function alone, in the canonical form of
 * repro.bdd.manager: a struct-of-arrays node store whose slot 0 is the
 * terminal, edges (slot << 1) | complement, the complement bit never on a
 * then-edge, and one chained unique subtable per variable threaded
 * through next[].  The Python sifting pass drives it: it adjacent-swaps
 * two variables, reads the function's semantic size and its live-node
 * count, and takes, restores and frees checkpoints.  The variable order,
 * the swap counters and every sifting decision stay in Python.
 *
 * The store has no operation caches, so a node whose count drops to zero
 * is freed at once, and the live-node count is the allocated count.
 * Every allocation happens before a call changes anything: a call that
 * cannot allocate returns -1 (or NULL) with the store as it was.
 */

#include <limits.h>
#include <stdlib.h>
#include <string.h>

#define TERMINAL_VAR (-1)
#define INITIAL_BUCKETS 8

typedef struct {
    int nvars;
    int root;       /* the function's edge; holds one reference */
    int slots;      /* slots ever used, the terminal included */
    int cap;        /* length of the node arrays */
    int free_head;  /* freed slots, chained through next[]; 0 ends */
    int live;       /* allocated non-terminal nodes */
    int *var, *lo, *hi, *ref, *next;
    int **buckets;   /* per variable: bucket heads */
    int *nbuckets;   /* per variable: buckets in use (a power of two) */
    int *bucket_cap; /* per variable: length of its bucket array */
    int *count;      /* per variable: nodes in its subtable */
    unsigned *mark;  /* per edge (2 * cap): the size walk's generation */
    unsigned gen;
    int *stack;      /* 2 * cap: the size walk, and the cascades of frees */
    int *work;       /* 3 * cap: a swap's moved nodes and their old children */
} Store;

/* The node arrays, the counts and the subtables of a store; the level
 * maps are the Python side's. */
typedef struct {
    int slots, free_head, live;
    int *data; /* var, lo, hi, ref, next (slots each), nbuckets, count
                  (nvars each), then every subtable's buckets */
} Checkpoint;

static unsigned hash(int lo, int hi)
{
    return ((unsigned)lo * 0x9E3779B1u) ^ ((unsigned)hi * 0x45D9F3Bu);
}

static int *head(Store *s, int v, int lo, int hi)
{
    return &s->buckets[v][hash(lo, hi) & (unsigned)(s->nbuckets[v] - 1)];
}

static void link_node(Store *s, int n)
{
    int *b = head(s, s->var[n], s->lo[n], s->hi[n]);
    s->next[n] = *b;
    *b = n;
    s->count[s->var[n]]++;
}

static void unlink_node(Store *s, int n)
{
    int *b = head(s, s->var[n], s->lo[n], s->hi[n]);
    while (*b != n)
        b = &s->next[*b];
    *b = s->next[n];
    s->count[s->var[n]]--;
}

/* Make the node arrays hold `need` more slots than are in use. */
static int reserve_nodes(Store *s, int need)
{
    size_t cap = s->cap ? (size_t)s->cap : 16;
    size_t want = (size_t)s->slots + (size_t)need;
    void *p;
    if (want <= (size_t)s->cap)
        return 0;
    while (cap < want)
        cap *= 2;
    if (cap > INT_MAX / 4)
        return -1;
#define GROW(field, len)                                        \
    if (!(p = realloc(s->field, (len) * sizeof *s->field)))      \
        return -1;                                               \
    s->field = p;
    GROW(var, cap) GROW(lo, cap) GROW(hi, cap) GROW(ref, cap) GROW(next, cap)
    GROW(stack, 2 * cap) GROW(work, 3 * cap) GROW(mark, 2 * cap)
#undef GROW
    memset(s->mark + 2 * (size_t)s->cap, 0,
           2 * (cap - (size_t)s->cap) * sizeof *s->mark);
    s->cap = (int)cap;
    return 0;
}

/* Double v's subtable while it is loaded past two nodes a bucket.  Chains
 * only lengthen when the memory is short, so a failure is harmless. */
static void grow_subtable(Store *s, int v)
{
    while (s->count[v] > 2 * s->nbuckets[v]) {
        int old = s->nbuckets[v], nb = 2 * old, i, n, follow;
        int *b = s->buckets[v];
        if (nb > s->bucket_cap[v]) {
            if (!(b = realloc(b, (size_t)nb * sizeof *b)))
                return;
            s->buckets[v] = b;
            s->bucket_cap[v] = nb;
        }
        memset(b + old, 0, (size_t)old * sizeof *b);
        s->nbuckets[v] = nb;
        for (i = 0; i < old; i++) {
            n = b[i];
            b[i] = 0;
            for (; n; n = follow) {
                int *h = head(s, v, s->lo[n], s->hi[n]);
                follow = s->next[n];
                s->next[n] = *h;
                *h = n;
            }
        }
    }
}

/* Release one reference on edge e, freeing every node it orphans. */
static void decref(Store *s, int e)
{
    int top = 0, n = e >> 1;
    if (!n || --s->ref[n])
        return;
    s->stack[top++] = n;
    while (top) {
        int m = s->stack[--top], a = s->lo[m] >> 1, b = s->hi[m] >> 1;
        unlink_node(s, m);
        s->var[m] = TERMINAL_VAR;
        s->next[m] = s->free_head;
        s->free_head = m;
        s->live--;
        if (a && !--s->ref[a])
            s->stack[top++] = a;
        if (b && !--s->ref[b])
            s->stack[top++] = b;
    }
}

/* The edge of the reduced node (v, lo, hi), with one new reference.  The
 * caller has reserved a slot. */
static int find_or_add(Store *s, int v, int lo, int hi)
{
    int c = hi & 1, n;
    if (lo == hi) {
        if (lo >> 1)
            s->ref[lo >> 1]++;
        return lo;
    }
    lo ^= c;
    hi ^= c;
    for (n = *head(s, v, lo, hi); n; n = s->next[n])
        if (s->lo[n] == lo && s->hi[n] == hi) {
            s->ref[n]++;
            return (n << 1) | c;
        }
    if (s->free_head) {
        n = s->free_head;
        s->free_head = s->next[n];
    } else {
        n = s->slots++;
    }
    s->var[n] = v;
    s->lo[n] = lo;
    s->hi[n] = hi;
    s->ref[n] = 1;
    if (lo >> 1)
        s->ref[lo >> 1]++;
    if (hi >> 1)
        s->ref[hi >> 1]++;
    link_node(s, n);
    s->live++;
    return (n << 1) | c;
}

void ss_free(Store *s)
{
    int v;
    if (!s)
        return;
    if (s->buckets)
        for (v = 0; v < s->nvars; v++)
            free(s->buckets[v]);
    free(s->buckets);
    free(s->nbuckets);
    free(s->bucket_cap);
    free(s->count);
    free(s->var);
    free(s->lo);
    free(s->hi);
    free(s->ref);
    free(s->next);
    free(s->mark);
    free(s->stack);
    free(s->work);
    free(s);
}

/* A store of the n nodes var/lo/hi, packed bottom-up: node i sits in slot
 * i + 1 and its children's edges name earlier slots.  NULL when out of
 * memory. */
Store *ss_new(int nvars, int n, const int *var, const int *lo, const int *hi,
              int root)
{
    Store *s = calloc(1, sizeof *s);
    size_t m = (size_t)nvars + 1;
    int v, i;
    if (!s || !(s->buckets = calloc(m, sizeof *s->buckets)) ||
        !(s->nbuckets = calloc(m, sizeof(int))) ||
        !(s->bucket_cap = calloc(m, sizeof(int))) ||
        !(s->count = calloc(m, sizeof(int))) || reserve_nodes(s, n + 1))
        goto fail;
    s->nvars = nvars;
    s->root = root;
    s->var[0] = TERMINAL_VAR;
    s->lo[0] = s->hi[0] = s->next[0] = 0;
    s->ref[0] = 1;
    for (i = 0; i < n; i++)
        s->count[var[i]]++;
    for (v = 0; v < nvars; v++) {
        int nb = INITIAL_BUCKETS;
        while (s->count[v] > 2 * nb)
            nb *= 2;
        if (!(s->buckets[v] = calloc((size_t)nb, sizeof(int))))
            goto fail;
        s->nbuckets[v] = s->bucket_cap[v] = nb;
        s->count[v] = 0;
    }
    for (i = 1; i <= n; i++) {
        s->var[i] = var[i - 1];
        s->lo[i] = lo[i - 1];
        s->hi[i] = hi[i - 1];
        s->ref[i] = 0;
    }
    for (i = 1; i <= n; i++) {
        if (s->lo[i] >> 1)
            s->ref[s->lo[i] >> 1]++;
        if (s->hi[i] >> 1)
            s->ref[s->hi[i] >> 1]++;
        link_node(s, i);
    }
    if (root >> 1)
        s->ref[root >> 1]++;
    s->slots = n + 1;
    s->live = n;
    return s;
fail:
    ss_free(s);
    return NULL;
}

/* Swap variable x, one level above y, with y.  -1 when out of memory. */
int ss_swap(Store *s, int x, int y)
{
    int *bx = s->buckets[x], *affected = s->work, *old, na = 0, b, i, n;
    for (b = 0; b < s->nbuckets[x]; b++)
        for (n = bx[b]; n; n = s->next[n])
            if (s->var[s->lo[n] >> 1] == y || s->var[s->hi[n] >> 1] == y)
                affected[na++] = n;
    if (!na)
        return 0;
    if (reserve_nodes(s, 2 * na))
        return -1;
    affected = s->work; /* the reserve may have moved it */
    old = affected + na;
    for (i = 0; i < na; i++) {
        int f0, f1, n0, n1, c0, f00, f01, f10, f11, g0, g1;
        n = affected[i];
        f0 = s->lo[n];
        f1 = s->hi[n]; /* regular, by the canonical form */
        n0 = f0 >> 1;
        c0 = f0 & 1;
        n1 = f1 >> 1;
        f00 = f01 = f0;
        f10 = f11 = f1;
        if (s->var[n0] == y) {
            f00 = s->lo[n0] ^ c0;
            f01 = s->hi[n0] ^ c0;
        }
        if (s->var[n1] == y) {
            f10 = s->lo[n1];
            f11 = s->hi[n1];
        }
        g0 = find_or_add(s, x, f00, f10);
        g1 = find_or_add(s, x, f01, f11);
        unlink_node(s, n);
        s->var[n] = y;
        s->lo[n] = g0;
        s->hi[n] = g1;
        link_node(s, n);
        old[2 * i] = f0;
        old[2 * i + 1] = f1;
    }
    /* The old children are released only now, so no node dies while the
     * loop above may still find it. */
    for (i = 0; i < 2 * na; i++)
        decref(s, old[i]);
    grow_subtable(s, x);
    grow_subtable(s, y);
    return 0;
}

/* Distinct edges reachable from the root, both terminal edges included:
 * exactly Function.size() of the function held. */
int ss_size(Store *s)
{
    int top = 0, size = 0, e, n, c, k;
    unsigned gen;
    if (s->root < 2)
        return 1;
    if (!++s->gen) {
        memset(s->mark, 0, 2 * (size_t)s->cap * sizeof *s->mark);
        s->gen = 1;
    }
    gen = s->gen;
    s->mark[s->root] = gen;
    s->stack[top++] = s->root;
    while (top) {
        e = s->stack[--top];
        size++;
        n = e >> 1;
        if (!n)
            continue;
        c = e & 1;
        for (k = 0; k < 2; k++) {
            int child = (k ? s->hi[n] : s->lo[n]) ^ c;
            if (s->mark[child] != gen) {
                s->mark[child] = gen;
                s->stack[top++] = child;
            }
        }
    }
    return size;
}

int ss_live(const Store *s)
{
    return s->live;
}

/* Copy n node slots, then nbuckets, count and every subtable, from the
 * store to d or, when back is set, from d back to the store. */
static void transfer(Store *s, int *d, size_t n, int back)
{
    int *arrays[5];
    int k, v;
    arrays[0] = s->var;
    arrays[1] = s->lo;
    arrays[2] = s->hi;
    arrays[3] = s->ref;
    arrays[4] = s->next;
#define MOVE(a, len)                                  \
    do {                                              \
        if (back)                                     \
            memcpy((a), d, (len) * sizeof *d);        \
        else                                          \
            memcpy(d, (a), (len) * sizeof *d);        \
        d += (len);                                   \
    } while (0)
    for (k = 0; k < 5; k++)
        MOVE(arrays[k], n);
    MOVE(s->nbuckets, (size_t)s->nvars);
    MOVE(s->count, (size_t)s->nvars);
    for (v = 0; v < s->nvars; v++)
        MOVE(s->buckets[v], (size_t)s->nbuckets[v]);
#undef MOVE
}

/* A copy of the store's nodes and subtables; NULL when out of memory. */
Checkpoint *ss_checkpoint(Store *s)
{
    Checkpoint *cp = malloc(sizeof *cp);
    size_t len = 5 * (size_t)s->slots + 2 * (size_t)s->nvars;
    int v;
    for (v = 0; v < s->nvars; v++)
        len += (size_t)s->nbuckets[v];
    if (!cp || !(cp->data = malloc(len * sizeof(int)))) {
        free(cp);
        return NULL;
    }
    cp->slots = s->slots;
    cp->free_head = s->free_head;
    cp->live = s->live;
    transfer(s, cp->data, (size_t)s->slots, 0);
    return cp;
}

/* Restore cp's nodes and subtables.  Node arrays and bucket arrays never
 * shrink, so everything fits where it was, and nothing is allocated. */
void ss_rollback(Store *s, const Checkpoint *cp)
{
    transfer(s, cp->data, (size_t)cp->slots, 1);
    s->slots = cp->slots;
    s->free_head = cp->free_head;
    s->live = cp->live;
}

void ss_free_checkpoint(Checkpoint *cp)
{
    if (cp) {
        free(cp->data);
        free(cp);
    }
}
