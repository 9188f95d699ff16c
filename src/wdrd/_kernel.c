/* Compiled orientation-search kernel and canonical search.

   Same contract and identical output as `_kernel_py.search_run`; see that
   module for the contract, for the soundness of the degree prune and for
   the closure lemma behind not_strong().  One call runs a list of
   disjoint prefixes in order on one Ctx and sums their counters.  Both
   modes run one degree-pruned depth-first search per prefix.  It carries
   the largest digon degree dmax and the largest out-only or in-only
   degree fmax of any vertex so far; cut() skips a child past the bound
   dmax + 2 fmax > k, the common degree (-1 on an irregular graph, so
   that the first edge passes it on every branch).  The search tries only
   prefix[depth] at the depths below the prefix length and emits every
   weakly distance-regular word it finds; the kernel knows nothing of arc
   reversal, and `wdrd.search` classifies the survivors and derives the
   unpruned counters.  An unpruned call also sums N, each prefix's count
   of not_strong(), whose memo grows in the Ctx up to MEMO_BYTES.  The
   prefixes of a call share the memo: a state is (depth, closure), and its
   count does not depend on the prefix that reached it.
   `wdrd.kernel` compiles this file with the system C compiler, loads it
   with ctypes and validates every argument before calling
   `wdrd_search_run`; the C code trusts that no prefix extends another.

   Leaf pipeline, the steps of `_kernel_py` in the same order: symmetric
   leaves, the all-digon ones, which check_leaf() spots by fmax = 0;
   strong connectivity, by one BFS from vertex 0 over out_m and
   one over in_m, which also record vertex 0's distance-layer sizes; the
   layers (leaf_stage()); the classes (classify()); the two-arc path
   counts (constant_arcs()); the intersection tensor (constant_tensor()),
   as each pair's sorted keys class(x,z) nc + class(z,y).  The last two
   compare each pair with its class's first pair, which lies in row 0:
   classify() numbers the classes in order of first appearance there and
   rejects a row with a class that row 0 lacks.
   The layer check is sound because in a scheme #{y : d(x,y) = i} is a sum
   of valencies, the same for every x, and #{y : d(y,x) = i} equals it
   because dual classes have equal valencies.  The two-arc check is sound
   because #{z : x -> z -> y} is a sum of intersection numbers p^l_ij over
   the class l of (x,y).  Each rejects only leaves that the class or the
   tensor check would reject, and counts as AXIOM like them.

   Canonical search, wdrd_canonical_permutation(): the search of
   `wdrd.canon`, with the output of `_kernel_py.canonical_permutation`.
   The same colour refinement, its ids the ranks of the lexicographically
   sorted signatures (refine()); the same candidates, the unplaced
   vertices of the position's colour in vertex order, stably sorted by
   key; the same automorphism pruning, over union-find orbits of the
   automorphisms found that fix every placed vertex (join_orbits()).  A
   key kin * 2^n + kout is held as the pair of u64 (kin, kout) and
   compared as one.  The automorphism list doubles from AUTOS_MIN entries
   of n bytes; when it cannot grow, the call returns -1 and `wdrd.kernel`
   raises MemoryError.  The recursion is at most n + 1 frames deep, each
   with three 64-byte arrays on the stack.

   Limits: n <= 64 vertices (one 64-bit adjacency mask per vertex, and
   one bit per position in each half of a key) and 39 edges (3^|E| must
   fit in a signed 64-bit counter).  The search's cost still grows
   exponentially on a large colour block; `wdrd.canon` caps it.

   Thread safety: the file has no mutable static data.  Each call keeps
   all of its state in its own calloc'd Ctx and memo, or Canon and
   automorphism list, and writes only there and to the caller's stats
   array, emit callback or permutation, so calls on different arguments
   may run at once; `wdrd.search` runs its shares of one search
   concurrently, one call per thread, and the calling thread runs the
   first. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXN 64
#define MAXE 39
/* Per-call byte budget of the not_strong() memo, and its first size. */
#define MEMO_BYTES (1 << 26)
#define MEMO_MIN 16

typedef uint64_t u64;
typedef int64_t i64;

enum { FWD, BWD, DIG };
/* Counter slots, in the order of the stats dict keys. */
enum { EXAMINED, SKIPPED_DEGREE, SYMMETRIC, NOT_STRONGLY_CONNECTED, AXIOM,
       NSTATS };

/* What rejects a leaf that is not symmetric, in the order of
   wdrd.kernel.LEAF_STAGES; PASS when nothing does. */
enum { PASS, NOT_STRONG, LAYERS, CLASSES, ARCS, TENSOR };

/* Receives each surviving edge-state word (ne bytes) as it is found. */
typedef void (*emit_fn)(const unsigned char *word);

typedef struct {
    int n, ne, np, k;                 /* k: common degree, or -1 */
    const unsigned char *prefix;
    int eu[MAXE], ev[MAXE];
    u64 out_m[MAXN], in_m[MAXN];
    int dd[MAXN], oo[MAXN], ii[MAXN]; /* digon, out-only, in-only degrees */
    i64 pow3[MAXE + 1];
    u64 rest[MAXE + 1][MAXN];         /* rest[d][x]: x's neighbours over
                                         edges d.. (none at d = ne) */
    /* not_strong(): reach[d] and coreach[d] hold the closure of the arcs
       of the edges before d, as the set each vertex reaches and the set
       that reaches it */
    u64 reach[MAXE + 1][MAXN], coreach[MAXE + 1][MAXN];
    u64 *memo;                        /* memo_cap slots of n + 2 words */
    size_t memo_cap, memo_used;
    unsigned char states[MAXE];
    i64 *stats;
    emit_fn emit;
    /* leaf scratch; class_of is all-zero between leaves */
    int dist[MAXN * MAXN];
    int lay_out[MAXN + 1], lay_in[MAXN + 1]; /* vertex 0's layer sizes */
    int labels[MAXN * MAXN];
    int class_of[64 * 64];            /* two-way distance key -> class + 1 */
    int class_key[MAXN];
    int row0[MAXN], row[MAXN];
    /* per class, of its first pair: the two-arc count, and the n sorted
       tensor keys (every class occurs in row 0, so there are at most n) */
    int ref_arcs[MAXN];
    int refs[MAXN * MAXN];
} Ctx;

/* The set of all n vertices. */
static inline u64 vertex_set(int n)
{
    return n == 64 ? ~(u64)0 : ((u64)1 << n) - 1;
}

/* Breadth-first search from src over masks.  Writes the distance of each
   reached vertex into row (unless NULL) and the size of each distance layer
   into lay (unless NULL), ending with an empty layer.  With ref (unless
   NULL), stops and returns 0 at the first layer whose size differs from
   ref's.  Otherwise returns the set reached. */
static u64 bfs(const u64 *masks, int src, int *row, int *lay, const int *ref)
{
    u64 seen = (u64)1 << src, frontier = seen;
    for (int depth = 0;; depth++) {
        int size = 0;
        u64 nxt = 0;
        for (u64 m = frontier; m; m &= m - 1, size++) {
            int v = __builtin_ctzll(m);
            if (row)
                row[v] = depth;
            nxt |= masks[v];
        }
        if (ref && ref[depth] != size)
            return 0;
        if (lay)
            lay[depth] = size;
        if (!size)
            return seen;
        frontier = nxt & ~seen;
        seen |= frontier;
    }
}

/* Label every pair by its two-way distance class and check that each row
   holds the classes of row 0 with the same counts.  Returns the number of
   classes, or 0 when some valency differs. */
static int classify(Ctx *c)
{
    int n = c->n, nc = 0, ok = 1;
    for (int x = 0; x < n && ok; x++) {
        memset(c->row, 0, sizeof(int) * n);
        for (int y = 0; y < n; y++) {
            int key = c->dist[x * n + y] * 64 + c->dist[y * n + x];
            if (!c->class_of[key]) {
                if (x) { /* a class row 0 lacks: valencies differ */
                    ok = 0;
                    break;
                }
                c->class_key[nc++] = key;
                c->class_of[key] = nc;
            }
            c->labels[x * n + y] = c->class_of[key] - 1;
            c->row[c->class_of[key] - 1]++;
        }
        if (!x)
            memcpy(c->row0, c->row, sizeof(int) * nc);
        else if (ok && memcmp(c->row, c->row0, sizeof(int) * nc))
            ok = 0;
    }
    for (int i = 0; i < nc; i++)
        c->class_of[c->class_key[i]] = 0;
    return ok ? nc : 0;
}

/* Bit count of m.  Without a flag that allows the popcount instruction,
   __builtin_popcountll compiles to a library call. */
static inline int popcount(u64 m)
{
    m -= (m >> 1) & 0x5555555555555555ULL;
    m = (m & 0x3333333333333333ULL) + ((m >> 2) & 0x3333333333333333ULL);
    m = (m + (m >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (int)((m * 0x0101010101010101ULL) >> 56);
}

/* Check that the number of two-arc paths x -> z -> y depends only on the
   class of (x,y), as a sum of intersection numbers must.  classify()
   numbers the classes in order of first appearance in row 0, so a class's
   first pair is the one where its label equals the number seen so far. */
static int constant_arcs(Ctx *c)
{
    int n = c->n, seen = 0;
    for (int x = 0; x < n; x++) {
        for (int y = 0; y < n; y++) {
            int lab = c->labels[x * n + y];
            int k = popcount(c->out_m[x] & c->in_m[y]);
            if (lab == seen)
                c->ref_arcs[seen++] = k;
            else if (c->ref_arcs[lab] != k)
                return 0;
        }
    }
    return 1;
}

/* Check that p^l_{ij} = #{z : (x,z) in i, (z,y) in j} depends only on the
   class l of (x,y): the sorted keys class(x,z) nc + class(z,y) of every
   pair must equal those of its class's first pair, found as in
   constant_arcs(). */
static int constant_tensor(Ctx *c, int nc)
{
    int n = c->n, seen = 0, keys[MAXN];
    for (int x = 0; x < n; x++) {
        for (int y = 0; y < n; y++) {
            int lab = c->labels[x * n + y];
            int *ref = c->refs + lab * n, *k = lab == seen ? ref : keys;
            for (int z = 0; z < n; z++) {
                int key = c->labels[x * n + z] * nc + c->labels[z * n + y], i;
                for (i = z; i && k[i - 1] > key; i--)
                    k[i] = k[i - 1];
                k[i] = key;
            }
            if (k == ref)
                seen++;
            else if (memcmp(k, ref, sizeof(int) * n))
                return 0;
        }
    }
    return 1;
}

/* Run a leaf that is not symmetric through the checks, cheapest first, and
   return the stage that rejects it (PASS when none does).  Both BFS from
   vertex 0 must reach every vertex; they write row 0 of dist and vertex
   0's layer sizes, and each further row is rejected at its first layer
   whose size differs.  classify() runs only when every row passed, so on
   a strongly connected leaf: every entry of dist is written and distances
   are at most n - 1 <= 63, which keeps class keys below 64 * 64. */
static int leaf_stage(Ctx *c)
{
    u64 full = vertex_set(c->n);
    int nc;
    if (bfs(c->out_m, 0, c->dist, c->lay_out, NULL) != full
            || bfs(c->in_m, 0, NULL, c->lay_in, NULL) != full)
        return NOT_STRONG;
    /* both lists sum to n: agreeing up to lay_out's empty layer, they agree */
    for (int d = 0; c->lay_out[d]; d++)
        if (c->lay_in[d] != c->lay_out[d])
            return LAYERS;
    for (int x = 1; x < c->n; x++)
        if (!bfs(c->out_m, x, c->dist + x * c->n, NULL, c->lay_out))
            return LAYERS;
    if (!(nc = classify(c)))
        return CLASSES;
    if (!constant_arcs(c))
        return ARCS;
    return constant_tensor(c, nc) ? PASS : TENSOR;
}

/* Count a leaf that cut() did not decide: symmetric, or through the leaf
   pipeline.  fmax is 0 exactly on the all-digon leaf: a one-way arc
   makes its tail's out-only degree, and so fmax, at least 1. */
static void check_leaf(Ctx *c, int fmax)
{
    c->stats[EXAMINED]++;
    if (!fmax) {
        c->stats[SYMMETRIC]++;
        return;
    }
    switch (leaf_stage(c)) {
    case PASS:
        c->emit(c->states);
        break;
    case NOT_STRONG:
        c->stats[NOT_STRONGLY_CONNECTED]++;
        break;
    default:
        c->stats[AXIOM]++;
    }
}

/* Add (d = 1) or remove (d = -1) the arcs of edge `depth` in state s.
   Toggling the bits is safe because the graph is simple: no other edge
   owns them. */
static inline void orient(Ctx *c, int depth, int s, int d)
{
    int u = c->eu[depth], v = c->ev[depth];
    if (s == BWD) {
        int t = u;
        u = v;
        v = t;
    }
    c->out_m[u] ^= (u64)1 << v;
    c->in_m[v] ^= (u64)1 << u;
    if (s == DIG) {
        c->out_m[v] ^= (u64)1 << u;
        c->in_m[u] ^= (u64)1 << v;
        c->dd[u] += d;
        c->dd[v] += d;
    } else {
        c->oo[u] += d;
        c->ii[v] += d;
    }
}

static inline int max(int a, int b)
{
    return a > b ? a : b;
}

/* Skip the `leaves` leaves of a child past the degree bound without
   visiting it. */
static inline void cut(Ctx *c, i64 leaves)
{
    c->stats[SKIPPED_DEGREE] += leaves;
}

/* dmax and fmax: the largest digon and the largest out-only or in-only
   degree of any vertex in the edges oriented so far. */
static void dfs(Ctx *c, int depth, int dmax, int fmax)
{
    if (depth == c->ne) {
        check_leaf(c, fmax);
        return;
    }
    int fixed = depth < c->np;
    int lo = fixed ? c->prefix[depth] : FWD, hi = fixed ? lo : DIG;
    i64 leaves = c->pow3[c->ne - max(depth + 1, c->np)];
    int u = c->eu[depth], v = c->ev[depth];
    for (int s = lo; s <= hi; s++) {
        orient(c, depth, s, 1);
        c->states[depth] = (unsigned char)s;
        int dm = max(dmax, max(c->dd[u], c->dd[v]));
        int fm = max(max(fmax, max(c->oo[u], c->ii[u])),
                     max(c->oo[v], c->ii[v]));
        if (dm + 2 * fm > c->k)
            cut(c, leaves);
        else
            dfs(c, depth + 1, dm, fm);
        orient(c, depth, s, -1);
    }
}

/* Write into depth + 1 the closure at depth with the arcs of edge `depth`
   in state s added.  x reaches y after the arc u -> v when it did before,
   or when x reaches u and v reaches y. */
static void close_edge(Ctx *c, int depth, int s)
{
    int n = c->n, u = c->eu[depth], v = c->ev[depth];
    u64 *r = c->reach[depth + 1], *t = c->coreach[depth + 1];
    memcpy(r, c->reach[depth], sizeof(u64) * n);
    memcpy(t, c->coreach[depth], sizeof(u64) * n);
    if (s == BWD) {
        int w = u;
        u = v;
        v = w;
    }
    for (int arc = 0; arc < 1 + (s == DIG); arc++) {
        u64 rv = r[v], tu = t[u];
        for (u64 m = tu; m; m &= m - 1)
            r[__builtin_ctzll(m)] |= rv;
        for (u64 m = rv; m; m &= m - 1)
            t[__builtin_ctzll(m)] |= tu;
        int w = u;
        u = v;
        v = w;
    }
}

/* The memo slot of the state (depth, reach[depth]): the slot that holds
   it, or the empty slot where it goes.  The table has memo_cap > 0 slots
   of n + 2 words, depth + 1 (0 when empty), the count and the n reach
   masks, and is at most half full. */
static u64 *memo_slot(const Ctx *c, u64 *memo, size_t cap, int depth,
                      const u64 *r)
{
    int n = c->n;
    u64 h = (u64)depth * 0x9e3779b97f4a7c15ULL;
    for (int x = 0; x < n; x++)
        h = (h ^ r[x]) * 0xff51afd7ed558ccdULL;
    for (size_t i = (h ^ h >> 29) & (cap - 1);; i = (i + 1) & (cap - 1)) {
        u64 *slot = memo + i * (n + 2);
        if (!slot[0] || (slot[0] == (u64)depth + 1
                         && !memcmp(slot + 2, r, sizeof(u64) * n)))
            return slot;
    }
}

/* Store count for the state (depth, reach[depth]), doubling the table
   first when it would be more than half full.  Past MEMO_BYTES, or when
   the allocation fails, it stores nothing. */
static void memo_put(Ctx *c, int depth, i64 count)
{
    size_t w = (size_t)c->n + 2;
    if (2 * (c->memo_used + 1) > c->memo_cap) {
        size_t cap = c->memo_cap ? 2 * c->memo_cap : MEMO_MIN;
        u64 *memo;
        if (cap * w * sizeof(u64) > MEMO_BYTES
                || !(memo = calloc(cap * w, sizeof(u64))))
            return;
        for (size_t i = 0; i < c->memo_cap; i++) {
            const u64 *old = c->memo + i * w;
            if (old[0])
                memcpy(memo_slot(c, memo, cap, (int)old[0] - 1, old + 2),
                       old, sizeof(u64) * w);
        }
        free(c->memo);
        c->memo = memo;
        c->memo_cap = cap;
    }
    u64 *slot = memo_slot(c, c->memo, c->memo_cap, depth, c->reach[depth]);
    slot[0] = (u64)depth + 1;
    slot[1] = (u64)count;
    memcpy(slot + 2, c->reach[depth], sizeof(u64) * c->n);
    c->memo_used++;
}

/* The completions of edges depth.. whose digraph, with the arcs whose
   closure is reach[depth], is not strongly connected: the DP of
   `_kernel_py.not_strong_counter`. */
static i64 not_strong(Ctx *c, int depth)
{
    int n = c->n;
    const u64 *r = c->reach[depth], *t = c->coreach[depth];
    const u64 *e = c->rest[depth];
    u64 out_m[MAXN], in_m[MAXN], full = vertex_set(n);
    if (r[0] == full && t[0] == full)
        return 0;
    if (c->memo_cap) {
        const u64 *slot = memo_slot(c, c->memo, c->memo_cap, depth, r);
        if (slot[0])
            return (i64)slot[1];
    }
    for (int x = 0; x < n; x++) {
        out_m[x] = r[x] | e[x];
        in_m[x] = t[x] | e[x];
    }
    if (bfs(out_m, 0, NULL, NULL, NULL) != full
            || bfs(in_m, 0, NULL, NULL, NULL) != full)
        return c->pow3[c->ne - depth];
    i64 count = 0;
    for (int s = FWD; s <= DIG; s++) {
        close_edge(c, depth, s);
        count += not_strong(c, depth + 1);
    }
    memo_put(c, depth, count);
    return count;
}

/* Enumerate and check every completion of each of the nprefixes prefixes
   over the edges (eu[i], ev[i]) = (edges[2i], edges[2i+1]), in order.
   Prefix i is the next lengths[i] bytes of prefixes, which holds them
   back to back.  Adds the counters into stats[0..NSTATS - 1] and, unless
   prune_degree, N into stats[NSTATS].  Returns 0, or -1 when out of
   memory. */
int wdrd_search_run(int n, int ne, const int *edges, int nprefixes,
                    const int *lengths, const unsigned char *prefixes,
                    int prune_degree, i64 *stats, emit_fn emit)
{
    Ctx *c = calloc(1, sizeof(Ctx));
    int deg[MAXN] = {0}, regular = 1;
    if (!c)
        return -1;
    c->n = n;
    c->ne = ne;
    c->stats = stats;
    c->emit = emit;
    c->pow3[0] = 1;
    for (int i = 0; i < ne; i++) {
        c->eu[i] = edges[2 * i];
        c->ev[i] = edges[2 * i + 1];
        deg[c->eu[i]]++;
        deg[c->ev[i]]++;
        c->pow3[i + 1] = 3 * c->pow3[i];
    }
    for (int i = ne - 1; i >= 0; i--) {
        memcpy(c->rest[i], c->rest[i + 1], sizeof(u64) * n);
        c->rest[i][c->eu[i]] |= (u64)1 << c->ev[i];
        c->rest[i][c->ev[i]] |= (u64)1 << c->eu[i];
    }
    /* the closure of no arc, from which each prefix's closure is built */
    for (int x = 0; x < n; x++)
        c->reach[0][x] = c->coreach[0][x] = (u64)1 << x;
    /* An irregular graph carries no scheme: with k = -1 the first edge
       cuts every branch. */
    for (int v = 1; v < n; v++)
        regular &= deg[v] == deg[0];
    c->k = regular ? deg[0] : -1;
    for (int i = 0; i < nprefixes; prefixes += lengths[i++]) {
        c->np = lengths[i];
        c->prefix = prefixes;
        dfs(c, 0, 0, 0);
        if (prune_degree)
            continue;
        for (int d = 0; d < c->np; d++)
            close_edge(c, d, c->prefix[d]);
        stats[NSTATS] += not_strong(c, c->np);
    }
    free(c->memo);
    free(c);
    return 0;
}

/* One digraph through the leaf checks that follow the symmetry test, for
   tests: returns the stage that rejects the digraph with adjacency masks
   out_m and in_m, as in leaf_stage(), or -1 when out of memory. */
int wdrd_leaf_stage(int n, const u64 *out_m, const u64 *in_m)
{
    Ctx *c = calloc(1, sizeof(Ctx));
    int stage;
    if (!c)
        return -1;
    c->n = n;
    memcpy(c->out_m, out_m, sizeof(u64) * n);
    memcpy(c->in_m, in_m, sizeof(u64) * n);
    stage = leaf_stage(c);
    free(c);
    return stage;
}

/* ---- Canonical permutation ------------------------------------------

   The search of `wdrd.canon`, whose docstring defines it, step for step
   as `_kernel_py._canonical_permutation` runs it. */

/* The first number of automorphisms the list holds; it then doubles. */
#define AUTOS_MIN 16

/* A candidate's layered key kin * 2^n + kout, as the pair (kin, kout):
   each half has one bit per position, so n <= 64 bits. */
typedef struct {
    u64 in, out;
} Key;

static inline int key_cmp(Key a, Key b)
{
    if (a.in != b.in)
        return a.in < b.in ? -1 : 1;
    return a.out < b.out ? -1 : a.out > b.out;
}

typedef struct {
    int n;
    const u64 *out_m, *in_m;
    u64 block_m[MAXN];        /* the vertices whose colour position p
                                 takes: the p-th smallest colour */
    int sig[MAXN * MAXN];     /* refinement signatures, one per row */
    int color[MAXN];
    Key key[MAXN], cur[MAXN], best[MAXN];
    unsigned char perm[MAXN], best_perm[MAXN];
    u64 used;                 /* the vertices of perm[0..p-1] */
    unsigned char *autos;     /* the automorphisms found, n bytes each, as
                                 vertex maps */
    size_t nautos, autos_cap;
    int failed;               /* an allocation failed: unwind */
} Canon;

/* Lexicographic comparison of two rows of len ints. */
static int row_cmp(const int *a, const int *b, int len)
{
    for (int i = 0; i < len; i++)
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    return 0;
}

/* Write into ids each vertex's rank among the distinct signatures in
   lexicographic order, the signatures being the rows of len ints of sig.
   Returns whether some id changed. */
static int canonical_ids(Canon *c, int len, int *ids)
{
    int n = c->n, order[MAXN], changed = 0;
    for (int v = 0; v < n; v++) {
        int i;
        for (i = v; i && row_cmp(c->sig + order[i - 1] * len,
                                 c->sig + v * len, len) > 0; i--)
            order[i] = order[i - 1];
        order[i] = v;
    }
    for (int i = 0, id = 0; i < n; i++) {
        int v = order[i];
        if (i && row_cmp(c->sig + order[i - 1] * len, c->sig + v * len, len))
            id++;
        changed |= ids[v] != id;
        ids[v] = id;
    }
    return changed;
}

/* The colour refinement of `_kernel_py._refined_colors`: first the
   signatures (out-degree, in-degree, digon degree), then, until no colour
   changes, each vertex's colour followed by its sorted pair keys
   colour(w) * 4 + 2 adj[w][v] + adj[v][w] over w != v.  Sets color and
   block_m. */
static void refine(Canon *c)
{
    int n = c->n, p = 0;
    u64 members[MAXN] = {0};
    for (int v = 0; v < n; v++) {
        c->sig[3 * v] = popcount(c->out_m[v]);
        c->sig[3 * v + 1] = popcount(c->in_m[v]);
        c->sig[3 * v + 2] = popcount(c->out_m[v] & c->in_m[v]);
    }
    canonical_ids(c, 3, c->color);
    do {
        for (int v = 0; v < n; v++) {
            int *row = c->sig + v * n, len = 1;
            row[0] = c->color[v];
            for (int w = 0; w < n; w++) {
                int key, i;
                if (w == v)
                    continue;
                key = 4 * c->color[w] + 2 * (int)(c->in_m[v] >> w & 1)
                      + (int)(c->out_m[v] >> w & 1);
                for (i = len++; i > 1 && row[i - 1] > key; i--)
                    row[i] = row[i - 1];
                row[i] = key;
            }
        }
    } while (canonical_ids(c, n, c->color));
    /* colours are the ranks 0, 1, ...: block by block in colour order */
    for (int v = 0; v < n; v++)
        members[c->color[v]] |= (u64)1 << v;
    for (int col = 0; p < n; col++)
        for (int i = popcount(members[col]); i; i--)
            c->block_m[p++] = members[col];
}

/* The root of x in the union-find forest parent, halving its path. */
static int find(unsigned char *parent, int x)
{
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

/* Merge the orbits of the union-find forest orbit by each automorphism
   from the first-th on that fixes perm[0..p-1] pointwise.  *joined says
   whether orbit holds a forest; the first such automorphism makes one
   from singletons. */
static void join_orbits(const Canon *c, size_t first, int p,
                        unsigned char *orbit, int *joined)
{
    int n = c->n;
    for (size_t i = first; i < c->nautos; i++) {
        const unsigned char *g = c->autos + i * n;
        int x = 0;
        while (x < p && g[c->perm[x]] == c->perm[x])
            x++;
        if (x < p)
            continue;
        if (!*joined) {
            for (x = 0; x < n; x++)
                orbit[x] = (unsigned char)x;
            *joined = 1;
        }
        for (x = 0; x < n; x++) {
            int a = find(orbit, x), b = find(orbit, g[x]);
            if (a != b)
                orbit[b] = (unsigned char)a;
        }
    }
}

/* Append the automorphism best_perm[i] -> perm[i], growing the list; sets
   failed when it cannot grow. */
static void add_automorphism(Canon *c)
{
    int n = c->n;
    if (c->nautos == c->autos_cap) {
        size_t cap = c->autos_cap ? 2 * c->autos_cap : AUTOS_MIN;
        unsigned char *autos = realloc(c->autos, cap * n);
        if (!autos) {
            c->failed = 1;
            return;
        }
        c->autos = autos;
        c->autos_cap = cap;
    }
    unsigned char *g = c->autos + c->nautos++ * n;
    for (int i = 0; i < n; i++)
        g[c->best_perm[i]] = c->perm[i];
}

/* Place every candidate for position p in turn.  tied says cur[0..p-1]
   equals best[0..p-1]; otherwise it is smaller, or there is no best yet.
   Returns whether best changed, which happens only at a leaf below every
   open frame and then ties them all. */
static int canon_dfs(Canon *c, int p, int tied)
{
    int n = c->n, ncand = 0, nexplored = 0, joined = 0, improved = 0;
    unsigned char cands[MAXN], explored[MAXN], orbit[MAXN];
    size_t folded = 0;
    if (p == n) {
        if (tied) {
            add_automorphism(c);
            return 0;
        }
        memcpy(c->best, c->cur, sizeof(Key) * n);
        memcpy(c->best_perm, c->perm, n);
        return 1;
    }
    /* the unplaced vertices of p's colour, in vertex order, stably sorted
       by key */
    for (u64 m = c->block_m[p] & ~c->used; m; m &= m - 1) {
        int v = __builtin_ctzll(m), i;
        for (i = ncand++; i && key_cmp(c->key[cands[i - 1]], c->key[v]) > 0;
             i--)
            cands[i] = cands[i - 1];
        cands[i] = (unsigned char)v;
    }
    u64 low = (u64)1 << (n - 1 - p);
    for (int i = 0; i < ncand && !c->failed; i++) {
        int v = cands[i], skip = 0;
        Key k = c->key[v];
        if (tied && key_cmp(k, c->best[p]) > 0)
            break; /* keys ascend: every later candidate is worse too */
        /* the orbits of the automorphisms that fix perm[0..p-1],
           extended when a child finds more */
        if (folded < c->nautos) {
            join_orbits(c, folded, p, orbit, &joined);
            folded = c->nautos;
        }
        if (joined) {
            int root = find(orbit, v);
            for (int j = 0; j < nexplored && !skip; j++)
                skip = find(orbit, explored[j]) == root;
            if (skip)
                continue; /* the image of an explored sibling's subtree */
        }
        explored[nexplored++] = (unsigned char)v;
        c->cur[p] = k;
        c->used |= (u64)1 << v;
        c->perm[p] = (unsigned char)v;
        for (u64 m = c->out_m[v]; m; m &= m - 1)
            c->key[__builtin_ctzll(m)].in += low;
        for (u64 m = c->in_m[v]; m; m &= m - 1)
            c->key[__builtin_ctzll(m)].out += low;
        if (canon_dfs(c, p + 1, tied && !key_cmp(k, c->best[p])))
            improved = tied = 1;
        for (u64 m = c->out_m[v]; m; m &= m - 1)
            c->key[__builtin_ctzll(m)].in -= low;
        for (u64 m = c->in_m[v]; m; m &= m - 1)
            c->key[__builtin_ctzll(m)].out -= low;
        c->used &= ~((u64)1 << v);
    }
    return improved;
}

/* Write into perm the vertex order minimizing the layered key of the
   digraph with adjacency masks out_m and in_m on 1 <= n <= 64 vertices.
   Returns 0, or -1 when out of memory. */
int wdrd_canonical_permutation(int n, const u64 *out_m, const u64 *in_m,
                               int *perm)
{
    Canon *c = calloc(1, sizeof(Canon));
    int failed;
    if (!c)
        return -1;
    c->n = n;
    c->out_m = out_m;
    c->in_m = in_m;
    refine(c);
    canon_dfs(c, 0, 0);
    for (int i = 0; i < n; i++)
        perm[i] = c->best_perm[i];
    failed = c->failed;
    free(c->autos);
    free(c);
    return failed ? -1 : 0;
}
