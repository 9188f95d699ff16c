/* Compiled orientation-search kernel, canonical search and scheme checks.

   The five entry points of `_kernel_py`, with the same contract and
   identical output: wdrd_search_run() and wdrd_leaf_stage() for
   `search_run` and `leaf_stage`, wdrd_canonical_permutation(),
   wdrd_axiom_iv() for `axiom_iv_witness`, which takes at most n classes
   (`wdrd.scheme` runs a partition with more classes than vertices, never
   a scheme, on the pure one), and wdrd_product_witness().  See that
   module for the contract and for the soundness of the degree prune.  A
   search call runs a list of disjoint prefixes in order on one Ctx and sums
   their counters, one degree-pruned depth-first search per prefix.  A
   leaf budget above 0 stops the call between prefixes: it starts no
   further prefix once the examined counter has reached the budget, and
   returns how many prefixes it finished, from the first; 0 sets no
   limit.  It
   carries the largest digon degree dmax and the largest out-only or
   in-only degree fmax of any vertex so far; cut() skips a child past the
   bound dmax + 2 fmax > k, the common degree (-1 on an irregular graph,
   so that the first edge passes it on every branch).  The search tries
   only prefix[depth] at the depths below the prefix length and emits
   every weakly distance-regular word it finds.  The kernel knows nothing
   of arc reversal and counts only the leaves it visits: `wdrd.search`
   classifies the survivors, and derives the counters of an unpruned sweep
   from the number of words that are not strongly connected, which it
   counts once per graph by the source-component recurrence of its
   docstring.
   `wdrd.kernel` compiles this file with the system C compiler, loads it
   with ctypes and validates every argument before calling
   `wdrd_search_run`; the C code trusts that no prefix extends another
   and that the budget is not negative.

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

   Scheme checks, wdrd_axiom_iv() and wdrd_product_witness(): axiom (iv)
   by counting each pair's keys against its class's representative in an
   nc^2 table, and the composition identity and the commutation test as
   int64 sums over the tensor's nonzero entries, one row at a time.  Every
   sum is at most nc t^2 < 2^53, t the largest entry, which `wdrd.kernel`
   checks, so none overflows.

   Thread safety: the file has no mutable static data.  Each call keeps
   all of its state in its own calloc'd Ctx, Canon and automorphism list,
   or scheme-check scratch, and writes only there and to the caller's
   stats array, emit callback, permutation or witness, so calls on
   different arguments may run at once.  The budget only decides where a call stops, so it leaves this
   unchanged.  `wdrd.search` runs the branches of one search with a
   budget on the calling thread first, then any it left unfinished as
   shares, concurrently, one call per thread, the calling thread running
   the first share. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXN 64
#define MAXE 39

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

/* Enumerate and check every completion of each of the nprefixes prefixes
   over the edges (eu[i], ev[i]) = (edges[2i], edges[2i+1]), in order.
   Prefix i is the next lengths[i] bytes of prefixes, which holds them
   back to back.  Adds the counters into stats[0..NSTATS - 1].  With a
   budget above 0, starts no further prefix once stats[EXAMINED] has
   reached it.  Returns the number of prefixes finished, or -1 when out
   of memory. */
int wdrd_search_run(int n, int ne, const int *edges, int nprefixes,
                    const int *lengths, const unsigned char *prefixes,
                    i64 budget, i64 *stats, emit_fn emit)
{
    Ctx *c = calloc(1, sizeof(Ctx));
    int deg[MAXN] = {0}, regular = 1, done = 0;
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
    /* An irregular graph carries no scheme: with k = -1 the first edge
       cuts every branch. */
    for (int v = 1; v < n; v++)
        regular &= deg[v] == deg[0];
    c->k = regular ? deg[0] : -1;
    for (; done < nprefixes && !(budget && stats[EXAMINED] >= budget);
         prefixes += lengths[done++]) {
        c->np = lengths[done];
        c->prefix = prefixes;
        dfs(c, 0, 0, 0);
    }
    free(c);
    return done;
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

/* ---- Scheme checks ------------------------------------------------------

   The two tensor checks of `wdrd.scheme`, with the results of
   `_kernel_py.axiom_iv_witness` and `_kernel_py.product_witness`, whose
   module docstring states the contract.  Each call keeps its state in
   its own scratch: O(n^2) for the axiom pass, O(nc^2 + nnz) for the
   products, nnz the number of nonzero tensor entries, and no n^3
   buffer. */

/* Axiom (iv) on the n x n labels class_of of nc <= n classes, reps[l]
   the cell x n + y of the representative pair (x, y) of class l.  Per
   class l, the n keys class(x,z) nc + class(z,y) of the representative
   are counted in an nc^2 table, so key i nc + j holds p^l_ij.  Each
   member pair's keys are then subtracted.  As both pairs have n keys,
   the table sums to zero: it is zero everywhere, and the pair has the
   same counts, exactly when no entry is positive.  A positive entry is
   at a key of the representative, a negative one at a key of the pair,
   so the smallest key whose entry is not zero, the smallest (i, j) whose
   count differs, is the smaller of the smallest such key of each.  The
   pair's keys are added back before the next pair, and the negative
   entries are found as they are.
   Returns the smallest (i nc + j) nc + l over all pairs, -1 when every
   count is constant, or -2 when out of memory. */
i64 wdrd_axiom_iv(int n, int nc, const int *class_of, const i64 *reps)
{
    size_t cells = (size_t)n * n, nkeys = (size_t)nc * nc, begin = 0;
    int *cot = malloc(sizeof(int) * cells);            /* transposed */
    int *table = calloc(nkeys, sizeof(int));
    size_t *order = malloc(sizeof(size_t) * cells);    /* cells by class */
    size_t *end = calloc((size_t)nc + 1, sizeof(size_t));
    size_t *keys = malloc(sizeof(size_t) * 2 * n), *rkeys = keys + n;
    i64 worst = -1;
    if (!cot || !table || !order || !end || !keys) {
        worst = -2;
        goto done;
    }
    /* a stable counting sort: class l ends up at order[end[l - 1]] to
       order[end[l] - 1], in row-major order */
    for (size_t a = 0; a < cells; a++) {
        cot[a % n * n + a / n] = class_of[a];
        end[class_of[a] + 1]++;
    }
    for (int l = 0; l < nc; l++)
        end[l + 1] += end[l];
    for (size_t a = 0; a < cells; a++)
        order[end[class_of[a]]++] = a;
    for (int l = 0; l < nc; l++) {
        size_t best = nkeys, r = (size_t)reps[l];
        const int *rx = class_of + r / n * n, *ry = cot + r % n * n;
        for (int z = 0; z < n; z++) {
            rkeys[z] = (size_t)rx[z] * nc + ry[z];
            table[rkeys[z]]++;
        }
        for (size_t m = begin; m < end[l]; m++) {
            const int *px = class_of + order[m] / n * n;
            const int *py = cot + order[m] % n * n;
            size_t low = nkeys;
            for (int z = 0; z < n; z++) {
                keys[z] = (size_t)px[z] * nc + py[z];
                table[keys[z]]--;
            }
            for (int z = 0; z < n; z++)
                if (table[rkeys[z]] > 0 && rkeys[z] < low)
                    low = rkeys[z];
            /* each key's first increment reads its entry as it was */
            for (int z = 0; z < n; z++) {
                if (table[keys[z]] < 0 && keys[z] < low)
                    low = keys[z];
                table[keys[z]]++;
            }
            if (low < best)
                best = low;
        }
        for (int z = 0; z < n; z++)
            table[rkeys[z]]--;
        if (best < nkeys && (worst < 0 || (i64)(best * nc + l) < worst))
            worst = (i64)(best * nc + l);
        begin = end[l];
    }
done:
    free(cot);
    free(table);
    free(order);
    free(end);
    free(keys);
    return worst;
}

/* A nonzero tensor entry p[a][b][c] = v, b given by the list it is in. */
typedef struct {
    int a, c;
    i64 v;
} Entry;

/* The nonzero entries of an nc x nc x nc tensor p, p[a][b][c] at
   (a nc + b) nc + c: listed by row, row a nc + b in c order from
   rows[row[a nc + b]], and by middle index, mid b from mids[mid[b]].
   acc holds the nc^2 sums of one row of a check, zero between rows;
   touched lists the places it holds, each once, as marked in held. */
typedef struct {
    size_t nc, *row, *mid;            /* nc^2 + 1 and nc + 1 offsets */
    Entry *rows, *mids;
    i64 *acc;
    size_t *touched, ntouched;
    unsigned char *held;
} Tensor;

static void free_tensor(Tensor *t)
{
    free(t->row);
    free(t->mid);
    free(t->rows);
    free(t->mids);
    free(t->acc);
    free(t->touched);
    free(t->held);
}

/* Fill t from p; returns -1 when out of memory, else 0. */
static int load_tensor(Tensor *t, size_t nc, const i64 *p)
{
    size_t rows = nc * nc, nnz = 0, e = 0;
    for (size_t a = 0; a < rows * nc; a++)
        nnz += p[a] != 0;
    t->nc = nc;
    t->row = calloc(rows + 1, sizeof(size_t));
    t->mid = calloc(nc + 1, sizeof(size_t));
    t->rows = malloc(sizeof(Entry) * (nnz + 1));
    t->mids = malloc(sizeof(Entry) * (nnz + 1));
    t->acc = calloc(rows, sizeof(i64));
    t->touched = malloc(sizeof(size_t) * rows);
    t->held = calloc(rows, 1);
    if (!t->row || !t->mid || !t->rows || !t->mids || !t->acc || !t->touched
            || !t->held)
        return -1;
    for (size_t a = 0; a < rows * nc; a++) {
        if (p[a])
            t->rows[e++] = (Entry){(int)(a / rows), (int)(a % nc), p[a]};
        t->row[a / nc + 1] = e;
    }
    e = 0;
    for (size_t b = 0; b < nc; b++) {
        for (size_t a = 0; a < nc; a++)
            for (size_t c = 0; c < nc; c++)
                if (p[(a * nc + b) * nc + c])
                    t->mids[e++] = (Entry){(int)a, (int)c,
                                           p[(a * nc + b) * nc + c]};
        t->mid[b + 1] = e;
    }
    return 0;
}

static inline void accumulate(Tensor *t, size_t at, i64 v)
{
    if (!t->held[at]) {
        t->held[at] = 1;
        t->touched[t->ntouched++] = at;
    }
    t->acc[at] += v;
}

/* The smallest place where acc is not zero, or -1; zeroes acc. */
static i64 first_nonzero(Tensor *t)
{
    i64 first = -1;
    for (size_t e = 0; e < t->ntouched; e++) {
        size_t at = t->touched[e];
        if (t->acc[at] && (first < 0 || (i64)at < first))
            first = (i64)at;
        t->acc[at] = 0;
        t->held[at] = 0;
    }
    t->ntouched = 0;
    return first;
}

/* acc[m][j] = sum_r p^r_il p^j_mr - sum_t p^t_mi p^j_tl: the first sum
   joins row (i, l) with the middle lists, the second the middle list of
   i with the rows (t, l). */
static void exchange_row(Tensor *t, size_t i, size_t l)
{
    size_t nc = t->nc, il = i * nc + l;
    for (size_t e = t->row[il]; e < t->row[il + 1]; e++) {
        const Entry *r = t->rows + e;
        for (size_t f = t->mid[r->c]; f < t->mid[r->c + 1]; f++)
            accumulate(t, t->mids[f].a * nc + t->mids[f].c,
                       r->v * t->mids[f].v);
    }
    for (size_t f = t->mid[i]; f < t->mid[i + 1]; f++) {
        const Entry *m = t->mids + f;
        size_t q = m->c * nc + l;
        for (size_t e = t->row[q]; e < t->row[q + 1]; e++)
            accumulate(t, m->a * nc + t->rows[e].c, -m->v * t->rows[e].v);
    }
}

/* acc[i][j] = (B_a B_b - B_b B_a)[i][j], with B_c[i][j] = p^j_ci:
   sum_t p^t_ai p^j_bt - sum_t p^t_bi p^j_at, joining the rows (a, i)
   with the rows (b, t), and then the other way round. */
static void commute_row(Tensor *t, size_t a, size_t b)
{
    size_t nc = t->nc;
    for (int s = 0; s < 2; s++) {
        size_t x = s ? b : a, y = s ? a : b;
        i64 sign = s ? -1 : 1;
        for (size_t i = 0; i < nc; i++)
            for (size_t e = t->row[x * nc + i]; e < t->row[x * nc + i + 1];
                 e++) {
                const Entry *r = t->rows + e;
                size_t q = y * nc + r->c;
                for (size_t f = t->row[q]; f < t->row[q + 1]; f++)
                    accumulate(t, i * nc + t->rows[f].c,
                               sign * r->v * t->rows[f].v);
            }
    }
}

/* Write into where the smallest (i, l, m, j) at which sum_r p^r_il p^j_mr
   and sum_t p^t_mi p^j_tl differ or, with commute, the smallest
   (a, b, i, j), a < b, at which B_a B_b and B_b B_a differ.  p holds
   p^l_ij at (i nc + j) nc + l; its largest entry t has nc t^2 < 2^53, so
   every sum is exact.  One row, (i, l) or (a, b), at a time, over the
   nonzero entries only: the cost is the number of products with both
   factors nonzero, about nc^3 on a thin scheme rather than the nc^5 of
   the dense products.  Returns 1 when there is such a place, 0 when
   there is none, or -1 when out of memory. */
int wdrd_product_witness(int nc, const i64 *p, int commute, int *where)
{
    Tensor t;
    int found = 0;
    memset(&t, 0, sizeof t);
    if (load_tensor(&t, nc, p))
        found = -1;
    for (size_t u = 0; !found && u < (size_t)nc; u++)
        for (size_t v = commute ? u + 1 : 0; !found && v < (size_t)nc; v++) {
            i64 at;
            if (commute)
                commute_row(&t, u, v);
            else
                exchange_row(&t, u, v);
            at = first_nonzero(&t);
            if (at >= 0) {
                where[0] = (int)u;
                where[1] = (int)v;
                where[2] = (int)(at / nc);
                where[3] = (int)(at % nc);
                found = 1;
            }
        }
    free_tensor(&t);
    return found;
}
