/* Compiled orientation-search kernel.

   Same contract and identical output as `_kernel_py.search_run`; see that
   module for the contract, for the soundness of the degree prune and for
   the rule by which settle() counts every doomed node, leaves included.
   The search carries the largest digon degree dmax and the largest
   out-only or in-only degree fmax of any vertex so far.  With the degree
   prune it cuts a subtree when dmax + 2 fmax > k, the common degree (-1
   on an irregular graph, so that the first edge cuts every branch);
   without it, a node past that bound with a non-digon edge is doomed.  One
   depth-first search tries only prefix[depth] at the depths below the
   prefix length and emits every weakly distance-regular word it finds;
   the kernel knows nothing of arc reversal, and `wdrd.search` classifies
   the survivors.
   `wdrd.kernel` compiles this file with the system C compiler, loads it
   with ctypes and validates every argument before calling
   `wdrd_search_run`.

   Leaf pipeline, the steps of `_kernel_py` in the same order: symmetric
   leaves; strong connectivity, by one BFS from vertex 0 over out_m and
   one over in_m, which also record vertex 0's distance-layer sizes; the
   layers (leaf_stage()); the classes (classify()); the two-arc path
   counts (constant_arcs()); the intersection tensor (constant_tensor()).
   The layer check is sound because in a scheme #{y : d(x,y) = i} is a sum
   of valencies, the same for every x, and #{y : d(y,x) = i} equals it
   because dual classes have equal valencies.  The two-arc check is sound
   because #{z : x -> z -> y} is a sum of intersection numbers p^l_ij over
   the class l of (x,y).  Each rejects only leaves that the class or the
   tensor check would reject, and counts as AXIOM like them.

   Limits: n <= 64 vertices (one 64-bit adjacency mask per vertex) and 39
   edges (3^|E| must fit in a signed 64-bit counter).

   Thread safety: the file has no mutable static data.  Each call keeps
   all of its state in its own calloc'd Ctx and writes only there and to
   the caller's stats array and emit callback, so calls on different
   arguments may run at once; `wdrd.search` runs the branches of one
   search concurrently from threads. */

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
    int n, ne, np, prune, k;          /* k: common degree, or -1 */
    const unsigned char *prefix;
    int eu[MAXE], ev[MAXE];
    u64 out_m[MAXN], in_m[MAXN];
    int dd[MAXN], oo[MAXN], ii[MAXN]; /* digon, out-only, in-only degrees */
    i64 pow3[MAXE + 1];
    u64 rest[MAXE + 1][MAXN];         /* rest[d][x]: x's neighbours over
                                         edges d.. (none at d = ne) */
    unsigned char states[MAXE];
    i64 *stats;
    emit_fn emit;
    /* leaf scratch; every lookup table is all-zero between leaves */
    int dist[MAXN * MAXN];
    int lay_out[MAXN + 1], lay_in[MAXN + 1]; /* vertex 0's layer sizes */
    int labels[MAXN * MAXN];
    int class_of[64 * 64];            /* two-way distance key -> class + 1 */
    int class_key[MAXN];
    int row0[MAXN], row[MAXN];
    int tally[MAXN * MAXN];
    int touched[MAXN];
    int ref_arcs[MAXN];               /* -1 until the class has a reference */
    int ref_nnz[MAXN];                /* -1 until the class has a reference */
    int refs[];                       /* per class: dense c x c tally; n^3
                                         entries, as every class occurs in
                                         row 0 and so c <= n */
} Ctx;

/* A zeroed Ctx with room for the tallies of n vertices, or NULL. */
static Ctx *ctx_new(int n)
{
    return calloc(1, sizeof(Ctx) + sizeof(int) * n * n * n);
}

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
   class of (x,y), as a sum of intersection numbers must. */
static int constant_arcs(Ctx *c, int nc)
{
    int n = c->n;
    for (int l = 0; l < nc; l++)
        c->ref_arcs[l] = -1;
    for (int x = 0; x < n; x++) {
        for (int y = 0; y < n; y++) {
            int lab = c->labels[x * n + y];
            int k = popcount(c->out_m[x] & c->in_m[y]);
            if (c->ref_arcs[lab] < 0)
                c->ref_arcs[lab] = k;
            else if (c->ref_arcs[lab] != k)
                return 0;
        }
    }
    return 1;
}

/* Check that p^l_{ij} = #{z : (x,z) in i, (z,y) in j} depends only on the
   class l of (x,y), against the first tally of each class. */
static int constant_tensor(Ctx *c, int nc)
{
    int n = c->n, cc = nc * nc;
    memset(c->refs, 0, sizeof(int) * nc * cc);
    for (int l = 0; l < nc; l++)
        c->ref_nnz[l] = -1;
    for (int x = 0; x < n; x++) {
        for (int y = 0; y < n; y++) {
            int lab = c->labels[x * n + y], nt = 0;
            int *ref = c->refs + lab * cc, first = c->ref_nnz[lab] < 0;
            for (int z = 0; z < n; z++) {
                int key = c->labels[x * n + z] * nc + c->labels[z * n + y];
                if (!c->tally[key]++)
                    c->touched[nt++] = key;
            }
            /* Equal nonzero counts and equal values on every touched key
               make the two tallies identical. */
            int same = first || c->ref_nnz[lab] == nt;
            if (first)
                c->ref_nnz[lab] = nt;
            for (int t = 0; t < nt; t++) {
                int key = c->touched[t];
                if (first)
                    ref[key] = c->tally[key];
                else if (ref[key] != c->tally[key])
                    same = 0;
                c->tally[key] = 0;
            }
            if (!same)
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
    if (!constant_arcs(c, nc))
        return ARCS;
    return constant_tensor(c, nc) ? PASS : TENSOR;
}

/* Whether the oriented arcs, with each edge of `extra` added both ways,
   form a strongly connected digraph: the forward and the backward search
   from vertex 0 both reach every vertex. */
static int strong(const Ctx *c, const u64 *extra)
{
    u64 out_m[MAXN], in_m[MAXN];
    for (int v = 0; v < c->n; v++) {
        out_m[v] = c->out_m[v] | extra[v];
        in_m[v] = c->in_m[v] | extra[v];
    }
    return bfs(out_m, 0, NULL, NULL, NULL) == vertex_set(c->n)
        && bfs(in_m, 0, NULL, NULL, NULL) == vertex_set(c->n);
}

/* Count a leaf that no settle() decided: symmetric, or through the leaf
   pipeline. */
static void check_leaf(Ctx *c, int nondigon)
{
    c->stats[EXAMINED]++;
    if (!nondigon) {
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

/* Set (on) or clear the arcs of edge `depth` in state s. */
static void orient(Ctx *c, int depth, int s, int on)
{
    int u = c->eu[depth], v = c->ev[depth], d = on ? 1 : -1;
    if (s == BWD) {
        int t = u;
        u = v;
        v = t;
    }
#define SET(m, b) ((m) = on ? (m) | ((u64)1 << (b)) : (m) & ~((u64)1 << (b)))
    SET(c->out_m[u], v);
    SET(c->in_m[v], u);
    if (s == DIG) {
        SET(c->out_m[v], u);
        SET(c->in_m[u], v);
        c->dd[u] += d;
        c->dd[v] += d;
    } else {
        c->oo[u] += d;
        c->ii[v] += d;
    }
#undef SET
}

static inline int max(int a, int b)
{
    return a > b ? a : b;
}

/* Count the whole subtree of a doomed node at depth >= np, whose leaves
   each count as AXIOM or NOT_STRONGLY_CONNECTED, when strong connectivity
   is already settled: the oriented arcs are strongly connected, or they
   are not even with every remaining edge added as a digon.  At a leaf no
   edge remains and one of the two holds, so the second test is skipped.
   Returns whether it counted. */
static int settle(Ctx *c, int depth)
{
    int slot;
    if (strong(c, c->rest[c->ne]))
        slot = AXIOM;
    else if (depth == c->ne || !strong(c, c->rest[depth]))
        slot = NOT_STRONGLY_CONNECTED;
    else
        return 0;
    c->stats[EXAMINED] += c->pow3[c->ne - depth];
    c->stats[slot] += c->pow3[c->ne - depth];
    return 1;
}

/* dmax and fmax: the largest digon and the largest out-only or in-only
   degree of any vertex in the edges oriented so far.  A node is doomed
   when dmax + 2 fmax > k and it has a non-digon edge.  The degree prune
   cuts such a node before the call, so only the unpruned search meets
   one. */
static void dfs(Ctx *c, int depth, int nondigon, int dmax, int fmax)
{
    if (nondigon && dmax + 2 * fmax > c->k && depth >= c->np
            && settle(c, depth))
        return;
    if (depth == c->ne) {
        check_leaf(c, nondigon);
        return;
    }
    /* a fixed state: pruning it cuts the whole branch */
    int fixed = depth < c->np;
    int lo = fixed ? c->prefix[depth] : FWD, hi = fixed ? lo : DIG;
    i64 rem = c->pow3[c->ne - (fixed ? c->np : depth + 1)];
    int u = c->eu[depth], v = c->ev[depth];
    for (int s = lo; s <= hi; s++) {
        orient(c, depth, s, 1);
        c->states[depth] = (unsigned char)s;
        int dm = max(dmax, max(c->dd[u], c->dd[v]));
        int fm = max(max(fmax, max(c->oo[u], c->ii[u])),
                     max(c->oo[v], c->ii[v]));
        if (c->prune && dm + 2 * fm > c->k)
            c->stats[SKIPPED_DEGREE] += rem;
        else
            dfs(c, depth + 1, nondigon + (s != DIG), dm, fm);
        orient(c, depth, s, 0);
    }
}

/* Enumerate and check every completion of prefix[0..np) over the edges
   (eu[i], ev[i]) = (edges[2i], edges[2i+1]).  Adds the counters into
   stats[NSTATS].  Returns 0, or -1 when out of memory. */
int wdrd_search_run(int n, int ne, const int *edges, int np,
                    const unsigned char *prefix, int prune_degree,
                    i64 *stats, emit_fn emit)
{
    Ctx *c = ctx_new(n);
    int deg[MAXN] = {0}, regular = 1;
    if (!c)
        return -1;
    c->n = n;
    c->ne = ne;
    c->np = np;
    c->prefix = prefix;
    c->prune = prune_degree;
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
    /* An irregular graph carries no scheme: with k = -1 the first edge
       cuts every branch in pruned mode. */
    for (int v = 1; v < n; v++)
        regular &= deg[v] == deg[0];
    c->k = regular ? deg[0] : -1;
    dfs(c, 0, 0, 0, 0);
    free(c);
    return 0;
}

/* One digraph through the leaf checks that follow the symmetry test, for
   tests: returns the stage that rejects the digraph with adjacency masks
   out_m and in_m, as in leaf_stage(), or -1 when out of memory. */
int wdrd_leaf_stage(int n, const u64 *out_m, const u64 *in_m)
{
    Ctx *c = ctx_new(n);
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
