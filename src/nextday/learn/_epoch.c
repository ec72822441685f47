/* The random draws of the SVM's epochs and of every forest tree, the SVM's
 * step loop, and the growth of all trees of a CART or forest fit, for
 * nextday.learn.svm and nextday.learn.tree.
 *
 * Every entry point reproduces the Python code it stands for, so a fit
 * gives the same bits either way. Build with
 * -O2 -ffp-contract=off: a contracted multiply-add would round once
 * where Python rounds twice.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* cblas_ddot with 64-bit ints: the one ndarray.dot calls. */
typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx, const double *y,
                          int64_t incy);

static int bit_length(uint32_t v) {
    int k = 0;
    while (v) {
        k++;
        v >>= 1;
    }
    return k;
}

/* ---- CPython's Mersenne Twister ----
 *
 * MT19937 (Matsumoto and Nishimura, ACM TOMACS 1998) as CPython's
 * `_random` module runs it. A state is MT_STATE words: the 624 words of
 * the generator and then the index of the next word to temper, which is
 * the second item of `random.Random.getstate()`.
 */
#define MT_N 624
#define MT_M 397
#define MT_STATE (MT_N + 1)

static uint32_t mt_next(uint32_t *mt) {
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (mt[MT_N] >= MT_N) { /* generate N words at one time */
        int k;
        for (k = 0; k < MT_N - MT_M; k++) {
            y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
            mt[k] = mt[k + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; k < MT_N - 1; k++) {
            y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
            mt[k] = mt[k + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* `init_by_array(key)`: the state `random.Random` seeds from the 32-bit
 * words of its seed's integer, least significant first. */
static void mt_seed(uint32_t *mt, const uint32_t *key, int64_t key_length) {
    mt[0] = 19650218U;
    for (uint32_t i = 1; i < MT_N; i++) mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i;
    int64_t i = 1, j = 0;
    for (int64_t k = MT_N > key_length ? MT_N : key_length; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (j >= key_length) j = 0;
    }
    for (int64_t k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
    mt[MT_N] = MT_N;
}

/* CPython's `_randbelow(m)` for 0 < m < 2**32: the top bit_length(m)
 * bits of a word, drawn again while they are not below m. */
static uint32_t randbelow(uint32_t *mt, uint32_t m) {
    int shift = 32 - bit_length(m);
    for (;;) {
        uint32_t r = mt_next(mt) >> shift;
        if (r < m) return r;
    }
}

/* Seed count generators into states (count, MT_STATE): generator i from
 * keys[ends[i - 1] .. ends[i]) (from 0 for the first), each key at least
 * one word long. */
void seed_states(const uint32_t *keys, const int64_t *ends, int64_t count, uint32_t *states) {
    int64_t start = 0;
    for (int64_t i = 0; i < count; i++) {
        mt_seed(states + i * MT_STATE, keys + start, ends[i] - start);
        start = ends[i];
    }
}

/* `[rng.randrange(n) for _ in range(n)]` from each of count states into
 * rows (count, n), advancing each state past its draws. */
void bootstrap_rows(uint32_t *states, int64_t count, int64_t n, int32_t *rows) {
    for (int64_t t = 0; t < count; t++) {
        uint32_t *mt = states + t * MT_STATE;
        for (int64_t i = 0; i < n; i++) rows[t * n + i] = (int32_t)randbelow(mt, (uint32_t)n);
    }
}

/* Fill the (epochs, n) orders with CPython's `shuffle` of range(n), one
 * epoch after another, drawing from state, which is left after the last
 * draw. */
void shuffle_orders(uint32_t *state, int32_t *orders, int64_t n, int64_t epochs) {
    for (int64_t e = 0; e < epochs; e++) {
        int32_t *order = orders + e * n;
        for (int64_t i = 0; i < n; i++) order[i] = (int32_t)i;
        for (int64_t i = n - 1; i > 0; i--) {
            uint32_t r = randbelow(state, (uint32_t)(i + 1));
            int32_t t = order[i];
            order[i] = order[r];
            order[r] = t;
        }
    }
}

/* Every epoch of `train_svm`'s step loop: epoch e visits the rows in
 * orders[e * n .. e * n + n). x is the (n, d) standardized matrix,
 * row-major; zero_row[i] is set when row i is all zeros, which takes the
 * bias-only step. scaled_sum (d) and harmonic_sums (n) start at zero and
 * are updated in place; at the end, last[0] is avg_bias and last[1] the
 * harmonic number H of the last step.
 */
void svm_fit(ddot_fn ddot, int64_t n, int64_t d, const double *x, const double *signs,
             const uint8_t *zero_row, const int32_t *orders, int64_t epochs, double lam,
             double *scaled_sum, double *harmonic_sums, double *last) {
    double eta = 0.0, bias = 0.0, avg_bias = 0.0, harmonic = 0.0;
    int64_t step = 0;
    for (int64_t e = 0; e < epochs; e++) {
        const int32_t *order = orders + e * n;
        for (int64_t k = 0; k < n; k++) {
            int64_t i = order[k];
            double sign = signs[i];
            const double *row = x + i * d;
            double margin;
            if (zero_row[i]) {
                margin = sign * bias;
            } else {
                /* numpy's DOUBLE_dot adds the BLAS result to 0.0 */
                double dot = 0.0 + ddot(d, row, 1, scaled_sum, 1);
                margin = sign * (eta * dot + bias);
            }
            step += 1;
            eta = 1.0 / (lam * (double)step);
            if (margin < 1.0) {
                bias += eta * sign;
                if (!zero_row[i]) {
                    if (sign > 0.0) {
                        for (int64_t j = 0; j < d; j++) scaled_sum[j] += row[j];
                    } else {
                        for (int64_t j = 0; j < d; j++) scaled_sum[j] -= row[j];
                    }
                    harmonic_sums[i] += harmonic;
                }
            }
            avg_bias += (bias - avg_bias) / (double)step;
            harmonic += 1.0 / (double)step;
        }
    }
    last[0] = avg_bias;
    last[1] = harmonic;
}

/* ---- Tree growth, for nextday.learn.tree ----
 *
 * `grow_trees` grows the trees of a fit one after another, each depth
 * first and left child first, as `tree._grow_python` does, and writes the
 * same node arrays. Each tree keeps, for every column, its sample rows
 * sorted by rank (SLIQ's attribute lists); a node owns the same slice of
 * every list, and a split partitions each slice stably, so a node's split
 * search is one pass over each searched column's slice.
 *
 * A tree's nodes are contiguous: its root first, and its k-th split (in
 * depth-first order) appends the left and right children as the tree's
 * nodes 2k + 1 and 2k + 2.
 */

typedef struct {
    int32_t start; /* the node's slice of every attribute list */
    int32_t length;
    int32_t depth;
    int32_t node;  /* its index in the outputs */
} Pending;

typedef struct {
    /* the fit */
    int64_t n, d, m, stride, min_leaf, max_depth, width;
    const int32_t *ranks; /* (d, n): rank of each cell, column-major */
    const int32_t *order; /* (d, n): each column's rows in rank order */
    const uint8_t *label; /* (n) */
    const double *values, *x;
    int64_t set_branch;
    /* one tree's state */
    const int32_t *sample; /* (m) */
    int32_t *multiplicity; /* (n) each row's copies in the sample */
    int built;        /* whether the lists hold the tree's rows yet */
    int32_t *lists;   /* (d, m) */
    int32_t *spill;   /* (max(m, d)) right-going rows during a partition,
                       * or the pool of a column draw */
    uint8_t *goes_left; /* (n) */
    uint8_t *chosen;  /* (d) */
    int32_t *columns; /* (d) */
    Pending *stack;   /* (per_tree) */
    uint32_t mt[MT_STATE]; /* the tree's generator */
    /* the outputs, and the number of nodes written so far */
    int32_t *feature, *left, *counts;
    double *threshold;
    int64_t nodes;
} Grower;

/* `sorted(rng.sample(range(d), width))` into g->columns, from the tree's
 * generator. The pool and set branches are `Random.sample`'s. */
static void sample_columns(Grower *g) {
    int64_t d = g->d, w = g->width;
    if (g->set_branch) {
        for (int64_t i = 0; i < w; i++) {
            uint32_t j;
            do {
                j = randbelow(g->mt, (uint32_t)d);
            } while (g->chosen[j]);
            g->chosen[j] = 1;
        }
    } else {
        int32_t *pool = g->spill; /* free between partitions */
        for (int64_t i = 0; i < d; i++) pool[i] = (int32_t)i;
        for (int64_t i = 0; i < w; i++) {
            uint32_t j = randbelow(g->mt, (uint32_t)(d - i));
            g->chosen[pool[j]] = 1;
            pool[j] = pool[d - i - 1];
        }
    }
    int64_t k = 0;
    for (int64_t c = 0; c < d; c++) {
        if (g->chosen[c]) {
            g->columns[k++] = (int32_t)c;
            g->chosen[c] = 0;
        }
    }
}

static int searchable(const Grower *g, int32_t node, int32_t depth) {
    int64_t n0 = g->counts[2 * node], n1 = g->counts[2 * node + 1];
    return depth < g->max_depth && n0 > 0 && n1 > 0 && n0 + n1 >= 2 * g->min_leaf;
}

static int32_t add_node(Grower *g, int64_t n0, int64_t n1) {
    int32_t node = (int32_t)g->nodes++;
    g->feature[node] = -1;
    g->threshold[node] = 0.0;
    g->left[node] = -1;
    g->counts[2 * node] = (int32_t)n0;
    g->counts[2 * node + 1] = (int32_t)n1;
    return node;
}

/* Search node p over `width` columns (g->columns) and split it when the
 * best split beats the parent's score and sends rows both ways; its
 * searchable children go on the stack, right first. Until the root
 * splits, the attribute lists are not built: the root reads each
 * column's rows in rank order with their multiplicity in the sample
 * instead. */
static void split_node(Grower *g, const Pending *p, int64_t width, int64_t *stacked) {
    int root = !g->built;
    int64_t len = p->length, entries = root ? g->n : len;
    const int32_t *multiplicity = root ? g->multiplicity : NULL;
    int64_t n0 = g->counts[2 * p->node], n1 = g->counts[2 * p->node + 1];
    int64_t best_col = -1, best_low = 0, best_high = 0;
    double best = 0.0;
    for (int64_t k = 0; k < width; k++) {
        int64_t c = g->columns[k];
        const int32_t *list = root ? g->order + c * g->n : g->lists + c * g->m + p->start;
        const int32_t *rank = g->ranks + c * g->n;
        int64_t left = 0, ones = 0;
        int32_t low = 0;
        for (int64_t i = 0; i < entries; i++) {
            int32_t row = list[i], copies = multiplicity ? multiplicity[row] : 1;
            if (copies == 0) continue;
            int32_t high = rank[row];
            /* a candidate between the rows so far and this one */
            if (left >= g->min_leaf) {
                int64_t right = len - left;
                if (right < g->min_leaf) break;
                if (high != low) {
                    int64_t l1 = ones, l0 = left - ones, r1 = n1 - ones, r0 = right - r1;
                    double q = (double)(l0 * l0 + l1 * l1) / (double)left +
                               (double)(r0 * r0 + r1 * r1) / (double)right;
                    if (best_col < 0 || q > best) {
                        best = q;
                        best_col = c;
                        best_low = low;
                        best_high = high;
                    }
                }
            }
            left += copies;
            ones += copies * g->label[row];
            low = high;
        }
    }
    if (best_col < 0 || !(best > (double)(n0 * n0 + n1 * n1) / (double)(n0 + n1))) return;
    const double *v = g->values + best_col * g->stride;
    double t = (v[best_low] + v[best_high]) / 2.0;
    /* the sample, or any list, holds the node's rows */
    const int32_t *rows = root ? g->sample : g->lists + p->start;
    int64_t n_left = 0, left_ones = 0;
    for (int64_t i = 0; i < len; i++) {
        int32_t row = rows[i];
        uint8_t l = g->x[row * g->d + best_col] <= t;
        g->goes_left[row] = l;
        n_left += l;
        left_ones += l & g->label[row];
    }
    if (n_left == 0 || n_left == len) return; /* midpoint rounding */
    g->feature[p->node] = (int32_t)best_col;
    g->threshold[p->node] = t;
    int32_t lc = add_node(g, n_left - left_ones, left_ones);
    int32_t rc = add_node(g, n0 - n_left + left_ones, n1 - left_ones);
    g->left[p->node] = lc;
    int32_t depth = p->depth + 1;
    int sl = searchable(g, lc, depth), sr = searchable(g, rc, depth);
    if (!sl && !sr) return; /* no list is read below this node again */
    for (int64_t c = 0; c < g->d; c++) {
        int32_t *list = g->lists + c * g->m + p->start;
        if (root) { /* the root's lists, left rows first, in rank order */
            const int32_t *by_rank = g->order + c * g->n;
            int64_t a = 0, b = n_left;
            for (int64_t i = 0; i < g->n; i++) {
                int32_t row = by_rank[i];
                int64_t *at = g->goes_left[row] ? &a : &b;
                for (int32_t r = g->multiplicity[row]; r > 0; r--) list[(*at)++] = row;
            }
        } else { /* a stable partition */
            int64_t a = 0, b = 0;
            for (int64_t i = 0; i < len; i++) { /* without a branch per row */
                int32_t row = list[i];
                uint8_t l = g->goes_left[row];
                list[a] = row;
                g->spill[b] = row;
                a += l;
                b += !l;
            }
            for (int64_t i = 0; i < b; i++) list[a + i] = g->spill[i];
        }
    }
    g->built = 1;
    if (sr) g->stack[(*stacked)++] = (Pending){(int32_t)(p->start + n_left), (int32_t)(len - n_left), depth, rc};
    if (sl) g->stack[(*stacked)++] = (Pending){p->start, (int32_t)n_left, depth, lc};
}

/* Grow one tree from its m sample rows into the outputs, one node at a
 * time off the stack, drawing its columns from a copy of state (NULL when
 * the tree searches every column). */
static void grow_tree(Grower *g, const int32_t *sample, const uint32_t *state) {
    int64_t ones = 0;
    for (int64_t i = 0; i < g->n; i++) g->multiplicity[i] = 0;
    for (int64_t i = 0; i < g->m; i++) {
        g->multiplicity[sample[i]]++;
        ones += g->label[sample[i]];
    }
    g->sample = sample;
    g->built = 0;
    int32_t root = add_node(g, g->m - ones, ones);
    int64_t stacked = 0;
    if (searchable(g, root, 0)) g->stack[stacked++] = (Pending){0, (int32_t)g->m, 0, root};
    if (state) {
        memcpy(g->mt, state, sizeof(g->mt));
    } else {
        for (int64_t c = 0; c < g->d; c++) g->columns[c] = (int32_t)c;
    }
    while (stacked > 0) {
        Pending p = g->stack[--stacked];
        if (state) sample_columns(g);
        split_node(g, &p, state ? g->width : g->d, &stacked);
    }
}

/* Grow the n_trees trees of a fit into the outputs.
 *
 * codes (n, d) and values (d, stride) are `rank_columns(x, y)`, labels
 * y (n) as 0 and 1; x is the (n, d) matrix; samples (n_trees, m) each
 * tree's rows, all in range(n). states is NULL when no tree samples
 * columns, or (n_trees, MT_STATE): each tree's generator as its node
 * columns' `rng.sample` calls find it, left unchanged; set_branch says
 * which branch of `Random.sample` a draw of `width` of d columns takes.
 * per_tree bounds one tree's nodes. The outputs (feature, threshold,
 * left, counts (.., 2)) hold n_trees * per_tree nodes; roots (n_trees)
 * gets each tree's first node.
 *
 * Returns the number of nodes, or -1 when memory ran out.
 */
int64_t grow_trees(int64_t n, int64_t d, const int32_t *codes, const uint8_t *labels,
                   const double *values, int64_t stride, const double *x, int64_t n_trees, int64_t m,
                   const int32_t *samples, const uint32_t *states, int64_t set_branch,
                   int64_t width, int64_t min_leaf, int64_t max_depth, int64_t per_tree,
                   int32_t *roots, int32_t *feature, double *threshold, int32_t *left,
                   int32_t *counts) {
    Grower g = {.n = n, .d = d, .m = m, .stride = stride, .min_leaf = min_leaf < 1 ? 1 : min_leaf,
                .max_depth = max_depth, .width = width, .label = labels, .values = values,
                .x = x, .set_branch = set_branch,
                .feature = feature, .threshold = threshold, .left = left, .counts = counts};
    int64_t status = -1;
    /* every size is one more than it needs, so that none is 0 */
    int32_t *ranks = malloc(sizeof(int32_t) * (size_t)(n * d + 1));
    int32_t *order = malloc(sizeof(int32_t) * (size_t)(n * d + 1));
    g.multiplicity = malloc(sizeof(int32_t) * (size_t)((n > stride ? n : stride) + 1));
    g.lists = malloc(sizeof(int32_t) * (size_t)(d * m + 1));
    g.spill = malloc(sizeof(int32_t) * (size_t)((m > d ? m : d) + 1));
    g.goes_left = malloc((size_t)n + 1);
    g.chosen = calloc((size_t)d + 1, 1);
    g.columns = malloc(sizeof(int32_t) * (size_t)(d + 1));
    g.stack = malloc(sizeof(Pending) * (size_t)(per_tree + 1));
    if (!ranks || !order || !g.multiplicity || !g.lists || !g.spill || !g.goes_left || !g.chosen ||
        !g.columns || !g.stack)
        goto done;
    g.ranks = ranks;
    g.order = order;
    for (int64_t i = 0; i < n; i++) {
        for (int64_t c = 0; c < d; c++) ranks[c * n + i] = codes[i * d + c] >> 1;
    }
    /* each column's rows in rank order, by a counting sort */
    int32_t *bucket = g.multiplicity;
    for (int64_t c = 0; c < d; c++) {
        const int32_t *rank = ranks + c * n;
        for (int64_t r = 0; r < stride; r++) bucket[r] = 0;
        for (int64_t i = 0; i < n; i++) bucket[rank[i]]++;
        int32_t at = 0;
        for (int64_t r = 0; r < stride; r++) {
            int32_t k = bucket[r];
            bucket[r] = at;
            at += k;
        }
        for (int64_t i = 0; i < n; i++) order[c * n + bucket[rank[i]]++] = (int32_t)i;
    }
    for (int64_t t = 0; t < n_trees; t++) {
        roots[t] = (int32_t)g.nodes;
        grow_tree(&g, samples + t * m, states ? states + t * MT_STATE : NULL);
    }
    status = g.nodes;
done:
    free(ranks);
    free(order);
    free(g.multiplicity);
    free(g.lists);
    free(g.spill);
    free(g.goes_left);
    free(g.chosen);
    free(g.columns);
    free(g.stack);
    return status;
}
