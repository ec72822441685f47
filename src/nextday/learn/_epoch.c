/* The SVM's epoch shuffles and the step loop of a whole fit, for
 * nextday.learn.svm, and the growth of all trees of a CART or forest fit,
 * for nextday.learn.tree.
 *
 * Every entry point reproduces the Python code it stands for, so a fit
 * gives the same bits either way. Build with
 * -O2 -ffp-contract=off: a contracted multiply-add would round once
 * where Python rounds twice.
 */
#include <stdint.h>
#include <stdlib.h>

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

/* Fill the (epochs, n) orders with CPython's `shuffle` of range(n), one
 * epoch after another, taking 32-bit Mersenne Twister words from
 * words[0..m) in draw order. Each `_randbelow(i + 1)` keeps the top
 * bit_length(i + 1) bits of a word and draws again while they exceed i.
 * Returns the number of words used, or -1 if m words were not enough.
 */
int64_t shuffle_orders(const uint32_t *words, int64_t m, int32_t *orders, int64_t n,
                       int64_t epochs) {
    int64_t used = 0;
    for (int64_t e = 0; e < epochs; e++) {
        int32_t *order = orders + e * n;
        for (int64_t i = 0; i < n; i++) order[i] = (int32_t)i;
        for (int64_t i = n - 1; i > 0; i--) {
            int shift = 32 - bit_length((uint32_t)(i + 1));
            uint32_t r;
            do {
                if (used == m) return -1;
                r = words[used++] >> shift;
            } while (r > (uint32_t)i);
            int32_t t = order[i];
            order[i] = order[r];
            order[r] = t;
        }
    }
    return used;
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
 * `grow_trees` grows every tree of a fit as `tree._grow_lockstep` does and
 * writes the same node arrays. Each tree keeps, for every column, its
 * sample rows sorted by rank (SLIQ's attribute lists); a node owns the
 * same slice of every list, and a split partitions each slice stably, so
 * a node's split search is one pass over each searched column's slice.
 *
 * The trees grow one after another, each in its own lockstep order: a
 * column-sampling tree takes one node per round off its stack; any other
 * tree takes its whole stack. Each split records its round, and at the
 * end the nodes are renumbered in the lockstep grower's order: round by
 * round, tree by tree, children appended in the order of their splits.
 */

typedef struct {
    int32_t start; /* the node's slice of every attribute list */
    int32_t length;
    int32_t depth;
    int32_t node; /* the tree's own node number: the root is 0, and
                   * split k makes nodes 2k + 1 and 2k + 2 */
} Pending;

typedef struct {
    /* the fit */
    int64_t n, d, m, stride, min_leaf, max_depth, width;
    const int32_t *ranks; /* (d, n): rank of each cell, column-major */
    const int32_t *order; /* (d, n): each column's rows in rank order */
    const uint8_t *label; /* (n) */
    const double *values, *x;
    const uint32_t *words; /* NULL: every node searches every column */
    int64_t block, set_branch;
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
    Pending *stack, *next; /* (per_tree) each */
    int64_t used;      /* words of the tree's block drawn */
    const uint32_t *tree_words;
    /* the tree's slice of the outputs */
    int32_t *feature, *left, *counts, *rounds;
    double *threshold;
    int64_t nodes, splits;
} Grower;

/* CPython's `_randbelow(m)`: -1 when the tree's words run out. */
static int64_t randbelow(Grower *g, uint32_t m) {
    int shift = 32 - bit_length(m);
    for (;;) {
        if (g->used == g->block) return -1;
        uint32_t r = g->tree_words[g->used++] >> shift;
        if (r < m) return r;
    }
}

/* `sorted(rng.sample(range(d), width))` into g->columns; 0, or -1 when
 * the words run out (which ends the call). The pool and set branches are
 * `Random.sample`'s. */
static int sample_columns(Grower *g) {
    int64_t d = g->d, w = g->width;
    if (g->set_branch) {
        for (int64_t i = 0; i < w; i++) {
            int64_t j;
            do {
                j = randbelow(g, (uint32_t)d);
                if (j < 0) return -1;
            } while (g->chosen[j]);
            g->chosen[j] = 1;
        }
    } else {
        int32_t *pool = g->spill; /* free between partitions */
        for (int64_t i = 0; i < d; i++) pool[i] = (int32_t)i;
        for (int64_t i = 0; i < w; i++) {
            int64_t j = randbelow(g, (uint32_t)(d - i));
            if (j < 0) return -1;
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
    return 0;
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
 * searchable children go to `out`, right first. Until the root splits,
 * the attribute lists are not built: the root reads each column's rows
 * in rank order with their multiplicity in the sample instead. */
static void split_node(Grower *g, const Pending *p, int64_t width, int64_t round, Pending *out,
                       int64_t *out_count) {
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
    g->rounds[g->splits++] = (int32_t)round;
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
    if (sr) out[(*out_count)++] = (Pending){(int32_t)(p->start + n_left), (int32_t)(len - n_left), depth, rc};
    if (sl) out[(*out_count)++] = (Pending){p->start, (int32_t)n_left, depth, lc};
}

/* Grow one tree from its m sample rows; -1 when its words run out. */
static int grow_tree(Grower *g, const int32_t *sample) {
    int64_t ones = 0;
    for (int64_t i = 0; i < g->n; i++) g->multiplicity[i] = 0;
    for (int64_t i = 0; i < g->m; i++) {
        g->multiplicity[sample[i]]++;
        ones += g->label[sample[i]];
    }
    g->sample = sample;
    g->built = 0;
    g->nodes = g->splits = g->used = 0;
    int32_t root = add_node(g, g->m - ones, ones);
    int64_t stacked = 0;
    if (searchable(g, root, 0)) g->stack[stacked++] = (Pending){0, (int32_t)g->m, 0, root};
    int sampling = g->words != NULL;
    if (!sampling) {
        for (int64_t c = 0; c < g->d; c++) g->columns[c] = (int32_t)c;
    }
    for (int64_t round = 0; stacked > 0; round++) {
        if (sampling) {
            Pending p = g->stack[--stacked];
            if (sample_columns(g) < 0) return -1;
            split_node(g, &p, g->width, round, g->stack, &stacked);
        } else {
            int64_t batch = stacked;
            Pending *swap = g->stack;
            g->stack = g->next;
            g->next = swap;
            stacked = 0;
            for (int64_t i = 0; i < batch; i++) {
                split_node(g, &g->next[i], g->d, round, g->stack, &stacked);
            }
        }
    }
    return 0;
}

/* Grow trees progress[0].. of a fit into the outputs and, once all are
 * grown, renumber their nodes into the lockstep order.
 *
 * codes (n, d) and values (d, stride) are `rank_columns(x, y)`, labels
 * y (n) as 0 and 1; x is the (n, d) matrix; samples (n_trees, m) each tree's rows, all in range(n).
 * words is NULL when no tree samples columns, or (n_trees, block)
 * 32-bit Mersenne Twister words, the stream each tree's `rng.sample`
 * calls would read; set_branch says which branch of `Random.sample` a
 * draw of `width` of d columns takes. per_tree bounds one tree's nodes.
 * The outputs (feature, threshold, left, counts (.., 2)) hold n_trees *
 * per_tree nodes and rounds half as many splits; splits holds each tree's
 * split count. progress is {trees grown, nodes written, splits written},
 * all 0 on the first call.
 *
 * Returns the number of nodes. When it returns -1, tree progress[0]'s
 * words ran out: it is not grown, the trees before it are kept, and the
 * call is made again with every block extended by the streams' next
 * words. -2 means memory ran out.
 */
int64_t grow_trees(int64_t n, int64_t d, const int32_t *codes, const uint8_t *labels,
                   const double *values, int64_t stride, const double *x, int64_t n_trees, int64_t m,
                   const int32_t *samples, const uint32_t *words, int64_t block,
                   int64_t set_branch, int64_t width, int64_t min_leaf, int64_t max_depth,
                   int64_t per_tree, int64_t *progress, int64_t *splits, int32_t *rounds,
                   int32_t *feature, double *threshold, int32_t *left, int32_t *counts) {
    Grower g = {.n = n, .d = d, .m = m, .stride = stride, .min_leaf = min_leaf < 1 ? 1 : min_leaf,
                .max_depth = max_depth, .width = width, .label = labels, .values = values,
                .x = x, .words = words, .block = block, .set_branch = set_branch};
    int64_t status = -2;
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
    g.next = malloc(sizeof(Pending) * (size_t)(per_tree + 1));
    int64_t *first = malloc(sizeof(int64_t) * (size_t)(n_trees + 1));
    if (!ranks || !order || !g.multiplicity || !g.lists || !g.spill || !g.goes_left || !g.chosen ||
        !g.columns || !g.stack || !g.next || !first)
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
    for (int64_t t = progress[0]; t < n_trees; t++) {
        g.tree_words = words ? words + t * block : NULL;
        g.feature = feature + progress[1];
        g.threshold = threshold + progress[1];
        g.left = left + progress[1];
        g.counts = counts + 2 * progress[1];
        g.rounds = rounds + progress[2];
        if (grow_tree(&g, samples + t * m) < 0) {
            status = -1;
            goto done;
        }
        splits[t] = g.splits;
        progress[0] = t + 1;
        progress[1] += g.nodes;
        progress[2] += g.splits;
    }
    /* renumber: roots first, then each round's children tree by tree */
    int64_t total = progress[1], all_splits = progress[2];
    int32_t *base = malloc(sizeof(int32_t) * (size_t)(all_splits + 1));
    int64_t *cursor = malloc(sizeof(int64_t) * (size_t)(n_trees + 1));
    int32_t *old = malloc(sizeof(int32_t) * (size_t)(4 * total));
    double *old_threshold = malloc(sizeof(double) * (size_t)total);
    if (!base || !cursor || !old || !old_threshold) {
        free(base);
        free(cursor);
        free(old);
        free(old_threshold);
        goto done;
    }
    first[0] = 0;
    for (int64_t t = 0; t < n_trees; t++) {
        first[t + 1] = first[t] + splits[t];
        cursor[t] = first[t];
    }
    int32_t next = (int32_t)n_trees;
    for (int64_t round = 0, pending = all_splits; pending > 0; round++) {
        for (int64_t t = 0; t < n_trees; t++) {
            while (cursor[t] < first[t + 1] && rounds[cursor[t]] == round) {
                base[cursor[t]++] = next;
                next += 2;
                pending--;
            }
        }
    }
    for (int64_t i = 0; i < total; i++) {
        old[4 * i] = feature[i];
        old[4 * i + 1] = left[i];
        old[4 * i + 2] = counts[2 * i];
        old[4 * i + 3] = counts[2 * i + 1];
        old_threshold[i] = threshold[i];
    }
    for (int64_t t = 0, i = 0; t < n_trees; t++) {
        int64_t nodes = 1 + 2 * splits[t];
        for (int64_t local = 0; local < nodes; local++, i++) {
            int64_t at = local == 0 ? t : base[first[t] + (local - 1) / 2] + (local - 1) % 2;
            int32_t child = old[4 * i + 1];
            feature[at] = old[4 * i];
            threshold[at] = old_threshold[i];
            left[at] = child < 0 ? -1 : base[first[t] + (child - 1) / 2];
            counts[2 * at] = old[4 * i + 2];
            counts[2 * at + 1] = old[4 * i + 3];
        }
    }
    free(base);
    free(cursor);
    free(old);
    free(old_threshold);
    status = total;
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
    free(g.next);
    free(first);
    return status;
}
