/* The SVM's epoch shuffles and the step loop of a whole fit, for nextday.learn.svm.
 *
 * Both entry points replay the Python code they stand for operation by
 * operation, so a fit gives the same bits either way. Build with
 * -O2 -ffp-contract=off: a contracted multiply-add would round once
 * where Python rounds twice.
 */
#include <stdint.h>

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
