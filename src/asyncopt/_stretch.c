/* Native stretch kernels of asyncopt.serial's term kernels (sgm, svrg_sparse,
 * svrg_dense) and of its coordinate kernel (scd), loaded through ctypes by
 * asyncopt._stretch.  After the stretch come, in this order: moment(), the
 * enumeration of every sample's direction for asyncopt.serial's oracles;
 * sim_segment(), one epoch segment of asyncopt.sim.simulate; the libsvm
 * block reader of asyncopt.data; the conflict-degree count of
 * asyncopt.hypergraph; and choice_rows(), the row draw of
 * asyncopt.data.gen_synthetic.  Each entry point works on a batch (a run of
 * draws, every sample, an epoch segment, a file, a row block); there is no
 * one-sample call, and a kernel's direction for one sample is its NumPy
 * definition in asyncopt.serial, which this code is tested against.
 *
 * A term's direction is read from the term form of asyncopt.objectives in
 * place: row i of the CSR A (data, indices, indptr), its label b[i], and
 * c = rho * d_inv and e = eta * d_inv, so that
 *
 *     g_i(w) = phi'(a_i . w, b_i) a_i + c[idx] w + e[idx]
 *
 * on the term's support idx, with w the values read there.  The SVRG kernels
 * subtract g_i at the snapshot y, and sparse SVRG adds dz = d_inv * grad f(y).
 * Every expression is evaluated in the order the NumPy path writes it, and
 * the build uses -ffp-contract=off, so no a*b+c is fused.  The dot product
 * a_i . w is summed left to right, which differs from BLAS at rounding level.
 *
 * A coordinate sample v (scd) walks the CSC column v of A, the terms
 * incident to v, and returns d times coordinate v of grad f:
 *
 *     g_v(w) = d * (sum_r a_rv phi'(a_r . w, b_r) / n + rho[v] w[v] + eta[v]),
 *
 * the column's sum also left to right, and writes x[v] only.  The column's
 * rows lie scattered through A, so a walk row after row waits on memory and
 * on each row's chain of adds; the rows are walked WAYS at a time, side by
 * side (each row's sum still in its own order), which overlaps both.
 *
 * stretch() applies x[v] += -gamma * g for a run of pre-drawn samples.  With
 * no Sync it adds plainly (a serial solver).  With a Sync it is one worker of
 * a threaded solver: it takes each sample's global index j from the counter,
 * stops once j reaches the limit (leaving the rest of its draws unused),
 * and logs the sample, with end[j], the counter's value once j's write has
 * landed: the index the worker takes next, or for its last sample one load
 * of the counter as the call ends.  When other workers run too, it takes j
 * by an atomic fetch-add, reads each value by an atomic load (a coordinate
 * sample loads each value of its read set once, into a private O(d) buffer,
 * so that its dots see one read of each) and writes by a compare-and-swap
 * on the double's bits (never by comparing doubles, which a NaN would never
 * equal); alone, it increments the counter, reads x in place and adds
 * plainly, as a serial solver does.  Index arrays are int32, the one width
 * asyncopt._stretch passes: it narrows a matrix once and keeps a matrix it
 * cannot narrow (past 2^31 - 1 nonzeros) on the NumPy path.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    const double *data;
    const int32_t *indices, *indptr;
    int64_t logistic;  /* phi is log(1 + exp(-b t)) (else (s/2)(t - b)^2) */
    double s;
    const double *b, *c, *e;
    const double *y;   /* SVRG snapshot, or NULL */
    const double *dz;  /* sparse SVRG's d_inv * grad f(y), or NULL */
    int64_t maxlen;    /* longest row */
    int64_t coords;    /* samples are coordinates (scd), read through the CSC below */
    const double *cdata;
    const int32_t *cindices, *cindptr;
    const double *rho, *eta;
    int64_t n, d;
} Terms;

typedef struct {
    int64_t *counter;  /* next global sample index, shared by the workers */
    int64_t limit;
    int64_t wid;
    int64_t atomic;    /* other workers run too: fetch-add and compare-and-swap (else plain) */
    int64_t *edge;     /* SampleLog arrays, indexed by j */
    int32_t *worker;
    int64_t *end;
    int64_t *jbuf;     /* j of each sample taken, in order, or NULL */
    double *abuf;      /* their applied deltas, row after row, or NULL */
} Sync;

static inline double load(const double *p)
{
    uint64_t bits = __atomic_load_n((const uint64_t *)p, __ATOMIC_RELAXED);
    double v;
    memcpy(&v, &bits, sizeof v);
    return v;
}

static inline double clamp(double v, double lo, double hi)
{
    if (v < lo)
        return lo;
    if (v > hi)
        return hi;
    return v;
}

/* *p = clamp(*p + delta) indivisibly; returns the value written, *old the one replaced */
static inline double cas_add(double *p, double delta, int bounded, double lo, double hi,
                             double *old)
{
    uint64_t *q = (uint64_t *)p;
    uint64_t old_bits = __atomic_load_n(q, __ATOMIC_RELAXED), new_bits;
    double nw;
    do {
        memcpy(old, &old_bits, sizeof *old);
        nw = *old + delta;
        if (bounded)
            nw = clamp(nw, lo, hi);
        memcpy(&new_bits, &nw, sizeof nw);
    } while (!__atomic_compare_exchange_n(q, &old_bits, new_bits, 1, __ATOMIC_RELAXED,
                                          __ATOMIC_RELAXED));
    return nw;
}

static inline double dphi(const Terms *p, double t, double b)
{
    if (!p->logistic)
        return p->s * (t - b);
    double u = -b * t, q = exp(-fabs(u));
    return -b * (u >= 0 ? 1.0 / (1.0 + q) : q / (1.0 + q));
}

/* Dense SVRG's O(d) part: after each sample, x += step on every coordinate,
 * then clamped to [lo, hi] when bounded.  Below BLOCK_MIN_D coordinates, x
 * and step fit in the L1 cache and dense_add makes that pass per sample.
 * From BLOCK_MIN_D on it is deferred over blocks of BLOCK samples: done[v]
 * counts the steps of the current block already added to x[v].  A
 * coordinate is brought up to date (catch_up) before a sample reads or
 * writes it, and every coordinate at the end of a block (dense_flush).  Each
 * x[v] still takes its adds and clamps one at a time, in sample order, so
 * the bits are those of a pass after every sample; but x and step are
 * streamed once per block, not once per sample. */
enum { BLOCK = 16, LANES = 32, BLOCK_MIN_D = 4096 };

static inline void catch_up(double *x, const double *step, uint8_t *done, int64_t v, int pos,
                            int bounded, double lo, double hi)
{
    for (; done[v] < pos; done[v]++) {
        x[v] += step[v];
        if (bounded)
            x[v] = clamp(x[v], lo, hi);
    }
}

/* The step after one sample, on every coordinate at once. */
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__) && !defined(__clang__)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
static void dense_add(double *x, const double *step, int64_t d, int bounded, double lo, double hi)
{
    for (int64_t v = 0; v < d; v++)
        x[v] += step[v];
    if (bounded)
        for (int64_t v = 0; v < d; v++)
            x[v] = clamp(x[v], lo, hi);
}

/* The steps still owed after pos samples of a block, LANES coordinates at a
 * time (owed[l] steps to lane l).  Elementwise, so every vector width gives
 * the same bits; on x86-64 Linux the widest the CPU has is chosen at load
 * time. */
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__) && !defined(__clang__)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
static void dense_flush(double *x, const double *step, uint8_t *done, int64_t d, int pos,
                        int bounded, double lo, double hi)
{
    int64_t v0 = 0;
    for (; v0 + LANES <= d; v0 += LANES) {
        double xs[LANES], ss[LANES];
        int owed[LANES], full = 1;
        for (int l = 0; l < LANES; l++) {
            xs[l] = x[v0 + l];
            ss[l] = step[v0 + l];
            owed[l] = pos - done[v0 + l];
            full &= owed[l] == pos;
            done[v0 + l] = 0;
        }
        if (full && !bounded) {
            for (int t = 0; t < pos; t++)
                for (int l = 0; l < LANES; l++)
                    xs[l] += ss[l];
        } else {
            for (int t = 0; t < pos; t++) {
                for (int l = 0; l < LANES; l++) {
                    double nv = xs[l] + ss[l];
                    if (bounded)
                        nv = clamp(nv, lo, hi);
                    xs[l] = t < owed[l] ? nv : xs[l];
                }
            }
        }
        for (int l = 0; l < LANES; l++)
            x[v0 + l] = xs[l];
    }
    for (; v0 < d; v0++) {
        catch_up(x, step, done, v0, pos, bounded, lo, hi);
        done[v0] = 0;
    }
}

/* g of term i into g[0..len), reading each src value once; returns len.
 * Kept out of line, as when the stretch was its one caller: inlined into
 * the stretch, sgm measured slower. */
static __attribute__((noinline)) int64_t
term_g(const Terms *p, int64_t i, const double *src, int shared, double *g)
{
    int64_t lo = p->indptr[i], len = p->indptr[i + 1] - lo;
    const double *a = p->data + lo;
    double t = 0.0;
    for (int64_t k = 0; k < len; k++) {
        const double *w = src + p->indices[lo + k];
        g[k] = shared ? load(w) : *w;
    }
    for (int64_t k = 0; k < len; k++)
        t += a[k] * g[k];
    double dp = dphi(p, t, p->b[i]);
    if (!p->y) {
        for (int64_t k = 0; k < len; k++) {
            int64_t v = p->indices[lo + k];
            g[k] = dp * a[k] + p->c[v] * g[k] + p->e[v];
        }
        return len;
    }
    double ty = 0.0;
    for (int64_t k = 0; k < len; k++)
        ty += a[k] * p->y[p->indices[lo + k]];
    double dpy = dphi(p, ty, p->b[i]);
    for (int64_t k = 0; k < len; k++) {
        int64_t v = p->indices[lo + k];
        double gx = dp * a[k] + p->c[v] * g[k] + p->e[v];
        double gy = dpy * a[k] + p->c[v] * p->y[v] + p->e[v];
        g[k] = p->dz ? gx - gy + p->dz[v] : gx - gy;
    }
    return len;
}

/* w[u] of a coordinate sample: src[u] in place, or, with a buffer, src[u]
 * loaded once (atomically) into buf[u] and read from there after, stamp[u]
 * marking the sample that loaded it */
static inline double read_once(const double *src, double *buf, int64_t *stamp, int64_t mark,
                               int64_t u)
{
    if (!buf)
        return src[u];
    if (stamp[u] != mark) {
        buf[u] = load(src + u);
        stamp[u] = mark;
    }
    return buf[u];
}

/* The dots a_r . w of the m <= WAYS rows r = cindices[k..k+m) into t, each
 * summed left to right, the rows walked side by side so that their chains
 * of adds overlap.  Inlined at each of row_dots' calls with constant
 * buffered, so that it is not tested per entry; the fields are held in
 * locals, as buf's stores could alias *p and reload them per entry. */
enum { WAYS = 8 };

static inline __attribute__((always_inline)) void
walk_rows(const Terms *p, int64_t k, int m, const double *src, double *buf, int64_t *stamp,
          int64_t mark, double *t, const int buffered)
{
    const double *data = p->data;
    const int32_t *indices = p->indices, *indptr = p->indptr;
    double *via = buffered ? buf : NULL;
    int64_t lo[WAYS], len[WAYS], common = INT64_MAX;
    for (int w = 0; w < m; w++) {
        int64_t r = p->cindices[k + w];
        lo[w] = indptr[r];
        len[w] = indptr[r + 1] - lo[w];
        common = len[w] < common ? len[w] : common;
        t[w] = 0.0;
    }
    for (int64_t q = 0; q < common; q++)
        for (int w = 0; w < m; w++) {
            int64_t u = indices[lo[w] + q];
            t[w] += data[lo[w] + q] * read_once(src, via, stamp, mark, u);
        }
    for (int w = 0; w < m; w++)
        for (int64_t q = lo[w] + common; q < lo[w] + len[w]; q++)
            t[w] += data[q] * read_once(src, via, stamp, mark, indices[q]);
}

static void row_dots(const Terms *p, int64_t k, int m, const double *src, double *buf,
                     int64_t *stamp, int64_t mark, double *t)
{
    if (buf)
        walk_rows(p, k, m, src, buf, stamp, mark, t, 1);
    else
        walk_rows(p, k, m, src, buf, stamp, mark, t, 0);
}

/* g of coordinate v, reading src through read_once */
static double coord_g(const Terms *p, int64_t v, const double *src, double *buf, int64_t *stamp,
                      int64_t mark)
{
    int64_t c0 = p->cindptr[v], c1 = p->cindptr[v + 1];
    double sum = 0.0, t[WAYS];
    for (int64_t k = c0; k < c1; k += WAYS) {
        int m = c1 - k < WAYS ? (int)(c1 - k) : WAYS;
        row_dots(p, k, m, src, buf, stamp, mark, t);
        for (int w = 0; w < m; w++)
            sum += p->cdata[k + w] * dphi(p, t[w], p->b[p->cindices[k + w]]);
    }
    double w = read_once(src, buf, stamp, mark, v);
    return (double)p->d * (sum / (double)p->n + p->rho[v] * w + p->eta[v]);
}

/* Samples draws[0..ndraws) (terms, or coordinates when p->coords) with step
 * -gamma (ngamma), clamped to [lo, hi] when bounded; dense_step, when given,
 * is added to every one of the d coordinates after each sample's sparse
 * part.  Returns the number of draws used, or -1 when out of memory. */
int64_t stretch(const Terms *p, double *x, int64_t d, const int64_t *draws, int64_t ndraws,
                double ngamma, int64_t bounded, double lo, double hi, const double *dense_step,
                Sync *sync)
{
    double *g = malloc((size_t)(p->maxlen > 0 ? p->maxlen : 1) * sizeof *g);
    int defer = dense_step && d >= BLOCK_MIN_D, pos = 0;
    uint8_t *done = defer ? calloc((size_t)d, 1) : NULL;
    int atomic = sync && sync->atomic, reads = p->coords && atomic;
    double *buf = reads ? malloc((size_t)d * sizeof *buf) : NULL;
    int64_t *stamp = reads ? calloc((size_t)d, sizeof *stamp) : NULL;
    if (!g || (defer && !done) || (reads && (!buf || !stamp))) {
        free(g);
        free(done);
        free(buf);
        free(stamp);
        return -1;
    }
    int64_t *jbuf = sync ? sync->jbuf : NULL;
    double *abuf = sync ? sync->abuf : NULL;
    int64_t used = 0, last = -1; /* last: the sample whose end is owed */
    for (; used < ndraws; used++) {
        int64_t j = 0;
        if (sync) {
            j = atomic ? __atomic_fetch_add(sync->counter, 1, __ATOMIC_RELAXED)
                       : (*sync->counter)++;
            if (last >= 0)
                sync->end[last] = j;
            if (j >= sync->limit)
                break;
        }
        int64_t i = draws[used], row = 0, len = 1;
        if (p->coords) {
            g[0] = coord_g(p, i, x, buf, stamp, used + 1);
        } else {
            row = p->indptr[i];
            if (defer)
                for (int64_t k = row; k < p->indptr[i + 1]; k++)
                    catch_up(x, dense_step, done, p->indices[k], pos, bounded, lo, hi);
            len = term_g(p, i, x, atomic, g);
        }
        for (int64_t k = 0; k < len; k++) {
            double *xv = x + (p->coords ? i : p->indices[row + k]);
            double delta = ngamma * g[k];
            double old, nw;
            if (atomic) {
                nw = cas_add(xv, delta, bounded, lo, hi, &old);
            } else {
                old = *xv;
                nw = old + delta;
                if (bounded && !dense_step)
                    nw = clamp(nw, lo, hi);
                *xv = nw;
            }
            if (abuf)
                *abuf++ = nw - old;
        }
        if (defer && ++pos == BLOCK) {
            dense_flush(x, dense_step, done, d, pos, bounded, lo, hi);
            pos = 0;
        } else if (dense_step && !defer) {
            dense_add(x, dense_step, d, bounded, lo, hi);
        }
        if (sync) {
            sync->edge[j] = i;
            sync->worker[j] = (int32_t)sync->wid;
            last = j;
            if (jbuf)
                *jbuf++ = j;
        }
    }
    if (last >= 0 && used == ndraws) /* else the take that met the limit wrote it */
        sync->end[last] = __atomic_load_n(sync->counter, __ATOMIC_RELAXED);
    if (defer)
        dense_flush(x, dense_step, done, d, pos, bounded, lo, hi);
    free(g);
    free(done);
    free(buf);
    free(stamp);
    return used;
}

/* ---- simulated segment ---------------------------------------------------
 *
 * moment() enumerates a kernel's directions at one x for the oracles of
 * asyncopt.serial, and sim_segment() runs one epoch segment of
 * asyncopt.sim.simulate; both call the stretches' term_g and coord_g, so g
 * keeps one definition in C.  sim_segment() follows the order of operations
 * of the NumPy reference segment (asyncopt.sim._reference_segment) element
 * by element, so the two give the same bits when given the same g. */

/* m ? a : b by masking bits, with no branch, which a random mask would
 * mispredict half the time; a loop of picks vectorizes */
static inline double pick(uint8_t m, double a, double b)
{
    uint64_t ab, bb, keep = -(uint64_t)(m != 0);
    memcpy(&ab, &a, sizeof ab);
    memcpy(&bb, &b, sizeof bb);
    ab = (ab & keep) | (bb & ~keep);
    memcpy(&a, &ab, sizeof a);
    return a;
}

/* E_s ||g(x, s)||^2 over every sample s (terms, or coordinates when
 * p->coords), each ||g||^2 and their total summed left to right; when sum
 * is given, each g is added into it on its support, sample after sample.
 * Returns -1 when out of memory. */
double moment(const Terms *p, const double *x, double *sum)
{
    int64_t samples = p->coords ? p->d : p->n;
    double *g = malloc((size_t)(p->maxlen > 0 ? p->maxlen : 1) * sizeof *g), total = 0.0;
    if (!g)
        return -1.0;
    for (int64_t s = 0; s < samples; s++) {
        int64_t row = 0, len = 1;
        if (p->coords) {
            g[0] = coord_g(p, s, x, NULL, NULL, 0);
        } else {
            row = p->indptr[s];
            len = term_g(p, s, x, 0, g);
        }
        double gg = 0.0;
        for (int64_t k = 0; k < len; k++) {
            gg += g[k] * g[k];
            if (sum)
                sum[p->coords ? s : p->indices[row + k]] += g[k];
        }
        total += gg;
    }
    free(g);
    return total / (double)samples;
}

/* Steps j = ep0 .. ep0 + ndraws - 1 of one epoch, in the rows of X (X[ep0]
 * set), Xhat and U (rows of d; U's rows zero) and of the (T, tau, d) mask
 * missing: Xhat[j] = X[j], plus gamma U[j - lag] at every v the mask marks
 * for lag = 1 .. min(tau, j - ep0), lag after lag; U[j] = g(Xhat[j],
 * draws[j - ep0]) on its support; q[j] = moment(Xhat[j]) when q is given;
 * X[j + 1] = X[j] - gamma U[j].  Returns 0, or -1 when out of memory. */
int64_t sim_segment(const Terms *p, double *X, double *Xhat, double *U, double *q,
                    const uint8_t *missing, int64_t tau, int64_t ep0, const int64_t *draws,
                    int64_t ndraws, double gamma)
{
    int64_t d = p->d;
    double *g = malloc((size_t)(p->maxlen > 0 ? p->maxlen : 1) * sizeof *g);
    if (!g)
        return -1;
    for (int64_t j = ep0; j < ep0 + ndraws; j++) {
        const double *x = X + j * d;
        double *xhat = Xhat + j * d, *u = U + j * d, *next = X + (j + 1) * d;
        memcpy(xhat, x, (size_t)d * sizeof *xhat);
        for (int64_t lag = 1; lag <= tau && lag <= j - ep0; lag++) {
            const uint8_t *mask = missing + (j * tau + lag - 1) * d;
            const double *w = U + (j - lag) * d;
            for (int64_t v = 0; v < d; v++)
                xhat[v] = pick(mask[v], xhat[v] + gamma * w[v], xhat[v]);
        }
        int64_t s = draws[j - ep0];
        if (p->coords) {
            u[s] = coord_g(p, s, xhat, NULL, NULL, 0);
        } else {
            int64_t row = p->indptr[s], len = term_g(p, s, xhat, 0, g);
            for (int64_t k = 0; k < len; k++)
                u[p->indices[row + k]] = g[k];
        }
        if (q && (q[j] = moment(p, xhat, NULL)) < 0) {
            free(g);
            return -1;
        }
        for (int64_t v = 0; v < d; v++)
            next[v] = x[v] - gamma * u[v];
    }
    free(g);
    return 0;
}

/* ---- libsvm reader -------------------------------------------------------
 *
 * parse_libsvm() reads whole lines of a block of a libsvm file, the strict
 * grammar below only, and writes each row's label, length, 0-based indices
 * and values.  asyncopt.data._libsvm_row is the format's one definition; a
 * line this grammar accepts is one that function accepts with the same
 * values, as both round decimals correctly.  At any other line the reader
 * declines the block, and asyncopt.data reads the whole file with that
 * function instead, which parses the line or refuses it.
 *
 *   line    := ws* ( '#' any* | label ( ws+ feature )* ws* )? ( '\r'? '\n' | end )
 *   label   := number (finite)
 *   feature := digit{1,18} ':' number (finite), the index >= 1, above the
 *              row's previous one, and at most d
 *   number  := [+-]? ( digit+ ( '.' digit* )? | '.' digit+ ) ( [eE] [+-]? digit+ )?,
 *              at most NUMBER_MAX characters, followed by ws or the line's end
 *   ws      := ' ' | '\t'
 *
 * scan() reads a number in one pass.  It keeps its first 19 significant
 * digits as an integer w and the power of ten e10 they are scaled by, so
 * the number is w * 10^e10 when every digit past the 19th is 0.  When
 * |e10| <= 19 that value is rounded once, exactly (Clinger, PLDI 1990):
 * for e10 >= 0 the 128-bit product w * 10^e10 is cast to double; for
 * e10 < 0, w is shifted up in 128 bits so that its quotient by 10^-e10
 * lies in [2^61, 2^63), and a nonzero remainder is ORed into bit 0 of that
 * quotient, a sticky bit below the double's rounding position.  Either way
 * the cast rounds the exact value to nearest, ties to even, as strtod does,
 * and the quotient's is then scaled back by an exact power of two.  Every
 * other number (a nonzero digit past the 19th, |e10| above 19, or a
 * compiler without 128-bit integers) goes to strtod. */

#define NUMBER_MAX 64 /* longer numbers are left to the reference */
#define EXACT_DIGITS 19 /* 10^19 < 2^64 */

static inline int is_digit(char c) { return c >= '0' && c <= '9'; }
static inline int is_ws(char c) { return c == ' ' || c == '\t'; }

/* strtod's value of the number s[0:n], which scan() has read; 0 when it is not finite. */
static int number(const char *s, int64_t n, double *out)
{
    char buf[NUMBER_MAX + 1], *stop;
    memcpy(buf, s, (size_t)n); /* strtod reads up to a NUL, which s need not have */
    buf[n] = '\0';
    double v = strtod(buf, &stop);
    if (stop != buf + n || !isfinite(v)) /* a locale whose decimal point is not '.' stops early */
        return 0;
    *out = v;
    return 1;
}

/* The finite value of the number that starts at s and ends before end:
 * where it ends, or NULL when what starts at s is not one. */
static const char *scan(const char *s, const char *end, double *out)
{
    /* reading one character past NUMBER_MAX tells a long number, and bounds the counts */
    const char *lim = end - s > NUMBER_MAX ? s + NUMBER_MAX + 1 : end, *q = s, *dot = NULL;
    int neg = 0, digits = 0, sig = 0, lost = 0, e10 = 0;
    uint64_t w = 0;
    if (q < lim && (*q == '+' || *q == '-'))
        neg = *q++ == '-';
    for (; q < lim; q++) {
        if (is_digit(*q)) {
            digits++;
            if (sig < EXACT_DIGITS) {
                w = w * 10 + (uint64_t)(*q - '0');
                sig += w != 0; /* leading zeros are not significant */
                e10 -= dot != NULL;
            } else {
                lost |= *q != '0';
                e10 += dot == NULL;
            }
        } else if (*q == '.' && !dot) {
            dot = q;
        } else {
            break;
        }
    }
    if (!digits)
        return NULL;
    if (q < lim && (*q == 'e' || *q == 'E')) {
        int eneg = 0, x = 0;
        if (++q < lim && (*q == '+' || *q == '-'))
            eneg = *q++ == '-';
        const char *e = q;
        for (; q < lim && is_digit(*q); q++)
            if (x < 10000) /* past this, |e10| > 19 whatever the digits were */
                x = x * 10 + (*q - '0');
        if (q == e)
            return NULL;
        e10 += eneg ? -x : x;
    }
    if (q == s + NUMBER_MAX + 1 || (q < end && !is_ws(*q)))
        return NULL;
#ifdef __SIZEOF_INT128__
    static const uint64_t tens[EXACT_DIGITS + 1] = {
        1ull, 10ull, 100ull, 1000ull, 10000ull, 100000ull, 1000000ull, 10000000ull,
        100000000ull, 1000000000ull, 10000000000ull, 100000000000ull, 1000000000000ull,
        10000000000000ull, 100000000000000ull, 1000000000000000ull, 10000000000000000ull,
        100000000000000000ull, 1000000000000000000ull, 10000000000000000000ull};
    if (!lost && e10 >= -EXACT_DIGITS && e10 <= EXACT_DIGITS) {
        double v = 0;
        if (w && e10 >= 0) {
            v = (double)((unsigned __int128)w * tens[e10]);
        } else if (w) {
            /* w < 2^(64 - clz(w)) and p >= 2^(63 - clz(p)), so quot < 2^63; and
             * quot >= 2^61, as many bits as the rounding needs, and a signed
             * int64, which converts in one instruction */
            uint64_t p = tens[-e10], scale;
            int shift = __builtin_clzll(w) + 62 - __builtin_clzll(p);
            unsigned __int128 num = (unsigned __int128)w << shift;
            int64_t quot = (int64_t)(num / p) | (num % p != 0);
            scale = (uint64_t)(1023 - shift) << 52; /* the double 2^-shift */
            memcpy(&v, &scale, sizeof v);
            v *= (double)quot;
        }
        *out = neg ? -v : v;
        return q;
    }
#endif
    return number(s, q - s, out) ? q : NULL;
}

/* The label and features of the line p[0:end - p], which starts with neither
 * ws nor '#': the number of features, written from indices[0] and values[0],
 * or -1 when the line is outside the grammar. */
static int64_t row(const char *p, const char *end, int64_t d, double *lab, int64_t *indices,
                   double *values)
{
    const char *q = scan(p, end, lab);
    if (!q)
        return -1;
    int64_t k = 0, prev = 0;
    for (;;) {
        for (p = q; p < end && is_ws(*p); p++)
            ;
        if (p == end)
            return k;
        int64_t idx = 0;
        for (q = p; q < end && is_digit(*q) && q - p < 18; q++)
            idx = idx * 10 + (*q - '0');
        if (q == p || q == end || *q != ':' || idx <= prev || idx > d)
            return -1;
        if (!(q = scan(q + 1, end, &values[k])))
            return -1;
        indices[k++] = idx - 1;
        prev = idx;
    }
}

/* Parses the lines of s[0:len] into the output arrays (they hold every row
 * and feature the block can have).  Returns the number of rows, or -1 at the
 * first line outside the grammar. */
int64_t parse_libsvm(const char *s, int64_t len, int64_t d, double *label, int64_t *rowlen,
                     int64_t *indices, double *values)
{
    int64_t pos = 0, rows = 0, nnz = 0;
    while (pos < len) {
        const char *p = s + pos, *nl = memchr(p, '\n', (size_t)(len - pos));
        const char *end = nl ? nl : s + len;
        if (nl && end > p && end[-1] == '\r')
            end--;
        while (p < end && is_ws(*p))
            p++;
        if (p < end && *p != '#') {
            int64_t m = row(p, end, d, &label[rows], indices + nnz, values + nnz);
            if (m < 0)
                return -1;
            rowlen[rows++] = m;
            nnz += m;
        }
        pos = nl ? nl - s + 1 : len;
    }
    return rows;
}

/* ---- conflict degrees ----------------------------------------------------
 *
 * conflict_degrees() counts, for each term i in [lo, hi), the distinct other
 * terms that share a coordinate with it: the degrees of asyncopt.hypergraph's
 * conflict graph.  It walks the term lists of i's coordinates, the columns
 * of the de-duplicated 0/1 pattern B held as the CSR of B^T (cindptr,
 * cindices), and stamps each term it meets with i's mark in an array of n
 * stamps, i's own first so that i is not counted.  A term costs its
 * coordinates' summed term counts, sum_v count_v^2 in all, in O(n) memory,
 * and no part of B B^T is formed.  The count is branch-free: a branch on
 * the stamp mispredicts about as often as a neighbour repeats, and measured
 * 3.5 times slower at d = 1,000.  The stamps are 32-bit, half the cache
 * footprint of 64-bit ones (1.4 times faster at n = 20,000); after 2^32 - 1
 * marks they are cleared and the marks start again.  Each call has its own
 * stamps, so calls on disjoint row ranges can run on threads at once. */

/* degrees[i] for i in [lo, hi) from B (indptr, indices) and B^T (cindptr,
 * cindices), of n terms.  Returns 0, or -1 when out of memory. */
int64_t conflict_degrees(const int32_t *indptr, const int32_t *indices, const int32_t *cindptr,
                         const int32_t *cindices, int64_t n, int64_t lo, int64_t hi,
                         int64_t *degrees)
{
    uint32_t *stamp = calloc((size_t)(n > 0 ? n : 1), sizeof *stamp), mark = 0;
    if (!stamp)
        return -1;
    for (int64_t i = lo; i < hi; i++) {
        if (++mark == 0) {
            memset(stamp, 0, (size_t)n * sizeof *stamp);
            mark = 1;
        }
        int64_t c = 0;
        stamp[i] = mark;
        for (int64_t q = indptr[i]; q < indptr[i + 1]; q++) {
            int64_t c0 = cindptr[indices[q]], c1 = cindptr[indices[q] + 1];
            for (int64_t r = c0; r < c1; r++) { /* the terms not yet stamped with mark */
                int64_t k = cindices[r];
                c += stamp[k] != mark;
                stamp[k] = mark;
            }
        }
        degrees[i] = c;
    }
    free(stamp);
    return 0;
}

/* ---- synthetic rows ------------------------------------------------------
 *
 * choice_rows() fills the n rows of asyncopt.data.gen_synthetic, each the
 * nnz coordinates that NumPy's Generator.choice(d, nnz, replace=False)
 * draws, from the same uint32 draws of the same bit generator in the same
 * order, so the rows (once sorted; the caller sorts them) and the
 * generator's state afterwards are those of one choice call per row.  It
 * repeats the branch NumPy takes when d <= 10,000 or nnz <= d // 50 (the
 * caller takes the other shapes to NumPy), for d < 2^31: Floyd's loop,
 * where j = d - nnz .. d - 1 draws v = bounded(j) and takes j instead when
 * v is already in the row, then the draws of the shuffle, bounded(i) for
 * i = nnz - 1 .. 1, whose swaps the sort undoes, so only the draws are
 * made.  Membership is a stamp array of d entries, as in conflict_degrees.
 * The bit generator is NumPy's public bitgen_t (numpy/random/bitgen.h); the
 * caller holds its lock. */

typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* A uniform draw from [0, r], as NumPy's unbuffered Lemire draw on uint32s:
 * none for r = 0, else again while the low half of u * (r + 1) is below
 * (2^32 - 1 - r) mod (r + 1). */
static inline uint32_t bounded(bitgen_t *g, uint32_t r)
{
    if (r == 0)
        return 0;
    const uint32_t excl = r + 1, threshold = (UINT32_MAX - r) % excl;
    uint64_t m;
    do
        m = (uint64_t)g->next_uint32(g->state) * excl;
    while ((uint32_t)m < threshold);
    return (uint32_t)(m >> 32);
}

/* out[i * nnz .. (i + 1) * nnz), row i < n unsorted, 1 <= nnz <= d < 2^31.
 * Returns 0, or -1 when out of memory. */
int64_t choice_rows(bitgen_t *g, int64_t n, int64_t d, int64_t nnz, int64_t *out)
{
    uint32_t *stamp = calloc((size_t)d, sizeof *stamp), mark = 0;
    if (!stamp)
        return -1;
    for (int64_t i = 0; i < n; i++, out += nnz) {
        if (++mark == 0) {
            memset(stamp, 0, (size_t)d * sizeof *stamp);
            mark = 1;
        }
        for (int64_t j = d - nnz; j < d; j++) {
            int64_t v = bounded(g, (uint32_t)j);
            if (stamp[v] == mark)
                v = j;
            stamp[v] = mark;
            out[j - (d - nnz)] = v;
        }
        for (int64_t k = nnz - 1; k > 0; k--)
            bounded(g, (uint32_t)k);
    }
    free(stamp);
    return 0;
}
