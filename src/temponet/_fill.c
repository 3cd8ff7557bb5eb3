/* The compiled kernel of temponet: the fill loop of its wiring phases and
 * the text of its CSV export, built at first use.
 *
 * temponet.assembler builds this file with the system C compiler at the
 * first wiring or export call of a process and calls it through ctypes.
 *
 * temponet_fill is the wiring's fill loop; assembler._pair is the same loop
 * in Python and the reference for every pick.  One call wires phases in
 * order until they are done or the loop needs the caller: for the next
 * block of Beta variates, or for a repair, whose random choices the caller
 * makes.  All state lives in the caller's arrays, so the next call resumes
 * where the last one returned.
 *
 * Positions are the caller's: phase f holds positions bounds[f] to
 * bounds[f + 1] - 1, in (total degree, id) order.  Position q has
 * off[q + 1] - off[q] stubs; rem[q] of them are open, and its cnt[q]
 * neighbour positions so far are nbr[off[q]], nbr[off[q] + 1], ...  A phase
 * has a Fenwick tree over its positions' effective weights, rem[q] or 0
 * while q is banned, in tree[1..size]; with comm (inter mode), owns holds one
 * tree of size + 1 cells per community, over its members' weights.
 *
 * temponet_format writes one block of the export, as output._write_block's
 * bytes % format call would (see there).
 */

#include <stdint.h>

/* what a call returns */
enum { DONE, BLOCK, REPAIR, UNPAIRED, BROKEN };
/* st[]: the phase, the node being filled (-1 between nodes), the variates
 * used and read, the heap's length (-1 before the phase starts), and the
 * repair (w, v) to apply (-1 for none) */
enum { PHASE, NODE, USED, READ, QUEUED, PICK_W, PICK_V };

typedef struct {
    int64_t lo, size, *tree, *owns;
    const int64_t *comm, *degree;
} Phase;

/* add d at position q to the tree and, in inter mode, to q's community tree */
static void update(const Phase *f, int64_t q, int64_t d)
{
    int64_t *own = f->owns ? f->owns + f->comm[q] * (f->size + 1) : 0;
    for (int64_t i = q - f->lo + 1; i <= f->size; i += i & -i) {
        f->tree[i] += d;
        if (own)
            own[i] += d;
    }
}

/* the heap pops the largest degree first, then the lowest position */
static int before(const Phase *f, int64_t a, int64_t b)
{
    return f->degree[a] > f->degree[b] || (f->degree[a] == f->degree[b] && a < b);
}

static void push(const Phase *f, int64_t *heap, int64_t *len, int64_t q)
{
    int64_t i = (*len)++;
    for (; i && before(f, q, heap[(i - 1) / 2]); i = (i - 1) / 2)
        heap[i] = heap[(i - 1) / 2];
    heap[i] = q;
}

static int64_t pop(const Phase *f, int64_t *heap, int64_t *len)
{
    int64_t top = heap[0], last = heap[--*len], i = 0, c;
    while ((c = 2 * i + 1) < *len) {
        if (c + 1 < *len && before(f, heap[c + 1], heap[c]))
            c++;
        if (!before(f, heap[c], last))
            break;
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = last;
    return top;
}

static void link(const int64_t *off, int64_t *cnt, int64_t *nbr, int64_t a, int64_t b)
{
    nbr[off[a] + cnt[a]++] = b;
    nbr[off[b] + cnt[b]++] = a;
}

/* remove b from a's neighbours; the last one takes its place */
static void drop(const int64_t *off, int64_t *cnt, int64_t *nbr, int64_t a, int64_t b)
{
    int64_t *s = nbr + off[a], i = 0;
    while (s[i] != b)
        i++;
    s[i] = s[--cnt[a]];
}

int64_t temponet_fill(int64_t phases, const int64_t *bounds, const int64_t *degree,
                      const int64_t *comm, const int64_t *off, int64_t *rem, int64_t *cnt,
                      int64_t *nbr, int64_t *heap, int64_t *queued, int64_t *tree,
                      int64_t *owns, const double *variates, int64_t *st)
{
    for (; st[PHASE] < phases; st[PHASE]++, st[QUEUED] = -1) {
        int64_t lo = bounds[st[PHASE]], hi = bounds[st[PHASE] + 1], size = 1;
        while (size < hi - lo)
            size <<= 1;
        Phase f = {lo, size, tree, owns, comm, degree};
        if (st[QUEUED] < 0) {
            st[QUEUED] = 0;
            tree[0] = 0;
            for (int64_t i = 1; i <= size; i++)
                tree[i] = lo + i - 1 < hi ? rem[lo + i - 1] : 0;
            for (int64_t i = 1; i < size; i++)
                tree[i + (i & -i)] += tree[i];
            for (int64_t q = lo; q < hi; q++) {
                if (!rem[q])
                    continue;
                if (owns)
                    for (int64_t i = q - lo + 1, *own = owns + comm[q] * (size + 1); i <= size;
                         i += i & -i)
                        own[i] += rem[q];
                queued[q] = 1;
                push(&f, heap, &st[QUEUED], q);
            }
        }
        for (;;) {
            int64_t p = st[NODE];
            if (p < 0) {
                if (!st[QUEUED])
                    break;
                p = pop(&f, heap, &st[QUEUED]);
                queued[p] = 0;
                if (!rem[p])
                    continue;
                st[NODE] = p;
                /* ban p and its neighbours */
                update(&f, p, -rem[p]);
                for (int64_t i = off[p]; i < off[p] + cnt[p]; i++)
                    if (rem[nbr[i]])
                        update(&f, nbr[i], -rem[nbr[i]]);
            } else if (st[PICK_W] >= 0) {
                /* break (w, v) and link p to w, which stays saturated */
                int64_t w = st[PICK_W], v = st[PICK_V], banned = 0;
                st[PICK_W] = -1;
                drop(off, cnt, nbr, w, v);
                drop(off, cnt, nbr, v, w);
                link(off, cnt, nbr, p, w);
                rem[p]--;
                rem[v]++;
                if (!queued[v]) {
                    queued[v] = 1;
                    push(&f, heap, &st[QUEUED], v);
                }
                for (int64_t i = off[p]; i < off[p] + cnt[p]; i++)
                    banned |= nbr[i] == v;
                if (!banned)
                    update(&f, v, 1);
            }
            const int64_t *own = owns ? owns + comm[p] * (size + 1) : 0;
            while (rem[p]) {
                int64_t total = tree[size] - (own ? own[size] : 0), q = 0;
                if (!total)
                    return REPAIR;
                if (st[USED] == st[READ])
                    return BLOCK;
                int64_t rank = (int64_t)(variates[st[USED]++] * (double)total);
                if (rank >= total)
                    rank = total - 1;
                for (int64_t step = size >> 1; step; step >>= 1) {
                    int64_t w = tree[q + step] - (own ? own[q + step] : 0);
                    if (w <= rank) {
                        q += step;
                        rank -= w;
                    }
                }
                /* a draw lands on a position of positive weight, never
                 * on p, which is banned */
                q += lo;
                if (q >= hi || q == p || rem[q] <= 0)
                    return BROKEN;
                /* ban the partner at q and close one of its stubs */
                update(&f, q, -rem[q]);
                rem[q]--;
                rem[p]--;
                link(off, cnt, nbr, p, q);
            }
            /* unban: partners and neighbours get their open stubs back */
            for (int64_t i = off[p]; i < off[p] + cnt[p]; i++)
                if (rem[nbr[i]])
                    update(&f, nbr[i], rem[nbr[i]]);
            st[NODE] = -1;
        }
        for (int64_t q = lo; q < hi; q++)
            if (rem[q])
                return UNPAIRED;
    }
    return DONE;
}


/* Copy the pieces named by code[0..codes - 1], in order, into out, each
 * "%d" in them written as the next of values in Python's %d text: a minus
 * sign for a negative value, then its digits.  Piece i is text[start[i]]
 * to text[start[i + 1] - 1], and "%d" is the only directive read.  Returns
 * the bytes written; the caller sizes out for them. */
int64_t temponet_format(const char *text, const int64_t *start, const int64_t *code,
                        int64_t codes, const int64_t *values, char *out)
{
    char *o = out, digits[20];
    for (int64_t i = 0; i < codes; i++) {
        const char *s = text + start[code[i]], *end = text + start[code[i] + 1];
        while (s < end) {
            if (s[0] != '%' || s + 1 == end || s[1] != 'd') {
                *o++ = *s++;
                continue;
            }
            int64_t x = *values++;
            /* the magnitude as unsigned, so that -2**63 has one too */
            uint64_t m = x < 0 ? -(uint64_t)x : (uint64_t)x;
            int k = 0;
            do
                digits[k++] = (char)('0' + m % 10);
            while (m /= 10);
            if (x < 0)
                *o++ = '-';
            while (k)
                *o++ = digits[--k];
            s += 2;
        }
    }
    return o - out;
}
