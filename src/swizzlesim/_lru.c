/* The native kernel behind swizzlesim.cachesim. Its entry point,
 * xcd_drain, runs one XCD's queue of workgroups for one wave: it loads them
 * into resident slots, walks their segments run by run (a segment is a
 * start, a stride and a count of equal-length runs), expands each run into
 * line touches and feeds each touch to a set-associative LRU.
 *
 * touched, the touched-line map, holds a byte per line at byte_of(line),
 * which puts 64 bytes of padding after every 4096 lines: lines of one set,
 * num_sets apart, then do not all share their low 12 address bits in the
 * host's caches. Bit 0 says the line was ever touched, bit 1 that it is
 * resident in these rows, so a touch hits exactly when bit 1 is set.
 * tags holds num_sets rows of `ways` map bytes (byte_of is one to one),
 * each a ring read in recency order from its entry heads[s], wrapping; an
 * empty entry holds -1 and follows every valid one. A miss steps the head
 * back one entry and writes the line over what is there, the least recently
 * used line or an empty entry (write-allocate): no scan, no shift. A hit
 * walks from the head to the line, moving each entry it passes one place
 * back, and writes the line at the head.
 * Every line id is non-negative: AccessTrace rejects negative buffer bases
 * and xcd_drain rejects any run outside its buffer, so touched[byte_of(line)]
 * lies in the map cachesim._touched_map sizes; cachesim.simulate keeps lines
 * and sets below 2**32 for set_of, and map bytes below 2**32 + 2**26.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* line % num_sets without a division, exact for both below 2**32: Lemire,
 * Kaser and Kurz, "Faster remainder by direct computation", 2019. m is
 * UINT64_MAX / num_sets + 1, 0 for one set. set_index exports it for tests. */
static inline int64_t set_of(int64_t line, uint64_t m, int64_t num_sets)
{
    return (int64_t)(((unsigned __int128)(m * (uint64_t)line) * (uint64_t)num_sets) >> 64);
}

int64_t set_index(int64_t line, int64_t num_sets)
{
    return set_of(line, UINT64_MAX / (uint64_t)num_sets + 1, num_sets);
}

/* The line's byte in the touched-line map; the extern declaration exports it
 * for tests. */
inline int64_t byte_of(int64_t line)
{
    return line + ((line >> 12) << 6);
}
extern int64_t byte_of(int64_t line);

/* Touch one line; 1 on a hit. m is set_of's multiplier for num_sets. */
static inline int lru_touch(int64_t line, uint8_t *touched, int64_t *tags, int32_t *heads,
                            uint64_t m, int64_t num_sets, int64_t ways)
{
    int64_t set = set_of(line, m, num_sets);
    int64_t *row = tags + set * ways;
    int64_t head = heads[set];
    int64_t byte = byte_of(line);
    if (!(touched[byte] & 2)) {
        head = (head ? head : ways) - 1;
        if (row[head] >= 0) /* evict the least recently used */
            touched[row[head]] = 1;
        row[head] = byte;
        heads[set] = (int32_t)head;
        touched[byte] = 3;
        return 0;
    }
    /* move the line to the head: each entry from the head on moves one place
     * back, wrapping, until the line's own entry is overwritten; a memmove
     * call would cost more than the few moves of a hit near the head */
    int64_t carry = byte;
    for (int64_t p = head, k = 0; k < ways; k++) {
        int64_t next = row[p];
        row[p] = carry;
        if (next == byte)
            return 1;
        carry = next;
        p = p + 1 == ways ? 0 : p + 1;
    }
    return 1; /* bit 1 is wrong: so are the counts, but nothing hangs */
}

/* One resident workgroup: its segment arrays and segment count, copied from
 * its queue row, the segment being run, the runs left in it after the
 * current one, and the current run's first byte address and current and
 * last line. A segment is counts[i] runs of lens[i] bytes of buffer bufs[i]
 * at offs[i] + j * strides[i]. The caller owns the slots,
 * cachesim._SLOT_WORDS int64 words each, and keeps a workgroup's arrays
 * alive while a slot points into them. */
typedef struct {
    const int32_t *bufs;
    const int64_t *offs;
    const int64_t *lens;
    const int64_t *strides;
    const int64_t *counts;
    int64_t segments;
    int64_t seg;   /* `segments` once the workgroup is drained */
    int64_t runs;
    int64_t start;
    int64_t line;
    int64_t last;
} slot_t;

_Static_assert(sizeof(slot_t) == 11 * sizeof(int64_t), "cachesim._SLOT_WORDS is 11");
_Static_assert(offsetof(slot_t, bufs) == 0 && offsetof(slot_t, offs) == 8
               && offsetof(slot_t, lens) == 16 && offsetof(slot_t, strides) == 24
               && offsetof(slot_t, counts) == 32 && offsetof(slot_t, segments) == 40,
               "a queue row is words 0-5 of a slot: bufs, offs, lens, strides, counts, segments");

/* 1 if a run of segment r of a queue row is empty, names no buffer, starts
 * before its buffer or ends past it. A segment of no runs is never bad. The
 * first and last runs bound every run between them, and the last is checked
 * without forming stride * (count - 1), which may overflow. */
static int segment_outside(const slot_t *s, int64_t r, const int64_t *lengths,
                           int64_t num_buffers)
{
    int64_t steps = s->counts[r] - 1;
    if (steps < 0)
        return 0;
    int32_t buf = s->bufs[r];
    int64_t off = s->offs[r], len = s->lens[r], stride = s->strides[r];
    if (buf < 0 || buf >= num_buffers || len < 1 || off < 0 || len > lengths[buf] - off)
        return 1;
    if (stride > 0) /* the last run ends by the buffer's end */
        return steps > (lengths[buf] - off - len) / stride;
    if (stride < 0) /* the last run starts at or past the buffer's start */
        return steps > 0 && (stride == INT64_MIN || steps > off / -stride);
    return 0;
}

/* Move slot s to its next run: `start` steps by the segment's stride until
 * the segment's runs are done, then moves to the next segment of one or more
 * runs. 0 when no run is left. */
static inline int next_run(slot_t *s, const int64_t *bases, int64_t line_shift)
{
    if (s->runs > 0) {
        s->runs--;
        s->start += s->strides[s->seg];
    } else {
        do {
            if (++s->seg == s->segments)
                return 0;
        } while (s->counts[s->seg] < 1);
        s->runs = s->counts[s->seg] - 1;
        s->start = s->offs[s->seg] + bases[s->bufs[s->seg]];
    }
    s->line = s->start >> line_shift;
    s->last = (s->start + s->lens[s->seg] - 1) >> line_shift;
    return 1;
}

/* Run one XCD's workgroups of one wave from a queue.
 *
 * queue holds `rows` rows of six int64 words, one per workgroup in launch
 * order: the addresses of its bufs (int32), offs, lens, strides and counts
 * (int64) arrays and its segment count. slots[0, loaded) carry on from the
 * previous call. Free slots are loaded from the queue in order, skipping
 * rows of no runs; a row is checked segment by segment as it loads (see
 * segment_outside). The first bad row k returns -(k + 1) before any of its
 * lines is touched.
 *
 * Each turn touches the current line of every slot, in slot order, and
 * counts hits into counts[0] and touches into counts[1].
 * After the turn in which one or more slots drain, the survivors move to
 * the front in order and the next rows load after them. With `more` zero
 * the call returns 0 when every slot and the queue are empty; otherwise it
 * returns the number of slots in use as soon as a slot is free and the queue
 * is empty, so that the caller can pass the wave's next rows. touched, tags
 * and heads (see the top of this file) persist across calls.
 */
int64_t xcd_drain(slot_t *slots, int64_t capacity, int64_t loaded,
                  const int64_t *queue, int64_t rows, int64_t more,
                  const int64_t *bases, const int64_t *lengths, int64_t num_buffers,
                  int64_t line_shift, uint8_t *touched, int64_t *counts,
                  int64_t *tags, int32_t *heads, int64_t num_sets, int64_t ways)
{
    const uint64_t m = UINT64_MAX / (uint64_t)num_sets + 1;
    int64_t n = loaded;
    for (int64_t next = 0;;) {
        for (; n < capacity && next < rows; next++) {
            slot_t *s = &slots[n];
            memcpy(s, queue + 6 * next, 6 * sizeof(int64_t));
            for (int64_t r = 0; r < s->segments; r++)
                if (segment_outside(s, r, lengths, num_buffers))
                    return -(next + 1);
            s->seg = -1;
            s->runs = 0;
            if (next_run(s, bases, line_shift))
                n++;
        }
        if (n == 0 || (more && n < capacity))
            return n;

        int64_t hits = 0, turns = 0;
        int drained = 0;
        while (!drained) {
            for (int64_t k = 0; k < n; k++) {
                slot_t *s = &slots[k];
                hits += lru_touch(s->line, touched, tags, heads, m, num_sets, ways);
                if (s->line < s->last)
                    s->line++;
                else if (!next_run(s, bases, line_shift))
                    drained = 1;
            }
            turns++;
        }
        counts[0] += hits;
        counts[1] += turns * n;

        int64_t left = 0;
        for (int64_t k = 0; k < n; k++)
            if (slots[k].seg < slots[k].segments)
                slots[left++] = slots[k];
        n = left;
    }
}
