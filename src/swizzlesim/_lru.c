/* The native kernel behind swizzlesim.cachesim. Its entry point,
 * xcd_drain, runs one XCD's queue of workgroups for one wave, each an index
 * into one batch (traces.Batch): it loads them into resident slots, walks
 * their segments run by run (a segment is a start, a stride and a count of
 * equal-length runs, and a workgroup's segments are one group that it runs
 * `groups` times, each segment moving by its group stride at each
 * repetition), expands each run into line touches and feeds each touch to a
 * set-associative LRU.
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
#include <stdint.h>

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

/* One batch's columns, as traces.Batch holds them: per segment bufs, offs,
 * lens, strides, counts and gstrides; per workgroup w its segments
 * indptr[w] to indptr[w + 1] - 1 and its groups[w]. */
typedef struct {
    const int32_t *bufs;
    const int64_t *offs, *lens, *strides, *counts, *gstrides, *indptr, *groups;
} batch_t;

/* One resident workgroup: its segment arrays, segment count and groups,
 * taken from its batch, the group and the segment being run, the runs
 * left in it after the current one, and the current run's first byte address
 * and current and last line. In group g a segment is counts[i] runs of
 * lens[i] bytes of buffer bufs[i] at offs[i] + g * gstrides[i] + j *
 * strides[i]. The caller owns the slots, cachesim._SLOT_WORDS int64 words
 * each, and keeps a workgroup's arrays alive while a slot points into them. */
typedef struct {
    const int32_t *bufs;
    const int64_t *offs, *lens, *strides, *counts, *gstrides;
    int64_t segments, groups, group;
    int64_t seg; /* `segments` once the workgroup is drained */
    int64_t runs, start, line, last;
} slot_t;

_Static_assert(sizeof(slot_t) == 14 * sizeof(int64_t), "cachesim._SLOT_WORDS is 14");

/* 1 if a run of segment r of a slot's workgroup, in any of its groups, is
 * empty, names no buffer, starts before its buffer or ends past it. A segment
 * of no runs, or of a workgroup of no groups, is never bad. The runs' lowest
 * and highest starts take the first or last run of the first or last group,
 * formed in 128 bits, where neither product can overflow. */
static int segment_outside(const slot_t *s, int64_t r, const int64_t *lengths,
                           int64_t num_buffers)
{
    if (s->counts[r] < 1 || s->groups < 1)
        return 0;
    int32_t buf = s->bufs[r];
    if (buf < 0 || buf >= num_buffers || s->lens[r] < 1)
        return 1;
    __int128 runs = (__int128)(s->counts[r] - 1) * s->strides[r];
    __int128 groups = (__int128)(s->groups - 1) * s->gstrides[r];
    __int128 lowest = s->offs[r] + (runs < 0 ? runs : 0) + (groups < 0 ? groups : 0);
    __int128 highest = s->offs[r] + (runs > 0 ? runs : 0) + (groups > 0 ? groups : 0);
    return lowest < 0 || highest > lengths[buf] - s->lens[r];
}

/* Move slot s to its next run: `start` steps by the segment's stride until
 * the segment's runs are done, then moves to the next segment of one or more
 * runs; where the segment list ends, the group steps. 0 when no run is left;
 * a slot is loaded only with a run in each group (see xcd_drain). */
static inline int next_run(slot_t *s, const int64_t *bases, int64_t line_shift)
{
    int64_t seg = s->seg;
    if (s->runs > 0) {
        s->runs--;
        s->start += s->strides[seg];
    } else {
        do {
            if (++seg == s->segments) {
                if (++s->group == s->groups) {
                    s->seg = seg;
                    return 0;
                }
                seg = 0;
            }
        } while (s->counts[seg] < 1);
        s->seg = seg;
        s->runs = s->counts[seg] - 1;
        s->start = s->offs[seg] + s->group * s->gstrides[seg] + bases[s->bufs[seg]];
    }
    s->line = s->start >> line_shift;
    s->last = (s->start + s->lens[seg] - 1) >> line_shift;
    return 1;
}

/* Run one XCD's workgroups of one wave from a queue.
 *
 * queue holds `length` indices of workgroups of `batch`, in launch order.
 * slots[0, loaded) carry on from the previous call. Free slots are loaded
 * from the queue in order, each slot's pointers set into the batch's columns
 * at its workgroup's first segment, skipping workgroups of no runs; a
 * workgroup is checked segment by segment as it loads (see
 * segment_outside). The first bad one, at queue entry k, returns -(k + 1)
 * before any of its lines is touched.
 *
 * Each turn touches the current line of every slot, in slot order, and
 * counts hits into counts[0] and touches into counts[1].
 * After the turn in which one or more slots drain, the survivors move to
 * the front in order and the next workgroups load after them. With `more`
 * zero the call returns 0 when every slot and the queue are empty; otherwise
 * it returns the number of slots in use as soon as a slot is free and the
 * queue is empty, so that the caller can pass the wave's next queue. touched,
 * tags and heads (see the top of this file) persist across calls.
 */
int64_t xcd_drain(slot_t *slots, int64_t capacity, int64_t loaded, const batch_t *batch,
                  const int64_t *queue, int64_t length, int64_t more,
                  const int64_t *bases, const int64_t *lengths, int64_t num_buffers,
                  int64_t line_shift, uint8_t *touched, int64_t *counts,
                  int64_t *tags, int32_t *heads, int64_t num_sets, int64_t ways)
{
    const uint64_t m = UINT64_MAX / (uint64_t)num_sets + 1;
    int64_t n = loaded;
    for (int64_t next = 0;;) {
        for (; n < capacity && next < length; next++) {
            slot_t *s = &slots[n];
            int64_t w = queue[next], first = batch->indptr[w];
            *s = (slot_t){.bufs = batch->bufs + first, .offs = batch->offs + first,
                          .lens = batch->lens + first, .strides = batch->strides + first,
                          .counts = batch->counts + first, .gstrides = batch->gstrides + first,
                          .segments = batch->indptr[w + 1] - first, .groups = batch->groups[w],
                          .seg = -1};
            int runs = 0;
            for (int64_t r = 0; r < s->segments; r++) {
                if (segment_outside(s, r, lengths, num_buffers))
                    return -(next + 1);
                runs |= s->counts[r] > 0;
            }
            if (runs && s->groups > 0 && next_run(s, bases, line_shift))
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
