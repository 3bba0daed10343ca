/* The native kernel behind swizzlesim.cachesim. Its one entry point,
 * xcd_drain, runs one XCD's resident workgroup slots: it expands their
 * records into line touches and feeds each touch to a set-associative LRU.
 *
 * tags holds num_sets rows of `ways` line ids, most recently used first;
 * fill[s] is how many entries of row s are valid. A miss allocates the line
 * (write-allocate), evicting the row's last entry when the row is full.
 * Every line id is non-negative: AccessTrace rejects negative buffer bases
 * and xcd_drain rejects negative offsets, so `line % num_sets` is a valid
 * set and touched[line] a valid flag.
 */
#include <stddef.h>
#include <stdint.h>

/* Touch one line; 1 on a hit. */
static inline int lru_touch(int64_t line, int64_t *tags, int32_t *fill,
                            int64_t num_sets, int64_t ways)
{
    int64_t set = line % num_sets;
    int64_t *row = tags + set * ways;
    int32_t used = fill[set];
    int64_t k = 0;
    while (k < used && row[k] != line)
        k++;
    int hit = k < used;
    if (!hit) {
        if (used < ways)
            fill[set] = used + 1; /* k is the first free entry */
        else
            k = ways - 1;         /* evict the least recently used */
    }
    for (; k > 0; k--)
        row[k] = row[k - 1];
    row[0] = line;
    return hit;
}

/* One resident workgroup: its record arrays, which the caller keeps alive
 * while the slot is resident, the record being expanded, and that record's
 * current and last line. cachesim._run_native sees a slot as a row of
 * eight int64 words: it writes the first four (the three array addresses
 * and `records`) and reads word cachesim._ORIGIN; cachesim._SLOT_WORDS is
 * the row length. The asserts below fail the build if this layout moves. */
typedef struct {
    const int32_t *bufs;
    const int64_t *offs;
    const int64_t *lens;
    int64_t records; /* at least 1 */
    int64_t rec;
    int64_t line;
    int64_t last;
    int64_t origin;  /* set on return: a survivor's slot index in this call */
} slot_t;

_Static_assert(sizeof(slot_t) == 8 * sizeof(int64_t), "slot_t is eight int64 words");
_Static_assert(offsetof(slot_t, bufs) == 0 && offsetof(slot_t, offs) == 8
               && offsetof(slot_t, lens) == 16 && offsetof(slot_t, records) == 24,
               "cachesim._run_native writes words 0-3 as bufs, offs, lens, records");
_Static_assert(offsetof(slot_t, origin) == 7 * sizeof(int64_t),
               "cachesim._ORIGIN reads origin as word 7");

static inline void load_record(slot_t *s, const int64_t *bases, int64_t line_shift)
{
    int64_t start = s->offs[s->rec] + bases[s->bufs[s->rec]];
    s->line = start >> line_shift;
    s->last = (start + s->lens[s->rec] - 1) >> line_shift;
}

/* Run one XCD's resident slots until the first turn in which a slot drains.
 *
 * slots[0, loaded) carry on from the previous call; slots[loaded, n) are
 * newly loaded and are checked first, in order: a record is bad if it is
 * empty, names no buffer, starts before its buffer or ends past it. The
 * first bad slot k returns -(k + 1) before any line is touched.
 *
 * Each turn touches the current line of every slot, in slot order, marks
 * touched[line] and counts hits into counts[0] and touches into counts[1].
 * After the turn in which one or more slots drain, the survivors move to
 * the front in order, each with origin set to its index before the move,
 * and their number is returned. tags and fill are the XCD's LRU rows (see
 * the top of this file); they persist across calls.
 */
int64_t xcd_drain(slot_t *slots, int64_t n, int64_t loaded,
                  const int64_t *bases, const int64_t *lengths, int64_t num_buffers,
                  int64_t line_shift, uint8_t *touched, int64_t *counts,
                  int64_t *tags, int32_t *fill, int64_t num_sets, int64_t ways)
{
    for (int64_t k = loaded; k < n; k++) {
        slot_t *s = &slots[k];
        for (int64_t r = 0; r < s->records; r++) {
            int32_t buf = s->bufs[r];
            int64_t off = s->offs[r], len = s->lens[r];
            if (buf < 0 || buf >= num_buffers || len < 1 || off < 0
                || len > lengths[buf] - off)
                return -(k + 1);
        }
        s->rec = 0;
        load_record(s, bases, line_shift);
    }

    int64_t hits = 0, turns = 0;
    int drained = 0;
    while (!drained) {
        for (int64_t k = 0; k < n; k++) {
            slot_t *s = &slots[k];
            touched[s->line] = 1;
            hits += lru_touch(s->line, tags, fill, num_sets, ways);
            if (s->line < s->last)
                s->line++;
            else if (++s->rec < s->records)
                load_record(s, bases, line_shift);
            else
                drained = 1;
        }
        turns++;
    }
    counts[0] += hits;
    counts[1] += turns * n;

    int64_t left = 0;
    for (int64_t k = 0; k < n; k++) {
        if (slots[k].rec < slots[k].records) {
            slots[left] = slots[k];
            slots[left].origin = k;
            left++;
        }
    }
    return left;
}
