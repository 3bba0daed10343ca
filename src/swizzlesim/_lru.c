/* Set-associative LRU cache kernel behind swizzlesim.cachesim.SetAssocLru.
 *
 * tags holds num_sets rows of `ways` line ids, most recently used first;
 * fill[s] is how many entries of row s are valid. A miss allocates the line
 * (write-allocate), evicting the row's last entry when the row is full.
 */
#include <stdint.h>

int64_t lru_access_many(const int64_t *lines, int64_t n, int64_t *tags,
                        int32_t *fill, int64_t num_sets, int64_t ways)
{
    int64_t hits = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t line = lines[i];
        int64_t set = line % num_sets;
        if (set < 0)
            set += num_sets; /* Python's modulo for negative line ids */
        int64_t *row = tags + set * ways;
        int32_t used = fill[set];
        int64_t k = 0;
        while (k < used && row[k] != line)
            k++;
        if (k < used)
            hits++;
        else if (used < ways)
            fill[set] = used + 1; /* k is the first free entry */
        else
            k = ways - 1;         /* evict the least recently used */
        for (; k > 0; k--)
            row[k] = row[k - 1];
        row[0] = line;
    }
    return hits;
}
