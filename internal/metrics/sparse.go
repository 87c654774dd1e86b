package metrics

import "sort"

// countShards is the shard fan-out of ShardedCounts. Sharding keeps each
// map small under million-client populations (bounded rehash pauses) and
// gives iteration a natural deterministic order: shard-major, sorted IDs
// within each shard.
const countShards = 64

// shardSpan is how many consecutive IDs share a shard before the next
// shard takes over. A population of up to shardSpan clients therefore
// touches a single map, while a million-client run still spreads over
// all countShards shards.
const shardSpan = 1024

// shardOf returns id's shard index.
func shardOf(id int) uint { return uint(id/shardSpan) % countShards }

// ShardedCounts is a sparse per-client counter: memory is O(distinct
// clients counted), not O(population). It backs the ledger's selection
// and completion tallies, since a million-client run touches only the
// participants.
type ShardedCounts struct {
	shards [countShards]map[int]int
	n      int // distinct ids with a nonzero count
}

// NewShardedCounts constructs an empty sparse counter. Shard maps are
// allocated on first use, so a small population pays for one map only.
func NewShardedCounts() *ShardedCounts { return &ShardedCounts{} }

// shardFor returns id's shard map, allocating it on first use.
func (s *ShardedCounts) shardFor(id int) map[int]int {
	i := shardOf(id)
	if s.shards[i] == nil {
		s.shards[i] = make(map[int]int)
	}
	return s.shards[i]
}

// Inc increments id's count.
func (s *ShardedCounts) Inc(id int) {
	m := s.shardFor(id)
	if _, ok := m[id]; !ok {
		s.n++
	}
	m[id]++
}

// Get returns id's count (0 if never incremented).
func (s *ShardedCounts) Get(id int) int { return s.shards[shardOf(id)][id] }

// Distinct returns the number of ids with a nonzero count.
func (s *ShardedCounts) Distinct() int { return s.n }

// Counts returns all nonzero counts in deterministic order: shard-major,
// ascending ID within each shard. Aggregates that are order-sensitive in
// float arithmetic (Jain's index) rely on this fixed order for
// byte-reproducible results.
func (s *ShardedCounts) Counts() []int {
	out := make([]int, 0, s.n)
	ids := make([]int, 0, 64)
	for _, m := range s.shards {
		ids = ids[:0]
		for id := range m {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			out = append(out, m[id])
		}
	}
	return out
}
