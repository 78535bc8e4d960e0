package cluster

import (
	"rkranks/internal/core"
	"rkranks/internal/rank"
)

// mergeTopK folds per-shard canonical results into the global canonical
// top-k. Shard candidate classes are disjoint, so the union has no
// duplicates and a plain (rank, node id) sort of the union's best
// prefixes is exactly what a single-node engine would return.
func mergeTopK(results []*core.Result, k int) []rank.Entry {
	var merged []rank.Entry
	for _, res := range results {
		if res != nil {
			merged = append(merged, res.Entries...)
		}
	}
	rank.SortEntries(merged)
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}

// unsettledShards decides, after a first gather round, which shards the
// merged prefix cannot yet certify: a shard is settled when its rank
// floor proves every candidate it withheld orders strictly after the
// merged k-th entry or cannot reach the merged top k, or when its answer
// is short (nothing it withheld can reach the merged top k; see
// core.Result.Floor). Everything else must be re-fetched at full k. The certification is exact under the canonical
// result semantics — including boundary ties, which compare by (rank,
// node id) pair, never by rank alone.
//
// It returns the escalation set and the number of shards short-circuited
// by their floor (the scatter-gather saving the /statsz counters report).
func unsettledShards(results []*core.Result, merged []rank.Entry, k int) (escalate []int, shortCircuited int) {
	var cutoff rank.Entry
	complete := len(merged) >= k
	if complete {
		cutoff = merged[k-1]
	}
	for shard, res := range results {
		if res == nil || res.K >= k {
			// Unavailable (nothing to escalate) or already asked at full
			// k (its floor clears any cutoff the merge can produce; see
			// the round-2 invariant in QueryContext).
			continue
		}
		f := res.Floor()
		settled := f.Exhausted || (complete && f.Clears(cutoff))
		if settled {
			shortCircuited++
		} else {
			escalate = append(escalate, shard)
		}
	}
	return escalate, shortCircuited
}
