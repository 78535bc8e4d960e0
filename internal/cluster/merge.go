package cluster

import (
	"rkranks/internal/core"
	"rkranks/internal/rank"
)

// mergeTopK folds shard answers into the merged top k. Shard candidate
// classes are disjoint, so the union has no duplicates, and each answer
// holds every one of its shard's candidates that is in the merged top k
// (see the package doc), so the k best of the union by (rank, node id)
// are exactly what a single-node engine would return.
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
