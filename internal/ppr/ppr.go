// Package ppr implements reverse k-ranks under Personalized PageRank
// proximity — the extension the paper's conclusion names as future work
// ("we plan to study reverse k-ranks queries for other node similarity
// measures (i.e. PageRank, Personalized PageRank and SimRank), which
// require radically different approaches").
//
// This is a reference implementation, not an indexed engine: PPR proximity
// is not a metric, none of the SDS-tree bounds (Lemmas 1-4) carry over,
// and the authors explicitly defer the efficient algorithms. What a
// reference implementation does enable is (a) a correct oracle to develop
// such algorithms against, and (b) small-scale studies of how PPR-based
// reverse k-ranks answers differ from shortest-path ones.
//
// Rank semantics mirror Definition 1 with proximity inverted: node t's
// rank from s is 1 + |{p : ppr_s(p) > ppr_s(t)}| — higher personalized
// score means nearer. Ties share ranks, exactly like the distance-based
// rank.
package ppr

import (
	"fmt"
	"sort"

	"rkranks/internal/graph"
	"rkranks/internal/rank"
)

// Params configures the PPR power iteration.
type Params struct {
	// Alpha is the restart (teleport) probability; the PPR literature
	// defaults to 0.15-0.2. Must be in (0, 1).
	Alpha float64
	// Iterations bounds the power iterations; 0 uses a default of 50.
	Iterations int
	// Epsilon stops iterating early when the L1 change drops below it;
	// 0 uses 1e-9.
	Epsilon float64
}

func (p *Params) normalize() error {
	if p.Alpha <= 0 || p.Alpha >= 1 {
		return fmt.Errorf("ppr: Alpha must be in (0,1), got %g", p.Alpha)
	}
	if p.Iterations <= 0 {
		p.Iterations = 50
	}
	if p.Epsilon <= 0 {
		p.Epsilon = 1e-9
	}
	return nil
}

// Scores computes the Personalized PageRank vector of source by power
// iteration over the row-stochastic transition matrix derived from edge
// weights (weight-proportional transition probabilities). Dangling nodes
// teleport back to the source, keeping the vector a distribution.
func Scores(g *graph.Graph, source int32, p Params) ([]float64, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	n := g.N()
	if source < 0 || int(source) >= n {
		return nil, fmt.Errorf("ppr: source %d out of range [0,%d)", source, n)
	}
	// Precompute out-weight sums.
	outSum := make([]float64, n)
	for u := 0; u < n; u++ {
		for _, a := range g.Neighbors(int32(u)) {
			outSum[u] += a.W
		}
	}
	cur := make([]float64, n)
	next := make([]float64, n)
	cur[source] = 1
	for iter := 0; iter < p.Iterations; iter++ {
		for i := range next {
			next[i] = 0
		}
		dangling := 0.0
		for u := 0; u < n; u++ {
			mass := cur[u]
			if mass == 0 {
				continue
			}
			if outSum[u] == 0 {
				dangling += mass
				continue
			}
			scale := (1 - p.Alpha) * mass / outSum[u]
			for _, a := range g.Neighbors(int32(u)) {
				next[a.To] += scale * a.W
			}
			dangling += 0 // explicit: non-dangling mass handled above
		}
		// Teleport: alpha of all mass plus the full dangling mass returns
		// to the source.
		teleport := p.Alpha*(1-dangling) + dangling
		next[source] += teleport
		var delta float64
		for i := range next {
			d := next[i] - cur[i]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		cur, next = next, cur
		if delta < p.Epsilon {
			break
		}
	}
	return cur, nil
}

// Rank computes the PPR analogue of Rank(s, t): 1 plus the number of nodes
// with strictly higher personalized score from s than t has (ties share
// ranks, the source itself is excluded). It returns rank.Unreachable when
// t's score is zero (t absorbs no probability from s).
func Rank(g *graph.Graph, s, t int32, p Params) (int32, error) {
	if s == t {
		return 0, nil
	}
	scores, err := Scores(g, s, p)
	if err != nil {
		return 0, err
	}
	if scores[t] == 0 {
		return rank.Unreachable, nil
	}
	higher := int32(0)
	for v, sc := range scores {
		if int32(v) == s || int32(v) == t {
			continue
		}
		if sc > scores[t] {
			higher++
		}
	}
	return higher + 1, nil
}

// ReverseKRanks answers a reverse k-ranks query under PPR proximity by
// brute force: one PPR vector per node (O(|V|) power iterations). Results
// are the k nodes ranking q highest, ordered by (rank, node id) —
// identical semantics to the shortest-path engines, different proximity.
func ReverseKRanks(g *graph.Graph, q int32, k int, p Params) ([]rank.Entry, error) {
	if k < 1 {
		return nil, fmt.Errorf("ppr: k must be >= 1, got %d", k)
	}
	if q < 0 || int(q) >= g.N() {
		return nil, fmt.Errorf("ppr: query %d out of range [0,%d)", q, g.N())
	}
	var all []rank.Entry
	for s := int32(0); int(s) < g.N(); s++ {
		if s == q {
			continue
		}
		r, err := Rank(g, s, q, p)
		if err != nil {
			return nil, err
		}
		if r == rank.Unreachable {
			continue
		}
		all = append(all, rank.Entry{Node: s, Rank: r})
	}
	rank.SortEntries(all)
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// TopK returns the k nodes with the highest personalized score from q
// (the PPR analogue of the k-NN query), highest first, ties by node id.
func TopK(g *graph.Graph, q int32, k int, p Params) ([]rank.Entry, error) {
	scores, err := Scores(g, q, p)
	if err != nil {
		return nil, err
	}
	type cand struct {
		node  int32
		score float64
	}
	cands := make([]cand, 0, g.N()-1)
	for v, sc := range scores {
		if int32(v) != q && sc > 0 {
			cands = append(cands, cand{int32(v), sc})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].node < cands[j].node
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]rank.Entry, len(cands))
	strictAbove := 0
	last := -1.0
	for i, c := range cands {
		if c.score != last {
			strictAbove = i
			last = c.score
		}
		out[i] = rank.Entry{Node: c.node, Rank: int32(strictAbove + 1)}
	}
	return out, nil
}
