package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/live"
	"rkranks/internal/obs"
)

// maxMutationLog bounds the group's replayable mutation-batch log. A
// replica that missed more batches than the log retains cannot be
// caught up in process (it stays out of rotation until an operator
// restarts it against a healthy sibling's snapshot).
const maxMutationLog = 256

// errReplicaLagging marks a replica skipped by Mutate because its
// generation is behind the group's serving generation; it will receive
// the batch via ordered catch-up replay instead.
var errReplicaLagging = errors.New("cluster: replica lagging serving generation; deferred to catch-up")

// loggedBatch is one successfully applied mutation batch, kept for
// replaying to replicas that missed it.
type loggedBatch struct {
	gen uint64 // generation the batch advanced the group to
	ms  []graph.Mutation
}

// ReplicaGroup is N backends serving the SAME shard mask, presented to
// the coordinator as one ShardBackend (or to server.New and
// cache.NewBackend as one backend). Queries are load-balanced
// round-robin across the replicas in rotation; a query that fails on
// one replica retries on a sibling (counted in
// rkranks_replica_failovers_total) before the group reports failure, so
// a single replica loss never degrades answers. Each replica has its
// own half-open health tracking, identical to the coordinator's
// per-shard tracking.
//
// # Rotation and generation
//
// A replica is in rotation iff it is healthy AND its graph generation
// matches the group's serving generation — the maximum generation among
// healthy replicas. Group Generation() reports exactly that serving
// generation, so the response cache's key always matches the generation
// of the replica that actually answers: a stale replica mid-catch-up
// can never poison the cache with old-generation answers filed under
// the new generation's key.
//
// # Mutations and catch-up
//
// Mutate fans each batch to EVERY replica in lockstep and succeeds when
// at least one replica applied it (the group can then serve at the new
// generation); while the serving generation is regressed below the
// group's high-water mark it refuses batches instead (see Mutate).
// Applied batches are logged; a replica that was down
// while batches landed is caught up by replaying the batches it missed
// — in order, each advancing its generation by one — before it rejoins
// rotation (rkranks_replica_catchups_total). Index state transfers
// separately via snapshot + delta streaming (/v1/index/snapshot, see
// IndexFollower), which replicas use to inherit learned refinements
// rather than correctness-critical graph state.
type ReplicaGroup struct {
	replicas []ShardBackend
	cfg      Config
	health   []shardHealth
	om       *obs.Metrics
	cursor   atomic.Uint64

	// catchMu admits one catch-up at a time; queries that cannot claim
	// it just skip the lagging replica.
	catchMu sync.Mutex

	// muMu serializes group mutations and guards mulog.
	muMu  sync.Mutex
	mulog []loggedBatch

	// highWater is the newest generation ever observed on any replica or
	// logged by a batch, independent of health. Mutations are refused
	// while the serving generation is below it: a regressed group
	// accepting a batch would reuse an already-logged generation number
	// for different content (see Mutate).
	highWater atomic.Uint64
}

// NewReplicaGroup builds a group over replicas of one shard mask. The
// replicas must be interchangeable: same graph, same candidate class
// (the coordinator's RemoteExpect checks enforce this for remote
// replicas; the local constructors build them from one partitioner).
func NewReplicaGroup(replicas []ShardBackend, cfg Config) (*ReplicaGroup, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: a replica group needs at least one backend")
	}
	om := cfg.Metrics
	if om == nil {
		om = obs.NewMetrics(nil)
	}
	return &ReplicaGroup{
		replicas: replicas,
		cfg:      cfg,
		health:   make([]shardHealth, len(replicas)),
		om:       om,
	}, nil
}

// backendGeneration probes a backend's graph generation (0 when the
// backend has none — immutable groups never leave generation 0).
func backendGeneration(b ShardBackend) uint64 {
	if gp, ok := b.(interface{ Generation() uint64 }); ok {
		return gp.Generation()
	}
	return 0
}

// servingGeneration is the group's target: the maximum generation among
// healthy replicas. Only replicas AT this generation serve queries. If
// every up-to-date replica is unhealthy, the target regresses to the
// best healthy replica — it then serves its (older) answers stamped
// with its own generation, which stays self-consistent: Generation()
// reports the same regressed value, and cross-shard merges against
// newer groups are refused by the generation-skew check. Mutations are
// refused while regressed (see Mutate), so the group can never mint a
// generation number colliding with a logged batch it is missing.
//
// When NO replica is healthy the target falls back to the maximum over
// ALL replicas: returning 0 would strand every half-open probe in a
// generation mismatch — released without ever issuing a call, so
// record(true) never runs — locking the group out permanently even
// after the replicas recover.
func (g *ReplicaGroup) servingGeneration() uint64 {
	threshold := g.cfg.failureThreshold()
	var target, all uint64
	anyHealthy := false
	for i, b := range g.replicas {
		gen := backendGeneration(b)
		if gen > all {
			all = gen
		}
		if !g.health[i].healthy(threshold) {
			continue
		}
		anyHealthy = true
		if gen > target {
			target = gen
		}
	}
	g.raiseHighWater(all)
	if !anyHealthy {
		return all
	}
	return target
}

// raiseHighWater records the newest generation ever observed or logged,
// independent of replica health (see Mutate's regressed-group guard).
func (g *ReplicaGroup) raiseHighWater(gen uint64) {
	for {
		cur := g.highWater.Load()
		if gen <= cur || g.highWater.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// Generation implements the response-cache generation probe: the
// serving replica's generation (see servingGeneration), NOT a blanket
// maximum over all replicas — a restarted replica still catching up
// must neither drag the key down nor serve under it.
func (g *ReplicaGroup) Generation() uint64 { return g.servingGeneration() }

// InRotation counts replicas currently eligible to serve (healthy and
// at the serving generation).
func (g *ReplicaGroup) InRotation() int {
	threshold := g.cfg.failureThreshold()
	target := g.servingGeneration()
	n := 0
	for i, b := range g.replicas {
		if g.health[i].healthy(threshold) && backendGeneration(b) == target {
			n++
		}
	}
	return n
}

// replicaCall routes one call across the group: round-robin from the
// cursor over replicas admitted by health tracking, catching up lagging
// replicas when possible, failing over to the next sibling on error.
func replicaCall[T any](ctx context.Context, g *ReplicaGroup, call func(b ShardBackend) (T, error)) (T, error) {
	var zero T
	n := len(g.replicas)
	start := int(g.cursor.Add(1) % uint64(n))
	target := g.servingGeneration()
	now := time.Now()
	threshold := g.cfg.failureThreshold()
	var lastErr error
	attempted := false
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if !g.health[i].claimProbe(now, threshold) {
			continue
		}
		// A replica BEHIND the target (just revived, missed mutation
		// batches) must not serve stale answers: replay what it missed
		// first, and skip it when the log cannot get it to the serving
		// generation. A replica AHEAD of the target — the target
		// regressed because every up-to-date sibling is tripped — serves
		// anyway: its answers are at least as fresh, and letting its
		// probe issue a real call is the only way its health, and with it
		// the serving generation, can recover.
		if gen := backendGeneration(g.replicas[i]); gen < target && !g.catchUp(ctx, i, gen, target) {
			g.health[i].releaseProbe()
			continue
		}
		if attempted {
			g.om.ReplicaFailovers.Inc()
		}
		attempted = true
		out, err := call(g.replicas[i])
		failure := err != nil && !fatalQueryError(err)
		if _, isOverload := overloadHint(err); isOverload {
			failure = false // shedding is the admission layer working, not ill health
		}
		g.health[i].record(!failure, threshold, g.cfg.retryBackoff())
		if err == nil {
			return out, nil
		}
		if fatalQueryError(err) {
			return zero, err
		}
		lastErr = err
	}
	if lastErr != nil {
		return zero, lastErr
	}
	return zero, errors.New("no replica in rotation")
}

// catchUp replays the mutation batches replica i missed, bringing it
// from generation cur to target. One catch-up runs at a time; callers
// that lose the TryLock skip the replica this query. Returns whether
// the replica reached the serving generation.
func (g *ReplicaGroup) catchUp(ctx context.Context, i int, cur, target uint64) bool {
	m, ok := g.replicas[i].(shardMutator)
	if !ok {
		return false
	}
	if !g.catchMu.TryLock() {
		return false
	}
	defer g.catchMu.Unlock()
	for cur < target {
		ms, ok := g.batchFor(cur + 1)
		if !ok {
			return false // fell off the bounded log; needs operator help
		}
		info, err := m.Mutate(ctx, ms)
		if err != nil {
			return false
		}
		if info.Generation <= cur {
			return false // not advancing; bail rather than loop
		}
		cur = info.Generation
	}
	g.om.ReplicaCatchups.Inc()
	return true
}

// recoverToHighWater replays logged batches into healthy replicas that
// sit behind the group's high-water generation — the best-effort path
// out of a regressed group (see Mutate). Called WITHOUT muMu held:
// catch-up replay acquires it per batch lookup.
func (g *ReplicaGroup) recoverToHighWater(ctx context.Context) {
	hwm := g.highWater.Load()
	if hwm == 0 {
		return
	}
	threshold := g.cfg.failureThreshold()
	for i, b := range g.replicas {
		if !g.health[i].healthy(threshold) {
			continue
		}
		if gen := backendGeneration(b); gen < hwm {
			g.catchUp(ctx, i, gen, hwm)
		}
	}
}

// generationProber is the over-the-wire generation probe (RemoteShard
// asks /healthz); in-process backends expose Generation directly.
type generationProber interface {
	ProbeGeneration(ctx context.Context) (uint64, error)
}

// currentGeneration reads a backend's CURRENT generation for the mutate
// retry guard: in process via Generation, remotely via a /healthz probe.
// ok=false means the backend has no generation concept or the probe
// failed, so an applied-but-errored batch cannot be detected and the
// caller falls back to the plain retry.
func currentGeneration(ctx context.Context, m shardMutator) (uint64, bool) {
	if gp, ok := m.(interface{ Generation() uint64 }); ok {
		return gp.Generation(), true
	}
	if gp, ok := m.(generationProber); ok {
		if gen, err := gp.ProbeGeneration(ctx); err == nil {
			return gen, true
		}
	}
	return 0, false
}

// guardedMutate sends one batch to m and retries it once after a
// transient error. Request faults, context expiry, a remote 501 and an
// ImmutableShardError would fail identically again, so they return at
// once. The retry is guarded: a transient error does not prove the batch
// was not applied (a remote transport can fail after the server
// committed it), and re-sending an applied batch would double-apply it
// on m alone, advancing it a generation past its siblings with no batch
// for the hole. So after each failed send a generation that provably
// advanced since the first send counts as an apply instead.
func guardedMutate(ctx context.Context, m shardMutator, ms []graph.Mutation) (live.MutateInfo, error) {
	preGen, preKnown := currentGeneration(ctx, m)
	var info live.MutateInfo
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		info, err = m.Mutate(ctx, ms)
		if err == nil || fatalQueryError(err) || immutableRemote(err) || isImmutableShard(err) {
			return info, err
		}
		if gen, ok := currentGeneration(ctx, m); preKnown && ok && gen > preGen {
			return live.MutateInfo{Applied: len(ms), Generation: gen}, nil
		}
	}
	return info, err
}

// batchFor finds the logged batch that advanced the group to gen.
func (g *ReplicaGroup) batchFor(gen uint64) ([]graph.Mutation, bool) {
	g.muMu.Lock()
	defer g.muMu.Unlock()
	for _, b := range g.mulog {
		if b.gen == gen {
			return b.ms, true
		}
	}
	return nil, false
}

// logBatch records an applied batch for later catch-up replay.
// Caller holds muMu.
func (g *ReplicaGroup) logBatch(gen uint64, ms []graph.Mutation) {
	g.raiseHighWater(gen)
	for _, b := range g.mulog {
		if b.gen == gen {
			// Defensive: Mutate's regressed-group guard makes a colliding
			// generation unreachable, but a second batch must never shadow
			// the content already logged under this number — catch-up
			// replay and the recovering up-to-date replica must agree on
			// what each generation contains.
			return
		}
	}
	if len(g.mulog) >= maxMutationLog {
		drop := maxMutationLog / 2
		g.mulog = append(g.mulog[:0], g.mulog[drop:]...)
	}
	g.mulog = append(g.mulog, loggedBatch{gen: gen, ms: append([]graph.Mutation(nil), ms...)})
}

// QueryContext implements ShardBackend with replica failover.
func (g *ReplicaGroup) QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	return replicaCall(ctx, g, func(b ShardBackend) (*core.Result, error) {
		return b.QueryContext(ctx, a, q, k)
	})
}

// QueryManyContext implements ShardBackend with replica failover. The
// batch is one call, so it fails over as a whole and every answer in it
// comes from one replica.
func (g *ReplicaGroup) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	return replicaCall(ctx, g, func(b ShardBackend) ([]*core.Result, error) {
		return b.QueryManyContext(ctx, a, queries, k)
	})
}

// Mutate fans one batch to every replica in lockstep (see the type
// docs): the group stays mutable while at least one replica applies the
// batch, and replicas that failed drop out of rotation by generation
// until caught up. A group whose serving generation REGRESSED below its
// high-water mark (every replica holding the newest batches is out of
// rotation) refuses the batch with GroupRegressedError after a
// best-effort catch-up: minting target+1 again would collide with the
// generation number already logged under different content.
func (g *ReplicaGroup) Mutate(ctx context.Context, ms []graph.Mutation) (live.MutateInfo, error) {
	muts := make([]shardMutator, len(g.replicas))
	for i, b := range g.replicas {
		m, ok := b.(shardMutator)
		if !ok {
			return live.MutateInfo{}, &ImmutableShardError{Shard: i}
		}
		muts[i] = m
	}

	// Best-effort recovery BEFORE the regressed-group guard below: replay
	// logged batches into healthy replicas sitting behind the high-water
	// generation, so a group whose newest replica tripped accepts
	// mutations again without waiting for that replica to heal. Runs
	// outside muMu — catch-up replay takes it per batch lookup.
	g.recoverToHighWater(ctx)

	g.muMu.Lock()
	defer g.muMu.Unlock()

	// A generation-lagging replica must NOT receive this batch directly:
	// applying it would advance the replica's generation number while its
	// graph still misses the batches in between — a replica claiming a
	// generation whose content it does not have. Lagging replicas advance
	// only through catch-up replay, which applies missed batches in
	// order; here they are simply skipped (no health penalty — lagging is
	// not illness).
	target := g.servingGeneration()
	if hwm := g.highWater.Load(); target < hwm {
		return live.MutateInfo{}, &GroupRegressedError{Serving: target, HighWater: hwm}
	}
	infos := make([]live.MutateInfo, len(muts))
	errs := make([]error, len(muts))
	var wg sync.WaitGroup
	for i, m := range muts {
		if backendGeneration(g.replicas[i]) != target {
			errs[i] = errReplicaLagging
			continue
		}
		wg.Add(1)
		go func(i int, m shardMutator) {
			defer wg.Done()
			infos[i], errs[i] = guardedMutate(ctx, m, ms)
		}(i, m)
	}
	wg.Wait()

	okIdx := -1
	failed := map[int]error{}
	for i, err := range errs {
		switch {
		case err == nil:
			if okIdx < 0 {
				okIdx = i
			}
		case errors.Is(err, errReplicaLagging):
			failed[i] = err
		case immutableRemote(err):
			return live.MutateInfo{}, &ImmutableShardError{Shard: i}
		case errors.Is(err, core.ErrInvalidArgument):
			// Bad batch: every replica refused identically, none applied.
			return live.MutateInfo{}, err
		default:
			failed[i] = err
			g.health[i].record(false, g.cfg.failureThreshold(), g.cfg.retryBackoff())
		}
	}
	if okIdx < 0 {
		return live.MutateInfo{}, &MutationError{Failed: failed}
	}
	g.logBatch(infos[okIdx].Generation, ms)
	return infos[okIdx], nil
}

// Size implements ShardBackend: reads are load-balanced, so the group's
// concurrent capacity is the sum over its replicas.
func (g *ReplicaGroup) Size() int {
	total := 0
	for _, b := range g.replicas {
		total += b.Size()
	}
	if total < 1 {
		total = 1
	}
	return total
}

// Indexed implements ShardBackend: any replica may answer, so the
// capability holds only when all replicas have it.
func (g *ReplicaGroup) Indexed() bool {
	for _, b := range g.replicas {
		if !b.Indexed() {
			return false
		}
	}
	return true
}

// HubLabeled reports the capability only when every replica has it
// (same reasoning as Indexed).
func (g *ReplicaGroup) HubLabeled() bool {
	for _, b := range g.replicas {
		hl, ok := b.(interface{ HubLabeled() bool })
		if !ok || !hl.HubLabeled() {
			return false
		}
	}
	return true
}

// HubLabelBytes reports the largest replica labeling: replicas hold
// copies of the same labeling, so summing would double-count.
func (g *ReplicaGroup) HubLabelBytes() int64 {
	var max int64
	for _, b := range g.replicas {
		if hb, ok := b.(interface{ HubLabelBytes() int64 }); ok {
			if v := hb.HubLabelBytes(); v > max {
				max = v
			}
		}
	}
	return max
}

var (
	_ ShardBackend = (*ReplicaGroup)(nil)
	_ shardMutator = (*ReplicaGroup)(nil)
)
