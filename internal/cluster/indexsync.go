package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/obs"
	"rkranks/internal/ridx"
)

// Index replication, follower side: a cold-started replica bootstraps
// its dynamic index from a leader's /v1/index/snapshot and then keeps
// absorbing the leader's refinement deltas, so it serves with a warm
// index it never had to derive from its own traffic. All facts are
// exact and commute with local refinement (see ridx.Replicated), so the
// follower's own queries keep teaching its index while the stream runs,
// and it can itself lead further replicas.

// BootstrapIndex fetches a leader's index snapshot and returns it as a
// replication-ready index, along with the delta cursor and leader
// generation to hand to NewIndexFollower. logCap sizes the follower's
// own delta log (<= 0 for the default).
func BootstrapIndex(ctx context.Context, client *api.Client, logCap int) (*ridx.Replicated, uint64, uint64, error) {
	body, seq, gen, err := client.IndexSnapshot(ctx)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("cluster: index snapshot fetch: %w", err)
	}
	defer body.Close()
	snap, err := ridx.Read(body)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("cluster: index snapshot parse: %w", err)
	}
	repl := ridx.NewReplicated(snap.Sharded(), logCap)
	repl.RaiseGeneration(gen)
	return repl, seq, gen, nil
}

// IndexFollowerConfig tunes an IndexFollower. The zero value is sane.
type IndexFollowerConfig struct {
	// Interval is the delta poll period (<= 0 defaults to 2s).
	Interval time.Duration
	// Metrics records snapshot/delta progress counters (nil uses
	// standalone instruments).
	Metrics *obs.Metrics
	// Logger receives sync failures (nil stays silent; failures are
	// retried on the next tick either way).
	Logger *slog.Logger
}

// IndexFollower keeps a local replicated index converged with a
// leader's by polling /v1/index/deltas. When the leader's log no longer
// reaches the follower's cursor, or the leader's index generation
// changed, the follower falls back to a full snapshot re-sync (Absorb —
// sound because both sides serve the same immutable graph). Not safe
// for concurrent use; run one per index, typically via Run.
type IndexFollower struct {
	repl      *ridx.Replicated
	client    *api.Client
	cursor    uint64
	leaderGen uint64
	cfg       IndexFollowerConfig
	om        *obs.Metrics

	// lastResyncGen/resyncsAtGen detect a re-sync loop: repeated full
	// snapshot re-syncs at one unchanged leader generation mean the
	// incremental stream never gets a chance (e.g. the leader's delta
	// log truncates faster than the poll interval) and deserve a loud
	// log instead of silent churn.
	lastResyncGen uint64
	resyncsAtGen  int
}

// NewIndexFollower builds a follower resuming from cursor/leaderGen (as
// returned by BootstrapIndex, or 0/0 to start with a forced snapshot
// re-sync on the first poll).
func NewIndexFollower(repl *ridx.Replicated, client *api.Client, cursor, leaderGen uint64, cfg IndexFollowerConfig) *IndexFollower {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	om := cfg.Metrics
	if om == nil {
		om = obs.NewMetrics(nil)
	}
	return &IndexFollower{repl: repl, client: client, cursor: cursor, leaderGen: leaderGen, cfg: cfg, om: om}
}

// Cursor returns the next delta sequence the follower will request.
func (f *IndexFollower) Cursor() uint64 { return f.cursor }

// SyncOnce drains the leader's available deltas (possibly over several
// batches), returning how many were fetched and applied. A batch or
// snapshot that does not fit the local index (a leader serving another
// graph) fails the call before changing the index or the cursor, so the
// follower keeps serving and retries on the next poll.
func (f *IndexFollower) SyncOnce(ctx context.Context) (applied int, err error) {
	for {
		if ctx.Err() != nil {
			return applied, ctx.Err()
		}
		resp, err := f.client.IndexDeltas(ctx, f.cursor, 0)
		if err != nil {
			return applied, err
		}
		if resp.SnapshotRequired || resp.IndexGeneration != f.leaderGen {
			if err := f.resync(ctx); err != nil {
				return applied, err
			}
			continue
		}
		ds, err := api.DecodeDeltas(resp.Deltas)
		if err != nil {
			return applied, err
		}
		if _, err := f.repl.Apply(ds); err != nil {
			return applied, fmt.Errorf("cluster: index deltas: %w", err)
		}
		f.repl.RaiseGeneration(resp.IndexGeneration)
		f.om.IndexDeltasApplied.Add(int64(len(ds)))
		applied += len(ds)
		f.cursor = resp.Next
		if len(resp.Deltas) == 0 {
			return applied, nil
		}
	}
}

// resync absorbs a full leader snapshot and resets the cursor: the
// recovery path when the incremental stream cannot continue.
func (f *IndexFollower) resync(ctx context.Context) error {
	body, seq, gen, err := f.client.IndexSnapshot(ctx)
	if err != nil {
		return fmt.Errorf("cluster: index re-sync fetch: %w", err)
	}
	defer body.Close()
	snap, err := ridx.Read(body)
	if err != nil {
		return fmt.Errorf("cluster: index re-sync parse: %w", err)
	}
	if snap.N() != f.repl.N() {
		// Checked before the discard below, which a snapshot that cannot
		// be absorbed must not trigger.
		return fmt.Errorf("cluster: index re-sync: snapshot covers %d nodes, index %d: %w", snap.N(), f.repl.N(), ridx.ErrFormat)
	}
	// A re-sync at the leader generation we last synced against (log
	// truncation) merges: every fact both sides hold is exact, so local
	// refinements survive. A leader-generation CHANGE means the leader
	// discarded its answer set — keeping local facts derived under the
	// old one would resurrect exactly the answers the invalidation
	// exists to retract, so discard first. The comparison is against the
	// last SYNCED leader generation, not the local index's: a leader
	// that restarted BEHIND the follower (its generation legitimately
	// restarts lower) must not trigger a discard — the local generation
	// can never be lowered to match (RaiseGeneration is monotonic), and
	// the local facts, derived under a generation at least as new, are
	// the fresher ones to keep; the older snapshot simply merges in.
	if gen != f.leaderGen && gen >= f.repl.Generation() {
		f.repl.Invalidate()
	}
	if gen == f.lastResyncGen {
		f.resyncsAtGen++
		if f.resyncsAtGen >= 3 && f.cfg.Logger != nil {
			f.cfg.Logger.Warn("index follower keeps falling back to full snapshot re-syncs at an unchanged leader generation; the leader's delta log may truncate faster than the poll interval",
				"leader_generation", gen, "consecutive_resyncs", f.resyncsAtGen)
		}
	} else {
		f.lastResyncGen, f.resyncsAtGen = gen, 1
	}
	if _, err := f.repl.Absorb(snap); err != nil {
		return fmt.Errorf("cluster: index re-sync: %w", err)
	}
	f.repl.RaiseGeneration(gen)
	f.cursor = seq
	f.leaderGen = gen
	f.om.IndexSnapshotsLoaded.Inc()
	return nil
}

// Run polls until ctx is done. Sync failures are logged (when a logger
// is configured) and retried on the next tick — a leader restart must
// not kill its followers.
func (f *IndexFollower) Run(ctx context.Context) {
	t := time.NewTicker(f.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := f.SyncOnce(ctx); err != nil && ctx.Err() == nil && f.cfg.Logger != nil {
				f.cfg.Logger.Warn("index delta sync failed; will retry", "err", err)
			}
		}
	}
}
