package api

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Topology is the declarative cluster layout consumed by rkcluster's
// -topology flag (and promoted to the public surface as
// rkranks.Topology): one JSON document names every shard group with its
// replica set, plus the coordinator-level options. Zero values mean the
// documented defaults throughout, matching the options convention of
// the rest of the surface; the zero Topology is one local, unreplicated
// shard.
//
// Remote form — each entry of Shards is one shard group; replicas are
// rkserve base URLs all serving the same shard mask (shard i of
// len(Shards)):
//
//	{
//	  "shards": [
//	    {"replicas": ["http://10.0.0.1:8081", "http://10.0.0.2:8081"]},
//	    {"replicas": ["http://10.0.0.3:8081", "http://10.0.0.4:8081"]}
//	  ]
//	}
//
// Local form — in-process shards, mainly for development and tests:
//
//	{"local": {"shards": 2, "replicas": 2, "live": true}}
type Topology struct {
	// Partitioner names the vertex partitioner every shard must agree
	// on: "modulo" (default) or "degree".
	Partitioner string `json:"partitioner,omitempty"`
	// StrictConsistency refuses degraded (Partial) answers when a shard
	// group is unavailable, failing the query instead.
	StrictConsistency bool `json:"strict_consistency,omitempty"`
	// CacheMB adds a coordinator-level response cache of this budget
	// (0 = no cache).
	CacheMB int `json:"cache_mb,omitempty"`

	// Exactly one of Local / Shards describes the shard layout; both
	// empty means one local unreplicated shard.
	Local  *LocalTopology  `json:"local,omitempty"`
	Shards []TopologyShard `json:"shards,omitempty"`
}

// TopologyShard is one remote shard group: the replica set serving that
// shard's mask.
type TopologyShard struct {
	Replicas []string `json:"replicas"`
}

// LocalTopology describes in-process shards.
type LocalTopology struct {
	Shards   int  `json:"shards,omitempty"`    // shard groups (0 = 1)
	Replicas int  `json:"replicas,omitempty"`  // replicas per group (0 = 1)
	Live     bool `json:"live,omitempty"`      // mutable shards (/v1/mutate)
	PoolSize int  `json:"pool_size,omitempty"` // engines per shard (0 = derived default)
}

// ReplicaCount reports the configured replicas per shard group, with
// zero defaulted.
func (l *LocalTopology) ReplicaCount() int {
	if l == nil || l.Replicas < 1 {
		return 1
	}
	return l.Replicas
}

// ShardCount reports the configured shard groups, with zero defaulted.
func (l *LocalTopology) ShardCount() int {
	if l == nil || l.Shards < 1 {
		return 1
	}
	return l.Shards
}

// Validate checks the topology's internal consistency. It returns plain
// errors; rkranks.ValidateTopology wraps them in ErrInvalidOptions.
func (t *Topology) Validate() error {
	if t == nil {
		return fmt.Errorf("api: nil topology")
	}
	switch t.Partitioner {
	case "", "modulo", "degree":
	default:
		return fmt.Errorf("api: unknown partitioner %q (want modulo or degree)", t.Partitioner)
	}
	if t.CacheMB < 0 {
		return fmt.Errorf("api: cache_mb must be >= 0, got %d", t.CacheMB)
	}
	if t.Local != nil && len(t.Shards) > 0 {
		return fmt.Errorf("api: topology must not set both local and shards")
	}
	if t.Local != nil {
		if t.Local.Shards < 0 || t.Local.Replicas < 0 || t.Local.PoolSize < 0 {
			return fmt.Errorf("api: local shard/replica/pool counts must be >= 0")
		}
	}
	for i, s := range t.Shards {
		if len(s.Replicas) == 0 {
			return fmt.Errorf("api: shard %d has no replicas", i)
		}
		for j, u := range s.Replicas {
			if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				return fmt.Errorf("api: shard %d replica %d: %q is not an http(s) URL", i, j, u)
			}
		}
	}
	return nil
}

// ReadTopology decodes and validates a topology document. Unknown
// fields are rejected so a typoed option fails loudly instead of
// silently meaning its default.
func ReadTopology(r io.Reader) (*Topology, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var t Topology
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("api: bad topology document: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
