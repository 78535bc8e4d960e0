package api

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestReadTopologyRemote(t *testing.T) {
	doc := `{
	  "partitioner": "degree",
	  "strict_consistency": true,
	  "shards": [
	    {"replicas": ["http://a:8081", "http://b:8081"]},
	    {"replicas": ["https://c:8081"]}
	  ]
	}`
	topo, err := ReadTopology(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if topo.Partitioner != "degree" || !topo.StrictConsistency {
		t.Errorf("options lost in decode: %+v", topo)
	}
	if len(topo.Shards) != 2 || len(topo.Shards[0].Replicas) != 2 {
		t.Errorf("shard layout lost: %+v", topo.Shards)
	}
}

func TestReadTopologyLocalDefaults(t *testing.T) {
	topo, err := ReadTopology(strings.NewReader(`{"local": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	if topo.Local.ShardCount() != 1 || topo.Local.ReplicaCount() != 1 {
		t.Errorf("zero counts must default to 1, got %d/%d", topo.Local.ShardCount(), topo.Local.ReplicaCount())
	}
	// An absent local section is also nil-safe.
	var l *LocalTopology
	if l.ShardCount() != 1 || l.ReplicaCount() != 1 {
		t.Errorf("nil LocalTopology defaults = %d/%d, want 1/1", l.ShardCount(), l.ReplicaCount())
	}
}

func TestReadTopologyRejections(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"unknown field", `{"shard_count": 3}`},
		{"typoed nested field", `{"local": {"shard": 2}}`},
		{"bad partitioner", `{"partitioner": "random"}`},
		{"negative first_round_k", `{"first_round_k": -1}`},
		{"removed first_round_k", `{"first_round_k": 10}`},
		{"negative cache_mb", `{"cache_mb": -5}`},
		// Removed: rkserve's -cache-mb, -live and -pool set these.
		{"removed cache_mb", `{"cache_mb": 32, "local": {"shards": 2}}`},
		{"removed local.live", `{"local": {"shards": 2, "live": true}}`},
		{"removed local.pool_size", `{"local": {"shards": 2, "pool_size": 1}}`},
		{"both local and shards", `{"local": {"shards": 2}, "shards": [{"replicas": ["http://a"]}]}`},
		{"negative local counts", `{"local": {"replicas": -1}}`},
		{"shard without replicas", `{"shards": [{"replicas": []}]}`},
		{"non-http replica", `{"shards": [{"replicas": ["a:8081"]}]}`},
		{"not json", `shards: [a, b]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadTopology(strings.NewReader(tc.doc)); err == nil {
				t.Fatalf("accepted %s", tc.doc)
			}
		})
	}
}

func TestValidateNilTopology(t *testing.T) {
	var topo *Topology
	if err := topo.Validate(); err == nil {
		t.Fatal("nil topology validated")
	}
}

// FuzzReadTopology: any document either fails to decode, or yields a
// topology that passes Validate and comes back equal through
// json.Marshal and ReadTopology. Equal means the same encoding: it drops
// the difference between an empty and an absent shard list, which
// nothing reads. ReadTopology must never panic.
func FuzzReadTopology(f *testing.F) {
	for _, seed := range []string{
		// README, "Replication & failover".
		`{"partitioner": "modulo", "strict_consistency": false,
		  "shards": [{"replicas": ["http://host0a:8081", "http://host0b:8081"]},
		             {"replicas": ["http://host1a:8081", "http://host1b:8081"]}]}`,
		`{"local": {"shards": 2, "replicas": 2}}`,
		// rkserve's package doc.
		`{"shards": [{"replicas": ["http://s0a:8080", "http://s0b:8080"]},
		             {"replicas": ["http://s1a:8080", "http://s1b:8080"]}]}`,
		`{"partitioner": "degree", "local": {"shards": 4}}`,
		// A field that no longer exists, and a layout Validate refuses.
		`{"partitioner": "degree", "cache_mb": 32, "local": {"shards": 2, "live": true}}`,
		`{"local": {"shards": 2}, "shards": [{"replicas": ["http://a:8081"]}]}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		topo, err := ReadTopology(strings.NewReader(doc))
		if err != nil {
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("ReadTopology returned a topology Validate rejects: %v", err)
		}
		enc, err := json.Marshal(topo)
		if err != nil {
			t.Fatalf("encode %+v: %v", topo, err)
		}
		back, err := ReadTopology(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded topology %s rejected: %v", enc, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("encode %+v: %v", back, err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the topology:\n first  %s\n second %s", enc, again)
		}
	})
}
