package experiments

import (
	"strings"
	"sync"
	"testing"

	"rkranks/internal/stats"
)

// servingBatch holds the one Small-scale run of serving_batch that both
// TestAllExperimentsRun and TestServingBatchShape check: the experiment
// times at least minTimedBatches batches per row, which takes about half
// a minute under -race, so the package runs it once.
var servingBatch struct {
	once   sync.Once
	tables []*stats.Table
	err    error
}

func servingBatchTables() ([]*stats.Table, error) {
	servingBatch.once.Do(func() {
		r, err := NewRunner(Small())
		if err != nil {
			servingBatch.err = err
			return
		}
		servingBatch.tables, servingBatch.err = r.Run("serving_batch")
	})
	return servingBatch.tables, servingBatch.err
}

// TestAllExperimentsRun executes every experiment at the Small scale and
// sanity-checks the emitted tables.
func TestAllExperimentsRun(t *testing.T) {
	r, err := NewRunner(Small())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var tables []*stats.Table
			var err error
			if name == "serving_batch" {
				tables, err = servingBatchTables()
			} else {
				tables, err = r.Run(name)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", name)
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Errorf("%s: empty table %q", name, tab.Title)
				}
				s := tab.String()
				if !strings.Contains(s, tab.Headers[0]) {
					t.Errorf("%s: render missing header", name)
				}
			}
		})
	}
}

// TestRunUnknown covers the error path.
func TestRunUnknown(t *testing.T) {
	r, err := NewRunner(Small())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run("table99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestConfigValidate covers configuration validation.
func TestConfigValidate(t *testing.T) {
	good := Small()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Small()
	bad.Ks = []int{999}
	if err := bad.Validate(); err == nil {
		t.Error("k > KMax accepted")
	}
	bad = Small()
	bad.DBLPNodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("tiny dataset accepted")
	}
	bad = Small()
	bad.Queries = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero queries accepted")
	}
	bad = Small()
	bad.Ks = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty Ks accepted")
	}
}
