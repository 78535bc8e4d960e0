package parallel

import (
	"sync/atomic"
	"testing"
)

// TestForCallsEachIndexOnce: every index is handed out exactly once, to a
// worker id in range, for chunk sizes that do and do not divide n.
func TestForCallsEachIndexOnce(t *testing.T) {
	for _, c := range []struct{ workers, n, chunk int }{
		{1, 10, 1}, {3, 100, 7}, {4, 64, 16}, {8, 5, 256}, {2, 0, 1},
	} {
		calls := make([]atomic.Int32, c.n)
		var badWorker atomic.Bool
		For(c.workers, c.n, c.chunk, func(w, i int) {
			if w < 0 || w >= c.workers {
				badWorker.Store(true)
			}
			calls[i].Add(1)
		})
		if badWorker.Load() {
			t.Errorf("%+v: worker id out of range", c)
		}
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Errorf("%+v: index %d called %d times", c, i, got)
			}
		}
	}
}
