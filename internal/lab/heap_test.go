package lab

import (
	"runtime"
	"testing"
)

// TestIdleSNHeap: an SN with the default configuration and no traffic holds
// what its state needs, not its decision cache's capacity (65 536 entries of
// 136 bytes).
func TestIdleSNHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime changes heap sizes")
	}
	// The SN runs a receive worker per GOMAXPROCS; two keep the budget
	// independent of the machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	topo := New()
	defer topo.Close()
	before := heap()
	if _, err := topo.AddEdomain("ed-a", 1, nil); err != nil {
		t.Fatal(err)
	}
	grew := heap() - before
	if grew > 1<<20 {
		t.Errorf("a one-SN edomain holds %d KiB, want under 1 MiB", grew>>10)
	}
}
