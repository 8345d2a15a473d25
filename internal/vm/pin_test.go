package vm

import (
	"io"
	"runtime"
	"testing"
	"time"

	"htmgil/internal/gil"
	"htmgil/internal/htm"
)

// TestRunResultDoesNotPinTheVM: experiment sweeps keep the Stats of hundreds
// of finished runs, and the repo benchmark the address of each machine's lock
// counters; neither may keep the run's simulated machine (arena, heap, memory
// pages) reachable. The VM sits in reference cycles of its own
// (closures over it), where finalizers never run, so the finalizer goes on
// the output writer only the VM holds.
func TestRunResultDoesNotPinTheVM(t *testing.T) {
	freed := make(chan struct{})
	stats, lock := func() (*Stats, *gil.Stats) {
		out := &struct{ io.Writer }{io.Discard}
		runtime.SetFinalizer(out, func(any) { close(freed) })
		opt := DefaultOptions(htm.ZEC12(), ModeHTM)
		opt.HeapSlots = 50_000
		opt.Out = out
		v := New(opt)
		iseq, err := v.CompileSource(`puts 1 + 2`, "test")
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.Run(iseq)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats, &v.GIL.Stats
	}()
	for i := 0; i < 2; i++ {
		runtime.GC()
	}
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("the VM is still reachable from the Stats its run returned or from its lock's counters")
	}
	if stats.Bytecodes == 0 || lock.Acquisitions == 0 {
		t.Fatalf("the kept counters are empty: %d bytecodes, %d acquisitions", stats.Bytecodes, lock.Acquisitions)
	}
}
