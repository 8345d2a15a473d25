package railslite

import (
	"strings"
	"testing"

	"htmgil/internal/htm"
	"htmgil/internal/vm"
)

func TestRailsServesBooks(t *testing.T) {
	for _, mode := range []vm.Mode{vm.ModeGIL, vm.ModeHTM} {
		res, err := Run(Config{Prof: htm.XeonE3(), Mode: mode, Clients: 2, Requests: 20})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Completed != 20 {
			t.Fatalf("%v: completed=%d", mode, res.Completed)
		}
	}
}

func TestRailsResponseContent(t *testing.T) {
	// Capture one response via a tiny custom run: reuse the load generator
	// result counters plus a one-request run and inspect throughput > 0.
	res, err := Run(Config{Prof: htm.XeonE3(), Mode: vm.ModeGIL, Clients: 1, Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %f", res.Throughput)
	}
}

func TestRailsGlobalLockSlower(t *testing.T) {
	free, err := Run(Config{Prof: htm.XeonE3(), Mode: vm.ModeHTM, Clients: 4, Requests: 60})
	if err != nil {
		t.Fatal(err)
	}
	locked, err := Run(Config{Prof: htm.XeonE3(), Mode: vm.ModeHTM, Clients: 4, Requests: 60, App: App(true)})
	if err != nil {
		t.Fatal(err)
	}
	if locked.Throughput > free.Throughput*1.1 {
		t.Fatalf("global lock should not be faster: locked=%f free=%f", locked.Throughput, free.Throughput)
	}
}

func TestAppSourceShape(t *testing.T) {
	src := appSource(true)
	for _, want := range []string{"$rack_lock.lock", "SELECT * FROM books", "TCPServer"} {
		if !strings.Contains(src, want) {
			t.Fatalf("missing %q", want)
		}
	}
	if strings.Contains(appSource(false), "$rack_lock.lock") {
		t.Fatalf("lock present when disabled")
	}
}
