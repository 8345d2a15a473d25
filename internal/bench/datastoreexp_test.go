package bench

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

// datastoreQuick caches the one quick datastore run both tests below read.
var datastoreQuick struct {
	once       sync.Once
	table, csv string
}

// quickDatastore runs the quick datastore experiment once per test binary,
// checks it against its committed digest (see digest_test.go) in whichever
// test asks first, and returns the tables and the CSV.
func quickDatastore(t *testing.T) (table, csvOut string) {
	t.Helper()
	if testing.Short() {
		t.Skip("full quick datastore run")
	}
	datastoreQuick.once.Do(func() {
		datastoreQuick.table, _, datastoreQuick.csv = checkQuickDigest(t, "datastore")
	})
	return datastoreQuick.table, datastoreQuick.csv
}

// TestDatastoreGoldenDeterminism requires the text tables, Reports JSON, CSV
// and trace digests of the datastore experiment, run on eight workers, to
// match the committed digest: millions of simulated memory accesses under
// racing policies must never leak host nondeterminism into the outputs.
func TestDatastoreGoldenDeterminism(t *testing.T) {
	quickDatastore(t)
}

// TestDatastoreTableContent spot-checks the quick experiment's output
// shape: every workload section renders, the sharded occupancy tables are
// present, the CSV carries the shard columns, and the capacity-isolation
// rows expose a footprint-overflow majority on at least one of the
// scan-heavy or TPC-C mixes.
func TestDatastoreTableContent(t *testing.T) {
	table, csvOut := quickDatastore(t)
	for _, want := range []string{
		"YCSB-A", "YCSB-E", "YCSB-tpcc",
		"per-tier attribution", "abort causes", "per-shard GIL occupancy",
		"solo fixed-1", "solo paper-dynamic",
		"cross-shard leaks: 0",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table lacks %q:\n%s", want, table)
		}
	}
	majority := false
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "solo ") {
			continue
		}
		i := strings.Index(line, "capacity=")
		if i < 0 {
			continue
		}
		field := strings.Fields(line[i+len("capacity="):])[0]
		pct, err := strconv.Atoi(strings.TrimSuffix(field, "%"))
		if err == nil && pct > 50 {
			majority = true
		}
	}
	if !majority {
		t.Errorf("no capacity-isolation row shows a footprint-overflow majority:\n%s", table)
	}
	if !strings.Contains(csvOut, "shards,shardFallbacks,crossShardLeaks") {
		t.Errorf("CSV header lacks shard columns:\n%.400s", csvOut)
	}
}
