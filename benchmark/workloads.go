package main

import (
	"fmt"

	"htmgil/internal/htm"
	"htmgil/internal/keyspace"
	"htmgil/internal/netsim"
	"htmgil/internal/npb"
	"htmgil/internal/vm"
)

// workloadDef names one workload and says why it is in the benchmark. The
// same text is in BENCHMARK.json; a test keeps the two equal.
type workloadDef struct {
	Name string
	Why  string
	// build makes the workload's points from the seed. smoke shrinks every
	// size so a test can run one iteration in seconds.
	build func(seed int64, smoke bool) ([]point, error)
}

var workloads = []workloadDef{
	{"npb_htm", "The paper's Fig. 5: seven NPB kernels, 12 threads, zEC12 HTM-dynamic; vm dispatch, heap, simmem.Tx, htm, core and policy do the work, netsim, db, occ and sharded gil none.", buildNPB},
	{"interp_gil", "Pure bytecode dispatch on the direct simmem path, 1 thread under the GIL, no allocation in the loop; bypasses simmem.Tx, htm, core and occ, so a write-buffer change must show no change here.", buildInterp},
	{"serve_web", "WEBrick closed loop (Fig. 7 point) plus WEBrick and Rails worker pools under open-loop Poisson load on a 128-core server: sched, netsim, gil handoff around I/O, rbregexp, strings, db scans.", buildServe},
	{"kv_update", "YCSB-A, YCSB-F and TPC-C new-order on 16 threads over 200k keys with occ-adaptive and 8 shard GILs: write-heavy db, occ publish and validate, gil.Sharded, htm capacity aborts, keyspace.", buildKVUpdate},
	{"kv_read", "YCSB-C point reads and YCSB-E range scans on the kv_update machine: the same layers used for reading (read-log growth, read sets, scan footprints), so a read/write trade-off splits the two.", buildKVRead},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func buildNPB(_ int64, smoke bool) ([]point, error) {
	class, threads := npb.ClassS, 12
	if smoke {
		class, threads = npb.ClassTest, 4
	}
	var pts []point
	for _, k := range npb.Kernels {
		pts = append(pts, npbPoint(k, htm.ZEC12, vm.ModeHTM, threads, npb.ParamsFor(k, class)))
	}
	return pts, nil
}

// Loop counts of the two micro programs, sized to about 13 M bytecodes each
// (10 per While iteration, 22 per Iterator iteration).
const (
	whileIters    = 1_300_000
	iteratorIters = 590_000
)

func buildInterp(_ int64, smoke bool) ([]point, error) {
	w, it := whileIters, iteratorIters
	if smoke {
		w, it = 20_000, 20_000
	}
	return []point{
		npbPoint(npb.While, htm.ZEC12, vm.ModeGIL, 1, npb.Params{N: w}),
		npbPoint(npb.Iterator, htm.ZEC12, vm.ModeGIL, 1, npb.Params{N: it}),
	}, nil
}

func httpGet(path string) string {
	return "GET " + path + " HTTP/1.1\r\nHost: sim.example\r\nUser-Agent: open/1.0\r\nAccept: text/html\r\nConnection: close\r\n\r\n"
}

// The route tables and their latency limits are those of the repo's serving
// experiment (internal/bench), as are the pool size and the offered rates
// (about 75 % of each pool's measured capacity).
var (
	webrickRoutes = []netsim.OpenRoute{
		{Name: "index", Request: httpGet("/index.html"), SLOCycles: 2_000_000},
		{Name: "about", Request: httpGet("/about"), SLOCycles: 2_000_000},
		{Name: "missing", Request: httpGet("/missing"), SLOCycles: 1_500_000},
	}
	railsRoutes = []netsim.OpenRoute{
		{Name: "books", Request: httpGet("/books"), SLOCycles: 1_200_000},
		{Name: "book", Request: httpGet("/books/7"), SLOCycles: 1_200_000},
		{Name: "miss", Request: httpGet("/"), SLOCycles: 800_000},
	}
)

func buildServe(seed int64, smoke bool) ([]point, error) {
	// Sized on the 2-core reference host so that one iteration takes about
	// two seconds and still yields over a thousand open-loop samples (p99
	// then has ten beyond it). Host time grows faster than linearly in the
	// request count and in the horizon, so these are below the serving
	// experiment's own sizes.
	clients, requests := 6, 150
	sessions, workers := 1200, 16
	webrickHorizon, railsHorizon := int64(170_000_000), int64(80_000_000)
	if smoke {
		clients, requests = 2, 20
		sessions, workers = 40, 4
		webrickHorizon, railsHorizon = 40_000_000, 20_000_000
	}
	server := func() *htm.Profile { return htm.Server(128) }
	openGen := func(lane int64, rate float64, horizon int64, routes []netsim.OpenRoute) func() *netsim.OpenLoadGen {
		return func() *netsim.OpenLoadGen {
			return &netsim.OpenLoadGen{
				Seed:     seed + lane, // the two servers see independent streams
				Arrivals: netsim.ArrivalOpts{Kind: netsim.ArrivalPoisson, RatePerSec: rate, Horizon: horizon},
				Routes:   routes,
				Sessions: sessions,
			}
		}
	}
	return []point{
		webrickPoint(serveOpts{name: "webrick/closed", prof: htm.ZEC12, zosMalloc: true,
			clients: clients, requests: requests}),
		webrickPoint(serveOpts{name: "webrick/open", prof: server, workers: workers,
			open: openGen(0, 21, webrickHorizon, webrickRoutes), routes: webrickRoutes}),
		railsPoint(serveOpts{name: "rails/open", prof: server, workers: workers,
			open: openGen(1_000_003, 38, railsHorizon, railsRoutes), routes: railsRoutes}),
	}, nil
}

// kvMix is one keyspace mix of a datastore workload.
type kvMix struct {
	workload string
	ops      int // per thread
}

func buildKV(seed int64, smoke bool, mixes []kvMix) ([]point, error) {
	keys, threads := int64(200_000), 16
	if smoke {
		keys, threads = 4_000, 4
	}
	var pts []point
	for _, m := range mixes {
		ops := m.ops
		if smoke {
			ops = max(ops/20, 4)
		}
		cfg := keyspace.Config{Workload: m.workload, Keys: keys, Threads: threads, Ops: ops, Seed: seed}
		p, err := keyspacePoint(cfg, "occ-adaptive", 8)
		if err != nil {
			return nil, fmt.Errorf("keyspace %s: %w", m.workload, err)
		}
		pts = append(pts, p)
	}
	return pts, nil
}

func buildKVUpdate(seed int64, smoke bool) ([]point, error) {
	return buildKV(seed, smoke, []kvMix{{"A", 400}, {"F", 400}, {"tpcc", 40}})
}

func buildKVRead(seed int64, smoke bool) ([]point, error) {
	return buildKV(seed, smoke, []kvMix{{"C", 1600}, {"E", 10}})
}
