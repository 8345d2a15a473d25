package bench

import (
	"fmt"
	"io"

	"htmgil/internal/htm"
	"htmgil/internal/keyspace"
	"htmgil/internal/vm"
)

// The datastore experiment pushes the elision tiers into the regime the
// paper never reached: YCSB-style point/scan mixes and a TPC-C-flavoured
// multi-row mix over keyspace tables holding up to a million keys, where
// every statement is speculative-safe (internal/db keyspace tables) and the
// footprints of scans and new-order groups overflow HTM capacity. Each
// workload is swept over three runtimes (the paper's dynamic two-tier, the
// OCC three-tier, and fixed length 1) times two shard layouts (one root
// GIL vs the keyspace sharded over per-shard GILs), against an all-GIL
// baseline. Tables report scaled throughput, per-tier attribution, the
// abort-cause breakdown (capacity vs conflict), and per-shard GIL
// occupancy with cross-shard leak counts.

// datastoreConfig is one swept runtime+sharding combination.
type datastoreConfig struct {
	name   string
	cfg    Config
	shards int
}

func datastoreConfigs() []datastoreConfig {
	return []datastoreConfig{
		{"paper-dynamic/s1", Config{Name: "paper-dynamic/s1", Mode: vm.ModeHTM, Policy: "paper-dynamic"}, 1},
		{"paper-dynamic/s8", Config{Name: "paper-dynamic/s8", Mode: vm.ModeHTM, Policy: "paper-dynamic"}, 8},
		{"occ-adaptive/s1", Config{Name: "occ-adaptive/s1", Mode: vm.ModeHTM, Policy: "occ-adaptive"}, 1},
		{"occ-adaptive/s8", Config{Name: "occ-adaptive/s8", Mode: vm.ModeHTM, Policy: "occ-adaptive"}, 8},
		{"fixed-1/s1", Config{Name: "fixed-1/s1", Mode: vm.ModeHTM, Policy: "fixed-1"}, 1},
	}
}

// datastorePoint is the spec of one workload run: the driver's generated
// program against the store, on a fresh datastore node.
func datastorePoint(label string, wcfg keyspace.Config, cfg Config, shards, threads int) pointSpec {
	wcfg.Threads = threads
	return pointSpec{label: label, exp: "datastore", prof: htm.DatastoreNode(), cfg: cfg,
		store: &storeLoad{wcfg: wcfg, shards: shards}}
}

// datastoreCauses renders the abort-cause split that identifies the
// capacity regime: what share of hardware aborts were footprint overflows
// versus conflicts.
func datastoreCauses(w io.Writer, name string, r *run) error {
	total := sumCounts(r.AbortCauses)
	if total == 0 {
		_, err := fmt.Fprintf(w, "%-20s no aborts\n", name)
		return err
	}
	capacity := r.AbortCauses["read-overflow"] + r.AbortCauses["write-overflow"]
	_, err := fmt.Fprintf(w, "%-20s capacity=%3.0f%% |%s\n", name,
		100*float64(capacity)/float64(total), sortedCounts(r.AbortCauses, true))
	return err
}

// datastoreShardTable renders per-shard GIL occupancy for a sharded point:
// acquisitions, hold cycles, and routed fallbacks per lock, root included,
// plus the cross-shard leak counter.
func datastoreShardTable(w io.Writer, r *run) error {
	st := &r.stats
	fmt.Fprintf(w, "%-8s%12s%14s%12s\n", "lock", "acquires", "holdCycles", "fallbacks")
	fmt.Fprintf(w, "%-8s%12d%14d%12d\n", "root", st.RootGIL.Acquisitions, st.RootGIL.HoldCycles, st.GILFallbacks-sumU64(st.ShardFallbacks))
	for i, g := range st.ShardGIL {
		var fb uint64
		if i < len(st.ShardFallbacks) {
			fb = st.ShardFallbacks[i]
		}
		fmt.Fprintf(w, "s%-7d%12d%14d%12d\n", i, g.Acquisitions, g.HoldCycles, fb)
	}
	_, err := fmt.Fprintf(w, "cross-shard leaks: %d\n", st.CrossShardLeaks)
	return err
}

// datastoreGrid sizes the sweep.
func datastoreGrid(quick bool) (workloads []string, keys int64, ops int, threadsList []int) {
	if quick {
		return []string{"A", "E", "tpcc"}, 50_000, 40, []int{16}
	}
	return []string{"A", "B", "C", "E", "F", "tpcc"}, 1_000_000, 100, []int{16, 32}
}

// buildDatastore enumerates the datastore experiment.
func (s *Session) buildDatastore(p *plan) {
	workloads, keys, ops, threadsList := datastoreGrid(s.Quick)
	cfgs := datastoreConfigs()
	names := make([]string, len(cfgs))
	for i, dc := range cfgs {
		names[i] = dc.name
	}
	attrTh := threadsList[0]
	const seed = 20140215 // the paper's PPoPP publication month
	for _, wl := range workloads {
		wcfg := keyspace.Config{Workload: wl, Keys: keys, Ops: ops, Seed: seed}
		p.printf("\n# Datastore — YCSB-%s, %d keys on %s (throughput, 1 = 1-thread GIL)\n",
			wl, keys, htm.DatastoreNode().Name)
		base := p.point(datastorePoint(fmt.Sprintf("datastore baseline %s", wl),
			wcfg, Config{Name: "GIL", Mode: vm.ModeGIL}, 1, 1))
		rows := p.sweep(sweep{
			xName: "threads", xs: threadsList, xw: 10,
			cols: names, cw: 18,
			point: func(th, c int) *run {
				return p.point(datastorePoint(fmt.Sprintf("datastore %s/%s/%d", wl, names[c], th),
					wcfg, cfgs[c].cfg, cfgs[c].shards, th))
			},
			cell: func(r *run, _ int) string { return f2(r.over(base)) },
		})
		top := rows[0] // attrTh
		p.printf("\n# Datastore per-tier attribution — YCSB-%s, %d threads\n", wl, attrTh)
		tierAttribution(p, names, top)
		p.printf("\n# Datastore abort causes — YCSB-%s, %d threads (capacity = footprint overflow)\n", wl, attrTh)
		for i, name := range names {
			p.cell(func(w io.Writer) error { return datastoreCauses(w, name, top[i]) })
		}
		// Single-thread isolation rows: with one thread there are no
		// conflicts and no lock-word doom cascades, so what remains is the
		// workload's intrinsic HTM footprint — the capacity regime laid
		// bare. fixed-1 bounds a window to one yield interval; the dynamic
		// policy's longer windows batch statements until the write set
		// bursts.
		iso1 := p.point(datastorePoint(fmt.Sprintf("datastore iso %s/fixed-1", wl),
			wcfg, Config{Name: "fixed-1", Mode: vm.ModeHTM, Policy: "fixed-1"}, 1, 1))
		isoP := p.point(datastorePoint(fmt.Sprintf("datastore iso %s/paper", wl),
			wcfg, Config{Name: "paper-dynamic", Mode: vm.ModeHTM, Policy: "paper-dynamic"}, 1, 1))
		p.cell(func(w io.Writer) error { return datastoreCauses(w, "solo fixed-1", iso1) })
		p.cell(func(w io.Writer) error { return datastoreCauses(w, "solo paper-dynamic", isoP) })
		p.printf("\n# Datastore per-shard GIL occupancy — YCSB-%s, paper-dynamic/s8, %d threads\n", wl, attrTh)
		ref, sharded := named(names, top, "paper-dynamic/s1"), named(names, top, "paper-dynamic/s8")
		p.cell(func(w io.Writer) error { return datastoreShardTable(w, sharded) })
		p.cell(func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "# vs paper-dynamic/s1 at %d threads: occ-adaptive/s1 %.2fx, paper-dynamic/s8 %.2fx\n",
				attrTh, named(names, top, "occ-adaptive/s1").over(ref), sharded.over(ref))
			return err
		})
	}
}
