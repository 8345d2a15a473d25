package main

import "time"

// The reference kernel. This host's speed drifts by 10-30 % over minutes
// (shared vCPUs), which no statistic taken inside one run can remove: whole
// runs are slow or fast. So every iteration is timed against a fixed piece
// of work done right before and right after it, and the gated time metric,
// iter_refs, is the ratio: how many reference kernels one iteration is
// worth. The drift cancels; what the simulator costs does not.
//
// The kernel shares no code with the simulator, so optimising the simulator
// cannot move it, and it must never change: every iter_refs ever recorded
// is in units of it. Its three phases are the simulator's own kinds of work:
// switch dispatch over small integers, dependent loads over a table larger
// than the caches, and map and small-object churn. It takes a quarter of a
// second: shorter, and the host's fast jitter (a 40 ms loop of pure register
// arithmetic varies by a fifth here) would make the ratio noisier than the
// time it replaces.

const (
	refTableWords = 2 << 20 // 16 MB
	refDispatches = 36_000_000
	refLoads      = 7_500_000
	refMapInserts = 450_000
)

type refNode struct {
	key, val uint64
	next     *refNode
}

var (
	refTable []uint64
	refOps   [1024]uint8
	refSink  uint64
)

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// refInit builds the kernel's fixed tables once.
func refInit() {
	if refTable != nil {
		return
	}
	refTable = make([]uint64, refTableWords)
	x := uint64(88172645463325252)
	for i := range refTable {
		x = xorshift(x)
		refTable[i] = x % refTableWords
	}
	for i := range refOps {
		x = xorshift(x)
		refOps[i] = uint8(x % 6)
	}
}

// referenceMs runs the kernel once and returns its wall time. smoke runs a
// tenth of it: a test wants the code exercised, not the number.
func referenceMs(smoke bool) float64 {
	refInit()
	dispatches, loads, inserts := refDispatches, refLoads, uint64(refMapInserts)
	if smoke {
		dispatches, loads, inserts = dispatches/10, loads/10, inserts/10
	}
	t0 := time.Now()

	var r [8]uint64
	pc := 0
	for i := 0; i < dispatches; i++ {
		a, b := &r[i&7], r[(i>>3)&7]
		switch refOps[pc&1023] {
		case 0:
			*a += b + 1
		case 1:
			*a ^= b<<3 | 1
		case 2:
			*a = *a*2862933555777941757 + 3037000493
		case 3:
			if *a&1 == 0 {
				pc += 3
			}
		case 4:
			*a >>= 1
		default:
			*a -= b
		}
		pc++
	}

	p := uint64(1)
	for i := 0; i < loads; i++ {
		p = refTable[p]
	}

	m := make(map[uint64]*refNode)
	var head *refNode
	for i := uint64(0); i < inserts; i++ {
		k := i * 2654435761 % 65536
		n := &refNode{key: k, val: i, next: head}
		if i&7 == 0 {
			head = n
		}
		if old := m[k]; old != nil {
			n.val += old.val
		}
		m[k] = n
	}

	refSink += r[0] + p + uint64(len(m))
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
