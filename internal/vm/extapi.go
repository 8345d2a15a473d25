package vm

import (
	"fmt"

	"htmgil/internal/object"
	"htmgil/internal/sched"
	"htmgil/internal/simmem"
)

// This file is the API surface for native extensions living outside the vm
// package (the simulated network stack, the SQLite-like store, the regexp
// engine). It mirrors what CRuby's C extension API provides: object
// allocation, array/hash/string construction, and access to the calling
// thread's scheduling identity for blocking operations.

// Sched returns the scheduler identity of the thread (for Engine.Wake).
func (t *RThread) Sched() *sched.Thread { return t.sth }

// Machine returns the owning VM.
func (t *RThread) Machine() *VM { return t.vm }

// Valid reports whether a block was passed.
func (b BlockArg) Valid() bool { return b.valid() }

// AllocString allocates a mini-Ruby string (with its shadow footprint).
func (t *RThread) AllocString(s string) (*object.RObject, int64, error) {
	return t.allocString(s)
}

// AllocNativeObject allocates a heap object of the given type carrying a
// host-side payload (sockets, database handles, ...).
func (t *RThread) AllocNativeObject(typ object.RType, cls *object.RClass, payload any) (*object.RObject, error) {
	o, err := t.allocObject(typ, cls)
	if err != nil {
		return nil, err
	}
	o.Native = payload
	return o, nil
}

// AllocArrayOf builds a mini-Ruby array from values.
func (t *RThread) AllocArrayOf(vals []object.Value) (*object.RObject, error) {
	arr, _, err := t.allocArray(len(vals))
	if err != nil {
		return nil, err
	}
	for _, v := range vals {
		if _, err := t.arrayPush(arr, v); err != nil {
			return nil, err
		}
	}
	return arr, nil
}

// ArrayLen returns the length of a mini-Ruby array.
func (t *RThread) ArrayLen(arr *object.RObject) int64 { return t.arrayLen(arr) }

// ArrayAt reads an element of a mini-Ruby array.
func (t *RThread) ArrayAt(arr *object.RObject, i int64) object.Value {
	v, _ := t.arrayGet(arr, i)
	return v
}

// ArrayAppend pushes onto a mini-Ruby array.
func (t *RThread) ArrayAppend(arr *object.RObject, v object.Value) error {
	_, err := t.arrayPush(arr, v)
	return err
}

// ToS renders a value the way the interpreter would.
func (t *RThread) ToS(v object.Value) string {
	s, _ := t.toS(v)
	return s
}

// InTx reports whether the thread currently runs inside a transaction of
// either tier (hardware or software); extensions use it to turn
// un-speculatable work into a restricted abort.
func (t *RThread) InTx() bool { return t.inAnyTx() }

// RestrictedOp dooms the current transaction, whatever its tier (extension
// equivalent of performing a system call).
func (t *RThread) RestrictedOp() { t.restrictedOp() }

// ErrRedo tells the dispatcher to re-execute the current instruction after
// the (just-doomed) transaction aborts and falls back to the GIL.
func ErrRedo() error { return errRedo }

// TouchRead performs a transactional (or direct) read of a simulated
// address: extensions use it so their data structures contribute to the
// transaction footprint like real C-extension memory does.
func (t *RThread) TouchRead(addr simmem.Addr) simmem.Word { return t.acc.Load(addr) }

// TouchWrite performs a transactional (or direct) write.
func (t *RThread) TouchWrite(addr simmem.Addr, w simmem.Word) { t.acc.Store(addr, w) }

// AllocShadow reserves arena words for an extension's shadow footprint.
func (t *RThread) AllocShadow(words int) (simmem.Addr, error) {
	return t.allocArena(words)
}

// ReserveShadow reserves a labeled, line-aligned address-space region
// outside the arenas, for extension data too large for the per-thread
// arena budget (bulk-loaded datastore tables). The region's lines are
// materialized lazily by simmem, so reserving gigabytes costs nothing until
// touched. Must be called from load-time (setup-thread) code.
func (t *RThread) ReserveShadow(label string, bytes int) simmem.Addr {
	return t.vm.Mem.Reserve(label, bytes)
}

// TouchShard subscribes the current critical section to keyspace shard s in
// sharded-GIL mode (no-op otherwise). Extensions call it before touching
// data belonging to shard s; see core.Elision.TouchShard.
func (t *RThread) TouchShard(s int) {
	if t.tle != nil {
		t.vm.Elision.TouchShard(t.tle, s)
	}
}

// ShardCount returns the number of keyspace shards (1 when unsharded).
func (t *RThread) ShardCount() int {
	return max(1, len(t.vm.Elision.Sharded.Shards))
}

// CyclesPerSecond is the virtual-time second used by load generators.
const CyclesPerSecond = CyclesPerSec

// DebugThreads renders live-thread states for hang diagnosis.
func (v *VM) DebugThreads() string {
	out := ""
	for _, t := range v.threads {
		st := "?"
		if t.sth != nil {
			st = [3]string{"RUN", "BLK", "DONE"}[t.sth.Status()]
		}
		fr := "-"
		if len(t.frames) > 0 {
			f := t.frames[len(t.frames)-1]
			fr = f.iseq.Name
		}
		out += " [" + t.name + " " + st + " resume=" + itoa(int(t.resume)) + " gilmode=" + boolS(t.tle != nil && t.tle.GILMode) + " at=" + fr + " ns=" + toS2(t.nativeState) + "]"
	}
	out += " gilOwner="
	if v.GIL.Owner() != nil {
		out += v.GIL.Owner().Name
	} else {
		out += "none"
	}
	return out
}

func itoa(i int) string   { return fmt.Sprintf("%d", i) }
func boolS(b bool) string { return fmt.Sprintf("%v", b) }
func toS2(v any) string   { return fmt.Sprintf("%v", v) }

// SetupThread returns a host-driven thread for load-time work and
// extension tests: direct memory access, global allocator, no scheduler
// identity. It must not be used while the simulated machine runs.
func (v *VM) SetupThread() *RThread {
	return &RThread{vm: v, name: "setup", acc: v.Mem, ctxID: 0}
}

// AddGCRoots registers an extra root enumerator; extensions that retain
// heap objects in host-side structures must report them here.
func (v *VM) AddGCRoots(fn func(mark func(*object.RObject))) {
	v.extraRoots = append(v.extraRoots, fn)
}

// SetExtraTraverse registers a traversal hook for native object payloads
// that reference heap objects.
func (v *VM) SetExtraTraverse(fn func(o *object.RObject, mark func(*object.RObject))) {
	v.extraTraverse = fn
}
