package vm

import (
	_ "embed"
	"fmt"

	"htmgil/internal/compile"
	"htmgil/internal/heap"
	"htmgil/internal/object"
)

//go:embed prelude.rb
var preludeSource string

// loadPrelude compiles and executes the Ruby-level core library at VM
// construction time, before any simulated thread exists.
func (v *VM) loadPrelude() error {
	iseq, err := v.CompileSource(preludeSource, "<prelude>")
	if err != nil {
		return err
	}
	return v.runSetup(iseq)
}

// runSetup executes an iseq synchronously outside the simulated machine:
// single-threaded, direct memory access, no GIL, no transactions. Used for
// the prelude and for application class definitions loaded before the run.
func (v *VM) runSetup(iseq *compile.ISeq) error {
	t := &RThread{vm: v, name: "setup", acc: v.Mem, ctxID: 0, ts: heap.ThreadSlots{}}
	t.stackShadow = v.Mem.Reserve("stack", 8<<10)
	if err := t.pushFrame(iseq, object.RefVal(v.mainObject()), object.Nil, BlockArg{}, nil, 0); err != nil {
		return err
	}
	for i := 0; ; i++ {
		if t.resume == rsFinish {
			return nil
		}
		if v.fatalErr != nil {
			return v.fatalErr
		}
		if i > 50_000_000 {
			return fmt.Errorf("vm: setup execution did not terminate")
		}
		f, in := t.top()
		res := t.dispatch(f, in, 0)
		if res.Status != 0 { // sched.Running
			if t.resume == rsFinish {
				return nil
			}
			return fmt.Errorf("vm: setup code blocked or finished unexpectedly")
		}
	}
}
