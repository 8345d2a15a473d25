// Tuning example: the heart of the paper — fixed transaction lengths
// against the dynamic per-yield-point adjustment. Shows the tradeoff of
// Section 4.3: length 1 pays begin/end overhead, length 256 aborts
// constantly, and the dynamic adjustment finds the middle.
package main

import (
	"fmt"
	"log"

	"htmgil"
	"htmgil/internal/npb"
	"htmgil/internal/vm"
)

func main() {
	prof := htmgil.ZEC12()
	params := npb.ParamsFor(npb.FT, npb.ClassS)

	baseOpt := vm.DefaultOptions(prof, htmgil.ModeGIL)
	base, err := npb.Run(npb.FT, baseOpt, 1, params)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("FT, 12 threads on zEC12: transaction-length tradeoff")
	fmt.Printf("%-14s %10s %10s %24s\n", "config", "speedup", "abort%", "yield-point lengths")
	for _, cfg := range []struct {
		name   string
		policy string
	}{{"HTM-1", "fixed-1"}, {"HTM-16", "fixed-16"}, {"HTM-256", "fixed-256"}, {"HTM-dynamic", "paper-dynamic"}} {
		opt := vm.DefaultOptions(prof, htmgil.ModeHTM)
		opt.Policy = cfg.policy
		r, err := npb.Run(npb.FT, opt, 12, params)
		if err != nil {
			log.Fatal(err)
		}
		hist := ""
		if cfg.policy == "paper-dynamic" {
			short, long := 0, 0
			for l, n := range r.Stats.LengthHistogram {
				if l <= 16 {
					short += n
				} else {
					long += n
				}
			}
			hist = fmt.Sprintf("%d sites <=16, %d longer", short, long)
		}
		fmt.Printf("%-14s %10.2f %9.1f%% %24s\n",
			cfg.name, float64(base.Cycles)/float64(r.Cycles), r.Stats.AbortRatio()*100, hist)
	}
}
