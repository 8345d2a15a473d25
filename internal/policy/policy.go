// Package policy defines the contention-management interface of the
// transactional-lock-elision runtime and ships a family of implementations.
//
// internal/core executes the mechanics of lock elision — issuing TBEGIN,
// subscribing to the GIL word, parking threads, acquiring the fallback lock —
// but every *decision* is delegated to a Policy:
//
//   - OnBegin: elide this critical section or take the GIL, and at what
//     transaction length (in yield points)?
//   - OnAbort: after an abort, retry immediately, spin until the GIL is
//     free, back off for some virtual cycles, or fall back to the GIL —
//     keyed by the tier the section ran in (hardware or software), the
//     abort code (conflict / capacity / explicit / interrupt) and whether
//     the lock at fault is currently held.
//   - OnCommit: observe a successful commit in either tier (adaptive
//     policies feed their success-rate estimators here).
//
// The paper's Figure 1-3 algorithm is one implementation (PaperDynamic);
// the fixed-length HTM-1/16/256 configurations, an exponential-backoff
// scheme, lazy GIL subscription after Dice et al., and an OCC-style
// adaptive gate after Zhang et al. are others. Policies are deterministic
// and bound to a single VM instance: they may keep per-PC tables and
// per-thread state (NewThread) but must not share state across VMs.
package policy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"htmgil/internal/htm"
	"htmgil/internal/simmem"
)

// Runtime is the view a Policy gets of the machine driving it. It is
// implemented by core.Elision; tests may pass nil (hooks then skip
// emission).
type Runtime interface {
	// Now returns the engine's current virtual time.
	Now() int64
	// EmitLenAdjust records a transaction-length attenuation at a yield
	// point (stats counter + len-adjust trace event).
	EmitLenAdjust(pc int, oldLen, newLen int32)
}

// ThreadState is the opaque per-thread state a Policy keeps between hooks.
type ThreadState any

// BeginDecision is a Policy's answer to "a thread reached a yield point and
// wants to open a critical section".
type BeginDecision struct {
	// Elide selects transactional execution; false sends the thread
	// straight to gil_acquire.
	Elide bool
	// Length is the transaction length in yield points (Elide only).
	Length int32
	// Lazy skips the begin-time GIL subscription and pre-begin spin: the
	// GIL word is read into the transaction only at commit (Dice et al.'s
	// lazy subscription). The unsafe window this opens is modelled by
	// simmem's strong-isolation hazard tracking (see Memory.StartHazard).
	Lazy bool
	// OCC runs the section in the software-transaction tier (internal/occ)
	// instead of hardware elision: read/write logs with commit-time
	// validation, concurrent with both HTM transactions and GIL holders.
	// Requires Elide == true; Lazy is ignored.
	OCC bool
	// Reason labels the GIL fallback for stats/tracing (Elide==false only).
	Reason string
}

// AbortKind enumerates the possible reactions to a transaction abort.
type AbortKind uint8

// Abort reactions.
const (
	// AbortFallback acquires the GIL for this critical section.
	AbortFallback AbortKind = iota
	// AbortRetry re-issues the transaction immediately.
	AbortRetry
	// AbortSpinRetry parks the thread until the GIL is next released, then
	// re-issues the transaction (Figure 1's spin on GIL conflicts).
	AbortSpinRetry
	// AbortBackoff parks the thread for Backoff virtual cycles, then
	// re-issues the transaction.
	AbortBackoff
	// AbortOCC re-runs the critical section in the software-transaction
	// tier (internal/occ) — the middle ground between hardware retry and
	// the serializing GIL fallback. Only meaningful from a hardware abort
	// under a policy that uses the tier (see OCCPolicy).
	AbortOCC
)

// Tier names the speculative tier a critical section ran in when it aborted.
type Tier uint8

// Speculative tiers.
const (
	// TierHTM is hardware lock elision (the paper's path).
	TierHTM Tier = iota
	// TierOCC is the software-transaction tier (internal/occ).
	TierOCC
)

// AbortDecision is a Policy's answer to a transaction abort.
type AbortDecision struct {
	Kind AbortKind
	// Backoff is the park duration in virtual cycles (AbortBackoff only).
	Backoff int64
	// Reason labels the GIL fallback for stats/tracing (AbortFallback only).
	Reason string
}

// Policy owns every elision decision of one VM instance.
type Policy interface {
	// Name returns the canonical registry name.
	Name() string
	// NewThread allocates the per-thread policy state.
	NewThread() ThreadState
	// OnBegin decides how to open a critical section at yield point pc.
	// live is the number of live application threads.
	OnBegin(rt Runtime, ts ThreadState, pc, live int) BeginDecision
	// OnAbort decides how to continue after an abort of the section opened
	// at pc, which ran in tier. gilHeld reports whether the lock at fault is
	// held right now: the lock whose word doomed a hardware transaction, or
	// the one that blocked a software commit. AbortRetry, AbortSpinRetry and
	// AbortBackoff re-begin in the same tier; AbortOCC names the software
	// tier.
	OnAbort(rt Runtime, ts ThreadState, pc int, tier Tier, cause simmem.AbortCause, gilHeld bool) AbortDecision
	// OnCommit observes a successful commit, in either tier, at pc.
	OnCommit(rt Runtime, ts ThreadState, pc int)
	// Lengths snapshots the per-yield-point length table for histograms;
	// nil when the policy keeps no such table.
	Lengths() []int32
}

// LazySubscriber is implemented by policies that make lazy begin decisions.
// The TLE runtime probes it once at construction to arm the simmem hazard
// window on the GIL (the lazy-read doom model) before any section runs.
type LazySubscriber interface {
	LazySubscribes() bool
}

// UsesLazySubscription reports whether p may issue BeginDecision.Lazy.
func UsesLazySubscription(p Policy) bool {
	ls, ok := p.(LazySubscriber)
	return ok && ls.LazySubscribes()
}

// OCCPolicy is implemented by policies that route critical sections into
// the software-transaction tier (BeginDecision.OCC or AbortOCC). The TLE
// runtime probes it at construction to create the occ.Runtime and arm the
// GIL hazard window; software-tier outcomes reach the ordinary hooks, OnAbort
// with the tier as an argument.
type OCCPolicy interface {
	// UsesOCC reports whether the policy may ever choose the tier.
	UsesOCC() bool
}

// UsesOCCTier reports whether p may route sections into the software tier.
func UsesOCCTier(p Policy) bool {
	op, ok := p.(OCCPolicy)
	return ok && op.UsesOCC()
}

// ---------------------------------------------------------------------------
// Registry.

// builder constructs a policy for a machine profile.
type builder struct {
	name string
	doc  string
	make func(prof *htm.Profile) Policy
}

var builders = []builder{
	{"paper-dynamic", "the paper's Fig. 1-3 algorithm: dynamic per-PC length adjustment",
		func(p *htm.Profile) Policy { return NewPaperDynamic(DefaultParams(p)) }},
	{"fixed-1", "fixed transaction length 1 (the paper's HTM-1)",
		func(p *htm.Profile) Policy { return NewFixedLength(DefaultParams(p), 1) }},
	{"fixed-16", "fixed transaction length 16 (the paper's HTM-16)",
		func(p *htm.Profile) Policy { return NewFixedLength(DefaultParams(p), 16) }},
	{"fixed-256", "fixed transaction length 256 (the paper's HTM-256)",
		func(p *htm.Profile) Policy { return NewFixedLength(DefaultParams(p), 256) }},
	{"backoff", "abort-code-aware exponential backoff before retry",
		func(p *htm.Profile) Policy { return NewExponentialBackoff(DefaultParams(p)) }},
	{"lazy-subscription", "GIL word checked only at commit (Dice et al.)",
		func(p *htm.Profile) Policy { return NewLazySubscription(DefaultParams(p)) }},
	{"occ-adaptive", "per-PC success-rate gate routing hot sites HTM -> OCC -> GIL",
		func(p *htm.Profile) Policy { return NewOCCAdaptive(DefaultParams(p)) }},
	{"occ-first", "every multi-thread section runs in the software-transaction tier",
		func(p *htm.Profile) Policy { return NewOCCFirst(DefaultParams(p), defaultOCCLength) }},
}

// Register adds a policy to the registry. It fails loudly on an empty or
// duplicate name so a misconfigured build cannot silently shadow an
// existing policy.
func Register(name, doc string, make func(prof *htm.Profile) Policy) error {
	if name == "" {
		return fmt.Errorf("policy: Register with empty name")
	}
	for _, b := range builders {
		if b.name == name {
			return fmt.Errorf("policy: duplicate registration of %q", name)
		}
	}
	builders = append(builders, builder{name, doc, make})
	return nil
}

// Names returns the canonical policy names in registry order.
func Names() []string {
	out := make([]string, len(builders))
	for i, b := range builders {
		out[i] = b.name
	}
	return out
}

// Describe returns "name — doc" lines for every registered policy.
func Describe() []string {
	out := make([]string, len(builders))
	for i, b := range builders {
		out[i] = fmt.Sprintf("%-18s %s", b.name, b.doc)
	}
	return out
}

// Known reports whether name resolves to a policy ("" counts: it selects
// the default paper configuration).
func Known(name string) bool {
	_, err := New(name, htm.ZEC12())
	return err == nil
}

// New builds the named policy for a machine profile. The empty name selects
// paper-dynamic. "fixed-N" is accepted for any N >= 1, not only the three
// registered lengths, and "occ-N" selects the occ-first policy with
// transaction length N.
func New(name string, prof *htm.Profile) (Policy, error) {
	if name == "" {
		name = "paper-dynamic"
	}
	for _, b := range builders {
		if b.name == name {
			return b.make(prof), nil
		}
	}
	if n, ok := strings.CutPrefix(name, "fixed-"); ok {
		if v, err := strconv.Atoi(n); err == nil && v >= 1 {
			return NewFixedLength(DefaultParams(prof), int32(v)), nil
		}
	}
	if n, ok := strings.CutPrefix(name, "occ-"); ok {
		if v, err := strconv.Atoi(n); err == nil && v >= 1 {
			return NewOCCFirst(DefaultParams(prof), int32(v)), nil
		}
	}
	known := Names()
	sort.Strings(known)
	return nil, fmt.Errorf("policy: unknown policy %q (known: %s)", name, strings.Join(known, " "))
}
