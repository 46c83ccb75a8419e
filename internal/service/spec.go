// Package service turns the memoising simulation engine into a
// long-lived simulation-as-a-service subsystem: a bounded worker-pool
// job queue that executes sim.Engine runs with per-job deadlines and
// cancellation, deduplicates identical in-flight specs, persists
// completed results in a content-addressed on-disk store, and exposes
// the whole thing over HTTP (see Handler and cmd/iprefetchd).
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/codesign"
	"repro/internal/foundry"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// JobSpec is the wire form of one simulation request: machine config,
// workload, prefetcher spec and instruction budgets. The zero values of
// the budget fields take the service defaults.
type JobSpec struct {
	// Workload names a paper workload column ("DB", "TPC-W", "jApp",
	// "Web", "Mixed") unless Apps is set.
	Workload string `json:"workload,omitempty"`
	// Apps lists applications explicitly, cycled across cores; it
	// overrides Workload.
	Apps []string `json:"apps,omitempty"`
	// Cores is the machine width (1 = single core, 4 = the paper CMP).
	Cores int `json:"cores"`
	// Scheme is the prefetcher registry name ("none", "nl-miss",
	// "discontinuity", ...).
	Scheme string `json:"scheme"`
	// Bypass enables the Section 7 L2-bypass install policy.
	Bypass bool `json:"bypass,omitempty"`
	// TableEntries overrides the discontinuity table size when > 0.
	TableEntries int `json:"table_entries,omitempty"`
	// PrefetchAhead overrides the prefetch-ahead distance when > 0.
	PrefetchAhead int `json:"prefetch_ahead,omitempty"`
	// Insert selects the prefetched-line insertion policy ("mru",
	// "mid", "lru"; empty = mru, the historical default).
	Insert string `json:"insert,omitempty"`
	// TLBFill enables prefetch-triggered I-TLB fill ("none",
	// "primary", "secondary"; empty = none).
	TLBFill string `json:"tlb_fill,omitempty"`
	// WrongPath enables wrong-path fetch modelling ("off",
	// "train[:depth]", "pollute[:depth]"; empty = off).
	WrongPath string `json:"wrong_path,omitempty"`
	// L1I / L2 override the cache geometries when non-nil (must be
	// fully specified: size, associativity and line size).
	L1I *sweep.Geometry `json:"l1i,omitempty"`
	L2  *sweep.Geometry `json:"l2,omitempty"`
	// OffChipGBps overrides the off-chip bandwidth when > 0.
	OffChipGBps float64 `json:"off_chip_gbps,omitempty"`
	// ModelWritebacks enables dirty write-back traffic.
	ModelWritebacks bool `json:"model_writebacks,omitempty"`
	// WarmInstrs / MeasureInstrs are per-core instruction budgets;
	// zero takes the service defaults.
	WarmInstrs    uint64 `json:"warm_instrs,omitempty"`
	MeasureInstrs uint64 `json:"measure_instrs,omitempty"`
	// Seed overrides the workload seed when > 0.
	Seed uint64 `json:"seed,omitempty"`
	// TimeoutMS bounds the job's execution when > 0; zero takes the
	// service default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// paperWorkload resolves a paper workload name, case-insensitively.
func paperWorkload(name string) (sim.Workload, bool) {
	return sim.WorkloadByName(name, true)
}

// Validate reports problems that make the spec unrunnable, without
// building a machine.
func (s JobSpec) Validate() error {
	if s.Cores < 1 || s.Cores > 64 {
		return fmt.Errorf("cores must be in [1,64], got %d", s.Cores)
	}
	if s.Scheme == "" {
		return fmt.Errorf("scheme is required")
	}
	if _, err := prefetch.New(s.Scheme); err != nil {
		return err
	}
	if len(s.Apps) == 0 {
		if s.Workload == "" {
			return fmt.Errorf("workload or apps is required")
		}
		if _, ok := paperWorkload(s.Workload); !ok {
			return fmt.Errorf("unknown workload %q (want DB, TPC-W, jApp, Web or Mixed, or explicit apps)", s.Workload)
		}
	} else {
		for _, a := range s.Apps {
			if strings.HasPrefix(a, foundry.Prefix) {
				// Adversarial search products are resolved lazily at
				// machine-assembly time; validate the name grammar here.
				if _, err := foundry.ParseName(a); err != nil {
					return err
				}
				continue
			}
			if _, err := workload.ByName(a); err != nil {
				return err
			}
		}
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0")
	}
	// The engine builds a discontinuity table of this size, and a size
	// that is not a power of two panics the worker that builds it.
	if s.TableEntries < 0 || s.TableEntries&(s.TableEntries-1) != 0 {
		return fmt.Errorf("table_entries %d not zero or a power of two", s.TableEntries)
	}
	if s.PrefetchAhead < 0 {
		return fmt.Errorf("prefetch_ahead must be >= 0")
	}
	if _, err := codesign.CanonicalInsertion(s.Insert); err != nil {
		return err
	}
	if _, err := codesign.CanonicalTLBFill(s.TLBFill); err != nil {
		return err
	}
	if _, err := codesign.CanonicalWrongPath(s.WrongPath); err != nil {
		return err
	}
	for name, g := range map[string]*sweep.Geometry{"l1i": s.L1I, "l2": s.L2} {
		if g == nil {
			continue
		}
		if g.IsZero() {
			return fmt.Errorf("%s geometry must be fully specified when set", name)
		}
		if err := g.Config().Validate(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// runSpec converts the wire spec to the engine's RunSpec; zero budgets
// stay zero for the engine to resolve.
func (s JobSpec) runSpec() (sim.RunSpec, error) {
	var w sim.Workload
	if len(s.Apps) > 0 {
		name := s.Workload
		if name == "" {
			name = strings.Join(s.Apps, "+")
		}
		w = sim.Workload{Name: name, Apps: s.Apps}
	} else {
		var ok bool
		if w, ok = paperWorkload(s.Workload); !ok {
			return sim.RunSpec{}, fmt.Errorf("unknown workload %q", s.Workload)
		}
	}
	// Canonicalising the policy strings here keeps spec keys aligned
	// with sweep point keys: "mru" and "" request the same simulation.
	ins, err := codesign.CanonicalInsertion(s.Insert)
	if err != nil {
		return sim.RunSpec{}, err
	}
	tf, err := codesign.CanonicalTLBFill(s.TLBFill)
	if err != nil {
		return sim.RunSpec{}, err
	}
	wp, err := codesign.CanonicalWrongPath(s.WrongPath)
	if err != nil {
		return sim.RunSpec{}, err
	}
	rs := sim.RunSpec{
		Workload:        w,
		Cores:           s.Cores,
		Scheme:          s.Scheme,
		Bypass:          s.Bypass,
		TableEntries:    s.TableEntries,
		PrefetchAhead:   s.PrefetchAhead,
		InsertPolicy:    ins,
		TLBFill:         tf,
		WrongPath:       wp,
		OffChipGBps:     s.OffChipGBps,
		ModelWritebacks: s.ModelWritebacks,
		WarmInstrs:      s.WarmInstrs,
		MeasureInstrs:   s.MeasureInstrs,
		Seed:            s.Seed,
	}
	if s.L1I != nil {
		rs.L1I = s.L1I.Config()
	}
	if s.L2 != nil {
		rs.L2 = s.L2.Config()
	}
	return rs, nil
}

// contentAddress hashes a canonical key into the store's file name.
func contentAddress(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}
