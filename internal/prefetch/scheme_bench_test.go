package prefetch_test

import (
	"testing"
	"time"

	"repro/internal/cmp"
	"repro/internal/prefetch"
)

// BenchmarkSchemes runs every registered scheme, plus one hybrid
// composite, on a warmed 1-core DB machine and times the measured
// window only. Accuracy and L1-I MPKI ride along as a behaviour
// checksum: a speed change that moves them is not a pure speed change.
func BenchmarkSchemes(b *testing.B) {
	const warm, measure = 100_000, 1_000_000
	for _, scheme := range append(prefetch.SchemeNames(), "hybrid:discontinuity+streams+mana") {
		b.Run(scheme, func(b *testing.B) {
			cfg := cmp.DefaultConfig(1)
			cfg.PrefetcherName = scheme
			var elapsed time.Duration
			var instrs uint64
			var accuracy, mpki float64
			for i := 0; i < b.N; i++ {
				srcs, err := cmp.SourcesFor([]string{"DB"}, 1, 1)
				if err != nil {
					b.Fatal(err)
				}
				sys, err := cmp.New(cfg, srcs, nil)
				if err != nil {
					b.Fatal(err)
				}
				sys.Run(warm)
				sys.ResetStats()
				start := time.Now()
				sys.Run(measure)
				elapsed += time.Since(start)
				sys.Finalize()
				t := sys.TotalStats()
				instrs += t.Instructions
				accuracy = t.Prefetch.Accuracy()
				mpki = 1000 * float64(t.L1I.Misses) / float64(t.Instructions)
			}
			b.ReportMetric(float64(instrs)/1e6/elapsed.Seconds(), "Minstr/s")
			b.ReportMetric(accuracy, "accuracy")
			b.ReportMetric(mpki, "L1I-MPKI")
		})
	}
}
