package cmp

import "testing"

// BenchmarkNewSystem measures what a sweep point or daemon job pays to
// construct its machine: SourcesFor (program images come from the
// cache after the first iteration) plus New. It is the named row for
// build cost; nothing is simulated.
func BenchmarkNewSystem(b *testing.B) {
	cases := []struct {
		name   string
		cores  int
		scheme string
		apps   []string
	}{
		{"1-core/DB/n4l-tagged", 1, "n4l-tagged", []string{"DB"}},
		{"4-core/jApp/discontinuity", 4, "discontinuity", []string{"jApp"}},
		{"4-core/Mixed/discontinuity", 4, "discontinuity", []string{"DB", "TPC-W", "jApp", "Web"}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := DefaultConfig(tc.cores)
			cfg.PrefetcherName = tc.scheme
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				srcs, err := SourcesFor(tc.apps, tc.cores, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := New(cfg, srcs, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
