package workload

import "testing"

// BenchmarkBuild times one build of each benchmark at the Fig 8 size
// (the Table II machine at scale 0.1), the build every spec of the Fig 8
// sweep pays before it simulates.
func BenchmarkBuild(b *testing.B) {
	p := DefaultParams()
	p.Scale = 0.1
	for _, bm := range All() {
		b.Run(bm.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bm.Build(p)
			}
		})
	}
}
