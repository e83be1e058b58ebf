package workload

import (
	"testing"

	"dramlat/internal/sm"
)

// TestBuildAllocsPerMemInsn pins that a build allocates per slab chunk,
// not per instruction: on the Table II machine at scale 0.25 every
// benchmark's Build must make at most 0.25 mallocs per memory
// instruction. Fixed costs (the substrate graph or tree, the per-SM
// program tables) are included, so this bounds them too.
func TestBuildAllocsPerMemInsn(t *testing.T) {
	p := DefaultParams()
	p.Scale = 0.25
	for _, b := range All() {
		var memInsns int
		allocs := testing.AllocsPerRun(1, func() {
			memInsns = 0
			for _, progs := range b.Build(p).Programs {
				for _, prog := range progs {
					for _, in := range prog {
						if in.Kind != sm.Compute {
							memInsns++
						}
					}
				}
			}
		})
		if memInsns == 0 {
			t.Fatalf("%s: build has no memory instructions", b.Name)
		}
		if per := allocs / float64(memInsns); per > 0.25 {
			t.Errorf("%s: %.0f mallocs for %d memory instructions = %.2f each, want <= 0.25",
				b.Name, allocs, memInsns, per)
		}
	}
}
