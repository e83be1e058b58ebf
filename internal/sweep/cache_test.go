package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dramlat"
)

// TestCachePutGetConcurrent hammers Put and Get for the same hash (and
// a handful of distinct hashes) from many goroutines. Run under -race
// in CI, this is the regression gate for the same-hash writer
// serialization: every Get that hits must return a whole, verified
// entry, and the directory must end up with exactly one .json per hash
// and no quarantined or stranded temp files.
func TestCachePutGetConcurrent(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]dramlat.RunSpec, 4)
	results := make([]dramlat.Results, 4)
	for i := range specs {
		specs[i] = dramlat.RunSpec{Benchmark: "bfs", Scheduler: "gmc",
			Seed: int64(i + 1), Scale: 0.05, SMs: 2, WarpsPerSM: 4}
		results[i] = dramlat.Results{Ticks: int64(1000 + i), Instr: int64(10 * i), Drained: true}
	}

	const goroutines = 16
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Every goroutine hammers hash 0; the rest rotate.
				k := 0
				if i%2 == 1 {
					k = (g + i) % len(specs)
				}
				if err := c.Put(specs[k], results[k]); err != nil {
					errs <- err
					return
				}
				if got, ok := c.Get(specs[k]); ok && got != results[k] {
					t.Errorf("goroutine %d: torn read for spec %d: %+v", g, k, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for k := range specs {
		got, ok := c.Get(specs[k])
		if !ok || got != results[k] {
			t.Fatalf("spec %d after hammer: ok=%v got=%+v", k, ok, got)
		}
	}
	if n := c.Len(); n != len(specs) {
		t.Fatalf("Len=%d, want %d", n, len(specs))
	}
	// No .corrupt quarantines, no stranded temp files.
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.Contains(path, ".corrupt") || strings.Contains(path, ".tmp") {
			t.Errorf("stray file after concurrent Put: %s", path)
		}
		return nil
	})
}
