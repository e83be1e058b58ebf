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

// TestCacheEntryByHash covers the fetch-by-hash lookup, including the
// strict hash validation that fences path traversal.
func TestCacheEntryByHash(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := dramlat.RunSpec{Benchmark: "spmv", Scheduler: "wg-w", Scale: 0.05, SMs: 2, WarpsPerSM: 4}
	res := dramlat.Results{Ticks: 777, Drained: true}
	if err := c.Put(spec, res); err != nil {
		t.Fatal(err)
	}
	gotSpec, gotRes, ok := c.Entry(spec.Hash())
	if !ok || gotRes != res {
		t.Fatalf("Entry miss: ok=%v res=%+v", ok, gotRes)
	}
	// Entries store the canonical spec.
	if gotSpec.Hash() != spec.Hash() || gotSpec.Seed != 1 {
		t.Fatalf("stored spec not canonical: %+v", gotSpec)
	}
	for _, bad := range []string{
		"", "zz", strings.Repeat("g", 64), "../../../../etc/passwd",
		strings.Repeat("A", 64), spec.Hash()[:63],
	} {
		if _, _, ok := c.Entry(bad); ok {
			t.Errorf("invalid hash %q hit", bad)
		}
	}
	if _, _, ok := c.Entry(strings.Repeat("0", 64)); ok {
		t.Error("absent hash hit")
	}
	var nilc *Cache
	if _, _, ok := nilc.Entry(spec.Hash()); ok {
		t.Error("nil cache hit")
	}
}
