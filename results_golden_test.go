package dramlat

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// goldenSpec is one fingerprinted run, labelled as it appears in
// testdata/results.golden.
type goldenSpec struct {
	name string
	spec RunSpec
}

// goldenSpecs covers every scheduler, both Fig 4 ideals, one ablation,
// the lrr warp scheduler and the sampled engine on machines small
// enough that the whole set runs in about half a second.
func goldenSpecs() []goldenSpec {
	small := func(bench, sched string) RunSpec {
		return RunSpec{Benchmark: bench, Scheduler: sched, Scale: 0.1, SMs: 4, WarpsPerSM: 8}
	}
	var out []goldenSpec
	for _, sched := range Schedulers() {
		out = append(out, goldenSpec{"spmv/" + sched, small("spmv", sched)})
	}
	perfect := small("bfs", "gmc")
	perfect.PerfectCoalescing = true
	zerodiv := small("bfs", "gmc")
	zerodiv.ZeroDivergence = true
	ablation := small("spmv", "wg-w")
	ablation.Ablation = "count-score"
	lrr := small("spmv", "gmc")
	lrr.WarpSched = "lrr"
	return append(out,
		goldenSpec{"bfs/gmc/perfect", perfect},
		goldenSpec{"bfs/gmc/zerodiv", zerodiv},
		goldenSpec{"spmv/wg-w/count-score", ablation},
		goldenSpec{"spmv/gmc/lrr", lrr},
		// At scale 0.1 a run ends inside its first window, so the
		// sampled spec keeps sampledTinySpec's longer kernel.
		goldenSpec{"spmv/gmc/sampled", sampledTinySpec()},
	)
}

const goldenPath = "testdata/results.golden"

// readGolden parses the golden file: a "model-version N" line, then one
// "<name> <sha256>" line per spec. Lines starting with # are comments.
func readGolden(t *testing.T) (version int, hashes map[string]string) {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hashes = map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		if k == "model-version" {
			if version, err = strconv.Atoi(v); err != nil {
				t.Fatalf("%s: bad model version %q", goldenPath, v)
			}
			continue
		}
		hashes[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return version, hashes
}

// TestResultsGolden fingerprints the Results of a fixed set of small
// specs. Any change that moves Results fails here, and must bump
// ModelVersion with the new hashes so warm sweep caches stop serving
// the old numbers. On failure the test prints the file to check in.
func TestResultsGolden(t *testing.T) {
	version, want := readGolden(t)
	specs := goldenSpecs()
	var moved []string
	var file strings.Builder
	fmt.Fprintf(&file, "model-version %d\n", ModelVersion)
	for _, g := range specs {
		res, err := Run(g.spec)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got := hex.EncodeToString(sum[:])
		fmt.Fprintf(&file, "%s %s\n", g.name, got)
		if want[g.name] != got {
			moved = append(moved, g.name)
		}
	}
	if len(want) != len(specs) {
		t.Errorf("%s lists %d specs, the test runs %d", goldenPath, len(want), len(specs))
	}
	switch {
	case len(moved) > 0 && version == ModelVersion:
		t.Errorf("Results moved for %d specs (%s) but ModelVersion is still %d: bump it so warm caches miss, then check in\n%s",
			len(moved), strings.Join(moved, ", "), ModelVersion, file.String())
	case len(moved) > 0:
		t.Errorf("Results moved for %d specs (%s); check in\n%s", len(moved), strings.Join(moved, ", "), file.String())
	case version != ModelVersion:
		t.Errorf("%s records model-version %d, ModelVersion is %d; check in\n%s", goldenPath, version, ModelVersion, file.String())
	}
}
