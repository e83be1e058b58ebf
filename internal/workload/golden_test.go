package workload

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"dramlat/internal/gpu"
)

const buildGoldenPath = "testdata/builds.golden"

// hashPrograms fingerprints every instruction a build emits: per warp,
// its length, then each instruction's Kind, address count and Addrs.
func hashPrograms(w gpu.Workload) string {
	h := sha256.New()
	var buf []byte
	for _, progs := range w.Programs {
		for _, prog := range progs {
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(prog)))
			for _, in := range prog {
				buf = append(buf, byte(in.Kind))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(len(in.Addrs)))
				for _, a := range in.Addrs {
					buf = binary.LittleEndian.AppendUint64(buf, a)
				}
			}
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readBuildGolden parses testdata/builds.golden: one "<name> <sha256>"
// line per build. Lines starting with # are comments.
func readBuildGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(buildGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hashes := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", buildGoldenPath, line)
		}
		hashes[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return hashes
}

// TestBuildGolden pins the programs every generator emits, at the test
// machine and on the Table II machine at scale 0.1. Each benchmark is
// built twice, so the test also checks that a build is deterministic.
// A change that moves a hash changes what every run of that benchmark
// simulates, and so needs a dramlat.ModelVersion bump too. On failure
// the test prints the file to check in.
func TestBuildGolden(t *testing.T) {
	want := readBuildGolden(t)
	table2 := DefaultParams()
	table2.Scale = 0.1
	machines := []struct {
		name string
		p    Params
	}{{"test", testParams()}, {"tableII-0.1", table2}}
	var moved []string
	var file strings.Builder
	for _, b := range All() {
		for _, m := range machines {
			name := b.Name + "/" + m.name
			got := hashPrograms(b.Build(m.p))
			if again := hashPrograms(b.Build(m.p)); again != got {
				t.Errorf("%s: two builds differ (%s, then %s)", name, got, again)
			}
			fmt.Fprintf(&file, "%s %s\n", name, got)
			if want[name] != got {
				moved = append(moved, name)
			}
		}
	}
	if n := len(All()) * len(machines); len(want) != n {
		t.Errorf("%s lists %d builds, the test makes %d", buildGoldenPath, len(want), n)
	}
	if len(moved) > 0 {
		t.Errorf("built programs moved for %d builds (%s); check in\n%s",
			len(moved), strings.Join(moved, ", "), file.String())
	}
}
