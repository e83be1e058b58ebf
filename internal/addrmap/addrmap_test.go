package addrmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometryConstants(t *testing.T) {
	if BlocksPerRow != 16 {
		t.Fatalf("BlocksPerRow = %d, want 16", BlocksPerRow)
	}
	if AtomsPerBlk != 4 {
		t.Fatalf("AtomsPerBlk = %d, want 4", AtomsPerBlk)
	}
}

func TestNewPanics(t *testing.T) {
	for _, tc := range []struct{ ch, banks int }{{0, 16}, {6, 0}, {6, 12}, {-1, 16}, {6, -16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.ch, tc.banks)
				}
			}()
			New(tc.ch, tc.banks)
		}()
	}
}

func TestDecodeRanges(t *testing.T) {
	m := New(6, 16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		addr := rng.Uint64() & ((1 << 40) - 1)
		c := m.Decode(addr)
		if c.Channel < 0 || c.Channel >= 6 {
			t.Fatalf("channel %d out of range for %#x", c.Channel, addr)
		}
		if c.Bank < 0 || c.Bank >= 16 {
			t.Fatalf("bank %d out of range for %#x", c.Bank, addr)
		}
		if c.Col < 0 || c.Col >= RowBytes/AtomBytes {
			t.Fatalf("col %d out of range for %#x", c.Col, addr)
		}
		if c.Row < 0 {
			t.Fatalf("negative row for %#x", addr)
		}
	}
}

// Round trip: Encode(Decode(a)) == a with the sub-atom offset stripped.
func TestRoundTripFromAddr(t *testing.T) {
	m := New(6, 16)
	f := func(a uint64) bool {
		addr := a & ((1 << 44) - 1)
		return m.Encode(m.Decode(addr)) == addr&^uint64(AtomBytes-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// Round trip: Decode(Encode(c)) == c for in-range coordinates.
func TestRoundTripFromCoord(t *testing.T) {
	m := New(6, 16)
	f := func(ch, bank, row, col uint16) bool {
		c := Coord{
			Channel: int(ch) % 6,
			Bank:    int(bank) % 16,
			Row:     int(row) % 4096,
			Col:     int(col) % (RowBytes / AtomBytes),
		}
		return m.Decode(m.Encode(c)) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// Two 128B lines inside the same 256B block must land in the same row and
// bank and channel (this is what makes the 128B coalesced pair cheap).
func TestSameBlockSameRow(t *testing.T) {
	m := New(6, 16)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		base := (rng.Uint64() & ((1 << 40) - 1)) &^ uint64(BlockBytes-1)
		a := m.Decode(base)
		b := m.Decode(base + LineBytes)
		if a.Channel != b.Channel || a.Bank != b.Bank || a.Row != b.Row {
			t.Fatalf("lines of block %#x split: %+v vs %+v", base, a, b)
		}
		if a.Col == b.Col {
			t.Fatalf("lines of block %#x share column %d", base, a.Col)
		}
	}
}

// Consecutive 256B blocks must spread across channels (and across banks
// within a channel): a sequential stream should touch every channel with
// near-uniform frequency.
func TestSequentialSpread(t *testing.T) {
	m := New(6, 16)
	chCount := make([]int, 6)
	bankCount := make([]int, 16)
	const n = 6 * 16 * 64
	for i := 0; i < n; i++ {
		c := m.Decode(uint64(i) * BlockBytes)
		chCount[c.Channel]++
		bankCount[c.Bank]++
	}
	for ch, cnt := range chCount {
		if cnt < n/6-n/32 || cnt > n/6+n/32 {
			t.Errorf("channel %d got %d of %d blocks; want ~%d", ch, cnt, n, n/6)
		}
	}
	for b, cnt := range bankCount {
		if cnt == 0 {
			t.Errorf("bank %d never touched by sequential stream", b)
		}
	}
}

// The XOR channel hash must defeat the pathological stride that would camp
// on one channel without it. With channel = (addr>>8) % 6 a stride of
// 6*256B camps; with the XOR fold the same stride must spread.
func TestChannelCampingDefeated(t *testing.T) {
	m := New(6, 16)
	chCount := make([]int, 6)
	const n = 1024
	for i := 0; i < n; i++ {
		c := m.Decode(uint64(i) * 6 * BlockBytes)
		chCount[c.Channel]++
	}
	max := 0
	for _, cnt := range chCount {
		if cnt > max {
			max = cnt
		}
	}
	// Without the XOR all n accesses go to one channel. Demand that no
	// channel receives more than half.
	if max > n/2 {
		t.Fatalf("stride-6-block stream camps: max channel share %d/%d", max, n)
	}
}

// Bank permutation must defeat bank camping for strides equal to the bank
// rotation period within a channel.
func TestBankCampingDefeated(t *testing.T) {
	m := New(6, 16)
	// Generate addresses that land on channel 0 with block stride 16
	// within the channel (same bank without permutation).
	bankCount := make([]int, 16)
	total := 0
	for cblk := uint64(0); cblk < 16*512; cblk += 16 {
		key := cblk*6 + 0
		addr := invChannelKey(key) << 8
		c := m.Decode(addr)
		if c.Channel != 0 {
			t.Fatalf("constructed address %#x not on channel 0", addr)
		}
		bankCount[c.Bank]++
		total++
	}
	max := 0
	for _, cnt := range bankCount {
		if cnt > max {
			max = cnt
		}
	}
	if max > total/4 {
		t.Fatalf("bank camping: max bank share %d/%d", max, total)
	}
}

// Different channel counts must still round-trip (the mapper is generic).
func TestOtherGeometries(t *testing.T) {
	for _, chs := range []int{1, 2, 4, 8} {
		for _, banks := range []int{8, 16, 32} {
			m := New(chs, banks)
			rng := rand.New(rand.NewSource(int64(chs*100 + banks)))
			for i := 0; i < 2000; i++ {
				addr := (rng.Uint64() & ((1 << 40) - 1)) &^ uint64(AtomBytes-1)
				if got := m.Encode(m.Decode(addr)); got != addr {
					t.Fatalf("chs=%d banks=%d: round trip %#x -> %#x", chs, banks, addr, got)
				}
			}
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	m := New(6, 16)
	var sink Coord
	for i := 0; i < b.N; i++ {
		sink = m.Decode(uint64(i) * 128)
	}
	_ = sink
}
