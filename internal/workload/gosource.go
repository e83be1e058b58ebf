package workload

import "math/rand"

// goSource reproduces rand.NewSource draw for draw, but seeds in O(1).
// math/rand's Go 1 source is an additive lagged-Fibonacci generator over
// 607 state words; its Seed derives every word up front (1,841 Lehmer
// steps), while most per-warp streams of a build draw a few dozen
// numbers or none. goSource instead derives each state word the first
// time a draw reads it, from a precomputed table of Lehmer multiplier
// powers.
type goSource struct {
	seed      uint64 // the Lehmer seed, in [1, 2³¹-1)
	tap, feed int
	n         int // draws made, counted up to goLen
	vec       [goLen]int64
}

const (
	goLen    = 607       // state words
	goTap    = 273       // lag of the tap behind the feed
	goMod    = 1<<31 - 1 // modulus of the Lehmer seeding generator
	goLehmer = 48271     // its multiplier
)

var (
	// goPow[3i+k] is goLehmer^(21+3i+k) mod goMod: state word i mixes
	// the seeding generator's outputs 21+3i, 22+3i and 23+3i.
	goPow [3 * goLen]uint64
	// goCooked holds the constants math/rand XORs into each state word.
	goCooked [goLen]int64
)

func init() {
	p := uint64(1)
	for j := 0; j < 21; j++ {
		p = p * goLehmer % goMod
	}
	for j := range goPow {
		goPow[j] = p
		p = p * goLehmer % goMod
	}
	goCooked = recoverCooked()
}

// recoverCooked derives math/rand's seeding constants from its own first
// goLen outputs for seed 1. Draw k adds the state word at
// feed (333-k) mod 607 to the one at tap 606-k, and the tap word was
// itself overwritten by draw k-273 once k >= 273; inverting that gives
// every initial word, and XORing off the seed's Lehmer part leaves the
// constant.
func recoverCooked() [goLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var u, o [goLen]uint64
	for k := range u {
		u[k] = src.Uint64()
	}
	const feed0 = goLen - goTap - 1 // 333: feed index of draw 0
	// Words [0, 60] and [334, 606] are first fed by draws k >= goTap.
	for i := range o {
		if k := (feed0 - i + goLen) % goLen; k >= goTap {
			o[i] = u[k] - u[k-goTap]
		}
	}
	// Words [61, 333] are fed by draws k < goTap, whose tap word is
	// still the initial o[606-k].
	for i := feed0 - goTap + 1; i <= feed0; i++ {
		o[i] = u[feed0-i] - o[goTap+i]
	}
	var cooked [goLen]int64
	seed := goSource{seed: 1}
	for i := range cooked {
		cooked[i] = int64(o[i]) ^ seed.lehmerPart(i)
	}
	return cooked
}

// Seed normalizes seed as rand.NewSource does and resets the stream.
func (s *goSource) Seed(seed int64) {
	seed %= goMod
	if seed < 0 {
		seed += goMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap, s.feed, s.n = 0, goLen-goTap, 0
}

// lehmerPart is state word i before math/rand XORs in its constant.
func (s *goSource) lehmerPart(i int) int64 {
	p := goPow[3*i : 3*i+3]
	return int64(s.seed*p[0]%goMod)<<40 ^ int64(s.seed*p[1]%goMod)<<20 ^ int64(s.seed*p[2]%goMod)
}

// Uint64 returns the next draw, as rand.Source64's Uint64 does.
func (s *goSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += goLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += goLen
	}
	// The first goLen draws each read one feed word no earlier draw
	// touched, and the first goTap draws also an untouched tap word;
	// every later read finds a word an earlier draw derived or wrote.
	if s.n < goLen {
		if s.n < goTap {
			s.vec[s.tap] = s.lehmerPart(s.tap) ^ goCooked[s.tap]
		}
		s.vec[s.feed] = s.lehmerPart(s.feed) ^ goCooked[s.feed]
		s.n++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next draw with its top bit cleared, as
// rand.Source's Int63 does.
func (s *goSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
