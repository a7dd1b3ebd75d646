package device

// noiseSource is math/rand's additive lagged-Fibonacci generator (the
// rngSource behind rand.NewSource: 607 state words, feedback tap 273),
// drawing the same numbers bit for bit, with a Seed that costs O(1).
//
// math/rand seeds the 607 words from 1,841 consecutive steps of the
// Park-Miller generator x ← 48271·x mod (2^31−1), each a Schrage
// division, and pays them on every Seed. A simulated device reseeds two
// streams per measurement and most measurements draw a few dozen numbers,
// so seeding dominated deployment time. Here the k-th Park-Miller value
// is read straight from a power table, seed·48271^k mod (2^31−1), and
// each state word is built on its first read instead of at Seed.
//
// Why on-demand words are exact: draw j (from 1) after a Seed reads and
// rewrites word feed = 334−j mod 607 and reads word tap = 607−j mod 607.
// For j ≤ 334 the feed word has never been read (earlier draws touched
// feed words above it and tap words ≥ 607−j+1 > 334−j), so it is built
// first. The tap word was never read for j ≤ 273; for 274 ≤ j ≤ 334 it is
// the feed word of draw j−273, already built and rewritten, which is what
// math/rand reads there too. After draw 334 every word has been built, so
// later draws run math/rand's loop unchanged. A stream that draws n ≤ 273
// numbers builds 2n words.
type noiseSource struct {
	// tap and feed index vec as in math/rand, except that during the cold
	// draws (the first rngLen−rngTap after a Seed, which build words) feed
	// holds its index minus rngLen. A cold draw thus takes the branch that
	// wraps a negative feed index, and a warm draw runs math/rand's code.
	tap, feed int
	seed      uint64 // the Seed argument reduced into [1, 2^31−2], as math/rand does
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Park-Miller modulus, a Mersenne prime

	// seedSteps is the number of Park-Miller steps math/rand's Seed takes:
	// 20 discarded, then three per state word.
	seedSteps = 20 + 3*rngLen
)

// parkMillerPow holds 48271^k mod (2^31−1) for k = 0..seedSteps.
var parkMillerPow = func() (p [seedSteps + 1]uint32) {
	p[0] = 1
	for k := 1; k <= seedSteps; k++ {
		p[k] = uint32(mulModMersenne31(uint64(p[k-1]), 48271))
	}
	return p
}()

// mulModMersenne31 returns a·b mod (2^31−1) for a, b < 2^31 by folding the
// high bits onto the low ones (2^31 ≡ 1), without a division.
func mulModMersenne31(a, b uint64) uint64 {
	p := a * b              // < 2^62
	r := p&int32max + p>>31 // < 2^32
	r = r&int32max + r>>31  // ≤ 2^31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// newNoiseSource returns a source seeded with seed; rand.New(it) draws what
// rand.New(rand.NewSource(seed)) draws.
func newNoiseSource(seed int64) *noiseSource {
	s := new(noiseSource)
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state math/rand's Seed(seed) gives,
// building no state word: feed starts at rngLen−rngTap, held minus rngLen
// for the cold draws.
func (s *noiseSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap = 0
	s.feed = -rngTap
}

// word returns state word i as math/rand's Seed leaves it: three
// Park-Miller values after the 20 discarded ones, mixed with rngCooked.
func (s *noiseSource) word(i int) int64 {
	k := 21 + 3*i
	u := int64(mulModMersenne31(s.seed, uint64(parkMillerPow[k]))) << 40
	u ^= int64(mulModMersenne31(s.seed, uint64(parkMillerPow[k+1]))) << 20
	u ^= int64(mulModMersenne31(s.seed, uint64(parkMillerPow[k+2])))
	return u ^ rngCooked[i]
}

// Uint64 returns a pseudo-random 64-bit value, math/rand's next Uint64.
func (s *noiseSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		return s.wrapUint64()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// wrapUint64 finishes a draw whose feed index went negative: either the
// feed wrapped (−1), or the draw is cold and feed is the word's index
// minus rngLen.
func (s *noiseSource) wrapUint64() uint64 {
	f := s.feed + rngLen
	if s.feed == -1 {
		s.feed = f
	} else {
		s.vec[f] = s.word(f)
		if s.tap >= rngLen-rngTap {
			s.vec[s.tap] = s.word(s.tap)
		}
		if f == 0 {
			s.feed = 0 // the last cold draw: the next one wraps
		}
	}
	x := s.vec[f] + s.vec[s.tap]
	s.vec[f] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer: the low 63
// bits of the next Uint64. It repeats Uint64's body rather than call it,
// which is too large to inline, so that NormFloat64 and Float64, which draw
// through Int63, pay one call per draw, as with math/rand.
func (s *noiseSource) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		return int64(s.wrapUint64() & rngMask)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return int64(uint64(x) & rngMask)
}
