// Package dethash is the deterministic hash behind the simulation's
// seeded decisions: FNV-1a over a decision's inputs, finalized with the
// splitmix64 avalanche. A decision keyed this way is a pure function of
// its inputs, so it comes out the same whatever order concurrent
// callers reach it in, and a resumed run repeats it without saving any
// generator state.
package dethash

// Offset is the FNV-1a offset basis, the hash of no input.
const Offset = 14695981039346656037

const prime = 1099511628211

// Byte folds b into h. The helpers are written out, not taken from
// hash/fnv, whose Hash64 would cost an interface call per written slice
// on the per-exchange path.
func Byte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * prime }

// Word folds v's eight little-endian bytes into h.
func Word(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = Byte(h, byte(v>>(8*i)))
	}
	return h
}

// Mix is the splitmix64 finalizer: every input bit avalanches into every
// output bit. Raw FNV-1a spreads a trailing-byte difference only into the
// low ~40 bits, so a hash is mixed before its high bits are used.
func Mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Unit maps a mixed hash to [0,1) by its high 53 bits.
func Unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }
