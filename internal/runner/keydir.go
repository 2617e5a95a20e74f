package runner

import "math/bits"

// keydir is the result log's in-RAM index from cache key to the
// location of the key's latest record: an open-addressing table with
// linear probing over one flat []uint64, two words a slot and no
// pointers for the collector to scan. It holds at most 16 B per entry
// plus its empty slots; it grows by doubling at three-quarters load, so
// the table stays between 3/8 and 3/4 full.
//
// A slot's first word holds the top 40 bits of the key above the
// record's body length (24 bits); 0 marks an empty slot, which no
// record can produce because a stored body is never empty. The second
// word holds the record's segment index above its offset (48 bits).
// Two keys that share 40 bits share a slot, the later record winning:
// a read confirms the record's full key, so the loser reads as a miss,
// never as the other key's artifact.
type keydir struct {
	slots []uint64
	n     int
	shift uint
}

const (
	kdLenBits = 24
	kdLenMask = 1<<kdLenBits - 1
	kdOffBits = 48
	kdOffMask = 1<<kdOffBits - 1
	kdMinCap  = 64 // slots of the first table

	// maxSegments bounds the segment index a location can carry.
	maxSegments = 1 << (64 - kdOffBits)
)

// kdHashMult is 2^64 divided by the golden ratio (Fibonacci hashing),
// as in the caches' tag index.
const kdHashMult = 0x9e3779b97f4a7c15

// kdTag is the first slot word of a record: the key's top 40 bits and
// the body length.
func kdTag(key *[32]byte, bodyLen int) uint64 {
	var p uint64
	for _, b := range key[:8] {
		p = p<<8 | uint64(b)
	}
	return p&^kdLenMask | uint64(bodyLen)
}

// kdLoc is the second slot word of a record.
func kdLoc(seg int, off int64) uint64 { return uint64(seg)<<kdOffBits | uint64(off) }

func (k *keydir) home(tag uint64) int {
	return int(((tag >> kdLenBits) * kdHashMult) >> k.shift)
}

// get returns the slot words of the entry whose key shares tag's top
// 40 bits.
func (k *keydir) get(tag uint64) (uint64, uint64, bool) {
	if k.n == 0 {
		return 0, 0, false
	}
	mask := len(k.slots)/2 - 1
	for i := k.home(tag); ; i = (i + 1) & mask {
		w := k.slots[2*i]
		if w == 0 {
			return 0, 0, false
		}
		if (w^tag)>>kdLenBits == 0 {
			return w, k.slots[2*i+1], true
		}
	}
}

// put records loc as the latest record of tag's key.
func (k *keydir) put(tag, loc uint64) {
	if 4*(k.n+1) > 3*(len(k.slots)/2) {
		k.grow()
	}
	if k.insert(tag, loc) {
		k.n++
	}
}

// insert places an entry, reporting whether it took an empty slot.
func (k *keydir) insert(tag, loc uint64) bool {
	mask := len(k.slots)/2 - 1
	for i := k.home(tag); ; i = (i + 1) & mask {
		w := k.slots[2*i]
		if w == 0 || (w^tag)>>kdLenBits == 0 {
			k.slots[2*i], k.slots[2*i+1] = tag, loc
			return w == 0
		}
	}
}

func (k *keydir) grow() {
	n := 2 * (len(k.slots) / 2)
	if n < kdMinCap {
		n = kdMinCap
	}
	old := k.slots
	k.slots = make([]uint64, 2*n)
	k.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i := 0; i < len(old); i += 2 {
		if old[i] != 0 {
			k.insert(old[i], old[i+1])
		}
	}
}
