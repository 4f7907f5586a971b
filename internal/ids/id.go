// Package ids implements the 128-bit circular identifier space used by the
// Pastry overlay and by Seaweed's query and aggregation-tree protocols.
//
// Identifiers (endsystemIds, queryIds, vertexIds) are 128-bit values drawn
// from a large sparse circular namespace. They are interpreted as a sequence
// of digits in base 2^b, where b is an overlay configuration parameter
// (typically 4, giving 32 hexadecimal digits). The package provides ring
// arithmetic (distance, betweenness, numerical closeness), digit and prefix
// manipulation used by Pastry routing and by the aggregation-tree parent
// function V, and deterministic derivation of identifiers from names.
package ids

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
)

// Bits is the length of every identifier in bits.
const Bits = 128

// Bytes is the length of every identifier in bytes.
const Bytes = Bits / 8

// ID is a 128-bit identifier on the circular namespace. The zero value is
// the identifier 0. IDs are values and may be used as map keys.
//
// Internally an ID is stored as two big-endian 64-bit words: Hi holds bits
// 127..64 and Lo holds bits 63..0.
type ID struct {
	Hi, Lo uint64
}

// FromBytes builds an ID from a 16-byte big-endian slice. It panics if the
// slice is not exactly 16 bytes long.
func FromBytes(b []byte) ID {
	if len(b) != Bytes {
		panic(fmt.Sprintf("ids: FromBytes needs %d bytes, got %d", Bytes, len(b)))
	}
	return ID{
		Hi: binary.BigEndian.Uint64(b[0:8]),
		Lo: binary.BigEndian.Uint64(b[8:16]),
	}
}

// AppendBytes appends the 16-byte big-endian encoding of the ID to dst and
// returns the extended slice.
func (id ID) AppendBytes(dst []byte) []byte {
	var buf [Bytes]byte
	binary.BigEndian.PutUint64(buf[0:8], id.Hi)
	binary.BigEndian.PutUint64(buf[8:16], id.Lo)
	return append(dst, buf[:]...)
}

// ToBytes returns the 16-byte big-endian encoding of the ID.
func (id ID) ToBytes() []byte { return id.AppendBytes(nil) }

// FromUint64 builds an ID whose low 64 bits are v and whose high bits are 0.
// It is mainly useful in tests.
func FromUint64(v uint64) ID { return ID{Lo: v} }

// HashString deterministically derives an ID from a name by taking the first
// 128 bits of its SHA-1 hash. Seaweed uses this to map a query's text to its
// queryId.
func HashString(s string) ID {
	sum := sha1.Sum([]byte(s))
	return FromBytes(sum[:Bytes])
}

// HashBytes deterministically derives an ID from a byte string by taking the
// first 128 bits of its SHA-1 hash.
func HashBytes(b []byte) ID {
	sum := sha1.Sum(b)
	return FromBytes(sum[:Bytes])
}

// Parse parses a 32-character hexadecimal string into an ID.
func Parse(s string) (ID, error) {
	if len(s) != Bytes*2 {
		return ID{}, fmt.Errorf("ids: want %d hex chars, got %d", Bytes*2, len(s))
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return ID{}, fmt.Errorf("ids: %w", err)
	}
	return FromBytes(raw), nil
}

// MustParse is like Parse but panics on error. Intended for constants in
// tests and examples.
func MustParse(s string) ID {
	id, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return id
}

// String returns the 32-character lowercase hexadecimal form of the ID.
func (id ID) String() string {
	return hex.EncodeToString(id.ToBytes())
}

// Short returns the first 8 hex digits of the ID, for compact logging. It
// hex-encodes only the top 4 bytes, so the string is its one allocation.
func (id ID) Short() string {
	var src [4]byte
	binary.BigEndian.PutUint32(src[:], uint32(id.Hi>>32))
	var dst [8]byte
	hex.Encode(dst[:], src[:])
	return string(dst[:])
}

// Cmp compares two IDs as 128-bit unsigned integers, returning -1, 0 or +1.
func (id ID) Cmp(other ID) int {
	switch {
	case id.Hi < other.Hi:
		return -1
	case id.Hi > other.Hi:
		return 1
	case id.Lo < other.Lo:
		return -1
	case id.Lo > other.Lo:
		return 1
	default:
		return 0
	}
}

// Less reports whether id < other as 128-bit unsigned integers.
func (id ID) Less(other ID) bool { return id.Cmp(other) < 0 }

// IsZero reports whether the ID is the zero identifier.
func (id ID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// Add returns id + other modulo 2^128.
func (id ID) Add(other ID) ID {
	lo, carry := bits.Add64(id.Lo, other.Lo, 0)
	hi, _ := bits.Add64(id.Hi, other.Hi, carry)
	return ID{Hi: hi, Lo: lo}
}

// Sub returns id - other modulo 2^128.
func (id ID) Sub(other ID) ID {
	lo, borrow := bits.Sub64(id.Lo, other.Lo, 0)
	hi, _ := bits.Sub64(id.Hi, other.Hi, borrow)
	return ID{Hi: hi, Lo: lo}
}

// AddUint64 returns id + v modulo 2^128.
func (id ID) AddUint64(v uint64) ID { return id.Add(ID{Lo: v}) }

// Half returns id / 2 (logical right shift by one bit).
func (id ID) Half() ID {
	return ID{Hi: id.Hi >> 1, Lo: id.Lo>>1 | id.Hi<<63}
}

// Rsh returns id >> n for 0 <= n <= 128.
func (id ID) Rsh(n uint) ID {
	switch {
	case n == 0:
		return id
	case n < 64:
		return ID{Hi: id.Hi >> n, Lo: id.Lo>>n | id.Hi<<(64-n)}
	case n < 128:
		return ID{Lo: id.Hi >> (n - 64)}
	default:
		return ID{}
	}
}

// Lsh returns id << n modulo 2^128 for 0 <= n <= 128.
func (id ID) Lsh(n uint) ID {
	switch {
	case n == 0:
		return id
	case n < 64:
		return ID{Hi: id.Hi<<n | id.Lo>>(64-n), Lo: id.Lo << n}
	case n < 128:
		return ID{Hi: id.Lo << (n - 64)}
	default:
		return ID{}
	}
}

// Not returns the bitwise complement of id.
func (id ID) Not() ID { return ID{Hi: ^id.Hi, Lo: ^id.Lo} }

// MaxID is the largest identifier, 2^128 - 1.
var MaxID = ID{Hi: ^uint64(0), Lo: ^uint64(0)}

// Distance returns the clockwise ring distance from id to other, i.e.
// (other - id) mod 2^128.
func (id ID) Distance(other ID) ID { return other.Sub(id) }

// AbsDistance returns the shorter of the two ring distances between id and
// other. This is the "numerical closeness" metric used by Pastry to pick the
// root of a key: the live endsystem whose endsystemId minimizes AbsDistance
// to the key.
func (id ID) AbsDistance(other ID) ID {
	cw := id.Distance(other)
	ccw := other.Distance(id)
	if cw.Less(ccw) {
		return cw
	}
	return ccw
}

// Between reports whether id lies on the clockwise arc (lo, hi], treating
// the namespace as a ring. When lo == hi the arc covers the whole ring and
// Between always reports true.
func (id ID) Between(lo, hi ID) bool {
	if lo == hi {
		return true
	}
	return lo.Distance(id).Cmp(lo.Distance(hi)) <= 0 && id != lo
}

// InRange reports whether id lies in the inclusive linear range [lo, hi]
// (no wraparound). Seaweed's dissemination protocol subdivides the full
// linear namespace [0, 2^128-1], so its ranges never wrap.
func (id ID) InRange(lo, hi ID) bool {
	return lo.Cmp(id) <= 0 && id.Cmp(hi) <= 0
}

// Midpoint returns the midpoint of the inclusive linear range [lo, hi],
// i.e. lo + (hi-lo)/2. It requires lo <= hi.
func Midpoint(lo, hi ID) ID {
	return lo.Add(hi.Sub(lo).Half())
}

// Closest returns the element of candidates numerically closest to key on
// the ring, breaking ties toward the numerically smaller candidate. It
// returns the zero ID and false when candidates is empty.
func Closest(key ID, candidates []ID) (ID, bool) {
	if len(candidates) == 0 {
		return ID{}, false
	}
	best := candidates[0]
	bestDist := key.AbsDistance(best)
	for _, c := range candidates[1:] {
		d := key.AbsDistance(c)
		switch d.Cmp(bestDist) {
		case -1:
			best, bestDist = c, d
		case 0:
			if c.Less(best) {
				best = c
			}
		}
	}
	return best, true
}
