package export

import "math/bits"

// Minimal protobuf wire-format encoder — exactly the subset the pprof
// profile.proto schema needs (varints, length-delimited submessages and
// strings, packed repeated scalars) and the encoded lengths that size its
// output. Hand-rolled so the repository stays standard-library only; the
// encoding is deterministic byte for byte, which the golden exporter tests
// rely on. Every pprof field number is below 16, so every key is one byte.

// Wire types of the protobuf encoding.
const (
	wireVarint = 0
	wireBytes  = 2
)

// protoBuf accumulates an encoded message.
type protoBuf struct {
	b []byte
}

// varint appends v in base-128 little-endian-group encoding.
func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

// int64Field appends field=v, omitting the proto3 zero default. pprof's
// schema never stores negative values in practice, but the two's-complement
// varint form is the correct general encoding.
func (p *protoBuf) int64Field(field int, v int64) {
	if v != 0 {
		p.varint(uint64(field)<<3 | wireVarint)
		p.varint(uint64(v))
	}
}

// bytesField appends field=b as a length-delimited value, even when empty.
func (p *protoBuf) bytesField(field int, b []byte) {
	p.varint(uint64(field)<<3 | wireBytes)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

// varintLen is the encoded length of v.
func varintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// intLen is the encoded length of int64Field(_, v).
func intLen(v int64) int {
	if v == 0 {
		return 0
	}
	return 1 + varintLen(uint64(v))
}

// bytesLen is the encoded length of a length-delimited field of n bytes.
func bytesLen(n int) int { return 1 + varintLen(uint64(n)) + n }
