package hw

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
)

// The physical card stores each 40-bit record across five 8-bit static RAM
// chips: two hold the 16-bit tag and three hold the 24-bit timestamp. When
// the battery-backed Smart-Sockets are pulled and read out on a host, the
// data arrives as five independent bank images. decodeLanes reassembles
// the record list from the bank images a socket readout reads, and this
// file defines the simple host-side file format used to move captures
// around. A card with a wider timer fits one more chip per 8 timer bits
// (Config.Banks); its socket readout reads them all.

// NumBanks is the number of 8-bit RAM chips on the prototype card.
const NumBanks = 5

// maxBanks is the chip count of the widest card: a 32-bit timer.
const maxBanks = 2 + 32/8

// decodeLanes reassembles records from equal-length bank images: banks 0
// and 1 hold the tag's low and high byte, bank 2+i stamp bits 8i to 8i+7.
// It lands them in dst as sizeRecords does.
func decodeLanes(banks [][]byte, dst []Record) []Record {
	dst = sizeRecords(dst, len(banks[0]))
	for i := range dst {
		r := Record{Tag: uint16(banks[0][i]) | uint16(banks[1][i])<<8}
		for b, lane := range banks[2:] {
			r.Stamp |= uint32(lane[i]) << (8 * b)
		}
		dst[i] = r
	}
	return dst
}

// sizeRecords returns n records of storage: dst's backing array when it is
// large enough, otherwise a fresh slice of exactly n.
func sizeRecords(dst []Record, n int) []Record {
	if cap(dst) < n {
		return make([]Record, n)
	}
	return dst[:n]
}

// Raw capture file format: a fixed header followed by packed records.
// Everything is little-endian.
var rawMagic = [8]byte{'K', 'P', 'R', 'O', 'F', 'R', 'A', 'W'}

const rawVersion = 2

type rawHeader struct {
	Magic     [8]byte
	Version   uint32
	Count     uint32
	Flags     uint32 // bit 0: overflowed
	Dropped   uint64
	ClockHz   int64  // 0 = the prototype's 1 MHz counter
	TimerBits uint32 // 0 = 24
	Reserved  uint32
}

const flagOverflowed = 1 << 0

// WriteTo serializes the capture in the host file format.
func (c Capture) WriteTo(w io.Writer) (int64, error) {
	h := rawHeader{
		Magic:     rawMagic,
		Version:   rawVersion,
		Count:     uint32(len(c.Records)),
		Dropped:   c.Dropped,
		ClockHz:   c.ClockHz,
		TimerBits: uint32(c.TimerBits),
	}
	if c.Overflowed {
		h.Flags |= flagOverflowed
	}
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, h); err != nil {
		return 0, err
	}
	for _, r := range c.Records {
		if err := binary.Write(&buf, binary.LittleEndian, r.Tag); err != nil {
			return 0, err
		}
		if err := binary.Write(&buf, binary.LittleEndian, r.Stamp); err != nil {
			return 0, err
		}
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// rawRecordSize is a packed record's size in the file: tag, then stamp.
const rawRecordSize = 2 + 4

// readChunk is how many records ReadCapture reads and decodes per call on
// its reader: large enough that an unbuffered file costs one read per 24 KB,
// small enough that a header claiming more records than the input holds
// costs little before the input runs out.
const readChunk = 4096

// ReadCapture deserializes a capture written by WriteTo. It reads the
// records in chunks through one buffer of its own, so an unbuffered file is
// read efficiently, and never reads past the capture's last record. The
// header's record count is trusted only as far as the input backs it: the
// record list is sized from the bytes left when the reader can tell (a file,
// an in-memory reader), and otherwise starts at one chunk and doubles as
// records arrive.
func ReadCapture(r io.Reader) (Capture, error) {
	var h rawHeader
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return Capture{}, fmt.Errorf("hw: reading capture header: %w", err)
	}
	if h.Magic != rawMagic {
		return Capture{}, fmt.Errorf("hw: bad capture magic %q", h.Magic[:])
	}
	if h.Version != rawVersion {
		return Capture{}, fmt.Errorf("hw: unsupported capture version %d", h.Version)
	}
	count := int(h.Count)
	if count < 0 { // only where int has 32 bits
		return Capture{}, fmt.Errorf("hw: capture claims %d records, too many for this platform", h.Count)
	}
	size := min(count, readChunk)
	if left, ok := unreadBytes(r); ok && left >= 0 {
		size = int(min(int64(count), left/rawRecordSize))
	}
	recs := make([]Record, 0, size)
	buf := make([]byte, min(count, readChunk)*rawRecordSize)
	for len(recs) < count {
		n := min(count-len(recs), readChunk)
		b := buf[:n*rawRecordSize]
		if got, err := io.ReadFull(r, b); err != nil {
			return Capture{}, fmt.Errorf("hw: truncated capture at record %d: %w", len(recs)+got/rawRecordSize, err)
		}
		if len(recs)+n > cap(recs) {
			grown := make([]Record, len(recs), min(count, max(2*cap(recs), len(recs)+n)))
			copy(grown, recs)
			recs = grown
		}
		for i := 0; i < len(b); i += rawRecordSize {
			recs = append(recs, Record{
				Tag:   binary.LittleEndian.Uint16(b[i:]),
				Stamp: binary.LittleEndian.Uint32(b[i+2:]),
			})
		}
	}
	return Capture{
		Records:    recs,
		Overflowed: h.Flags&flagOverflowed != 0,
		Dropped:    h.Dropped,
		ClockHz:    h.ClockHz,
		TimerBits:  uint(h.TimerBits),
	}, nil
}

// unreadBytes reports how many bytes r holds past its position when r can
// tell without reading: an in-memory reader by its Len, a regular file by
// its size less its offset.
func unreadBytes(r io.Reader) (int64, bool) {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len()), true
	case interface {
		io.Seeker
		Stat() (fs.FileInfo, error)
	}:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		return fi.Size() - off, true
	}
	return 0, false
}
