package hw

import (
	"bytes"
	"encoding/binary"
	"testing"

	"kprof/internal/sim"
)

// The capture reader faces files from disk: arbitrary bytes must never
// panic, and accepted captures must round-trip.
func FuzzReadCapture(f *testing.F) {
	var buf bytes.Buffer
	c := Capture{Records: []Record{{502, 100}, {503, 250}}, Overflowed: true, Dropped: 3}
	c.WriteTo(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte("KPROFRAW garbage"))
	f.Add([]byte{})
	f.Add(hugeCountHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCapture(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCapture(&out)
		if err != nil {
			t.Fatalf("re-read of accepted capture failed: %v", err)
		}
		if back.Len() != got.Len() || back.Overflowed != got.Overflowed || back.Dropped != got.Dropped {
			t.Fatal("round trip changed the capture")
		}
	})
}

// FuzzReadoutCopy holds the single-copy readout to the per-byte path it
// replaces: for any RAM image, count, timer width and readout buffer (none,
// too small, large enough), a drain with no hook and a drain through a
// pass-through hook return the same records, equal to the first count
// records Dump holds, in storage sized as the buffer contract says.
func FuzzReadoutCopy(f *testing.F) {
	f.Add([]byte{0xf6, 0x01, 0x10, 0x27, 0x00, 0x00}, 24, -1, 0)
	f.Add([]byte{0x34, 0x12, 0xef, 0xcd, 0xab, 0x89, 0x35, 0x12, 0xff, 0xff, 0xff, 0xff}, 32, 2, 2)
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c}, 26, 1, 1)
	f.Add([]byte{}, 16, 0, 2)
	f.Fuzz(func(t *testing.T, image []byte, bits int, count int, bufMode int) {
		cfg := Config{Depth: 1 << 10, TimerBits: uint(1 + (bits%32+32)%32)}
		p := NewWithConfig(cfg, sim.NewScheduler().Now)
		for i := 0; i+6 <= len(image) && p.Stored() < cfg.Depth; i += 6 {
			p.store(Record{
				Tag:   binary.LittleEndian.Uint16(image[i:]),
				Stamp: binary.LittleEndian.Uint32(image[i+2:]) & p.mask,
			})
		}
		sock := NewEPROMSocket(0xC8000, p)
		want := count
		if want < 0 || want > p.Stored() {
			want = p.Stored()
		}
		newBuf := func() *ReadoutBuffer {
			switch (bufMode%3 + 3) % 3 {
			case 1: // too small: the readout allocates exactly count
				return &ReadoutBuffer{records: make([]Record, want/2, want/2)}
			case 2: // large enough, holding stale records
				rb := &ReadoutBuffer{records: make([]Record, want+3)}
				for i := range rb.records {
					rb.records[i] = Record{Tag: 0xdead, Stamp: 0xbeef}
				}
				return rb
			}
			return nil
		}
		plainBuf, perByteBuf := newBuf(), newBuf()
		var spare []Record
		if plainBuf != nil {
			spare = plainBuf.records[:cap(plainBuf.records)]
		}
		plain, perByte := readoutBoth(t, sock, count, plainBuf, perByteBuf)
		dump := p.Dump().Records[:want]
		if len(plain.Records) != want || len(perByte.Records) != want {
			t.Fatalf("single copy %d records, per-byte %d, want %d", len(plain.Records), len(perByte.Records), want)
		}
		for i, r := range dump {
			if plain.Records[i] != r || perByte.Records[i] != r {
				t.Fatalf("record %d: single copy %+v, per-byte %+v, card %+v", i, plain.Records[i], perByte.Records[i], r)
			}
		}
		if want == 0 {
			return
		}
		switch {
		case cap(spare) >= want:
			if &plain.Records[0] != &spare[0] {
				t.Fatal("single copy did not reuse a large enough buffer")
			}
		case cap(plain.Records) != want:
			t.Fatalf("single copy allocated %d records for %d", cap(plain.Records), want)
		}
		if plainBuf != nil && &plainBuf.records[0] != &plain.Records[0] {
			t.Fatal("the buffer does not keep the storage the capture aliases")
		}
	})
}
