package hw

import (
	"bytes"
	"testing"
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
