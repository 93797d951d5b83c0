package hw

import (
	"testing"

	"kprof/internal/sim"
)

// fillCard latches n distinct records onto a fresh card.
func fillCard(t *testing.T, depth, n int) (*sim.Scheduler, *Profiler, *EPROMSocket) {
	t.Helper()
	s, p := newTestCard(depth)
	sock := NewEPROMSocket(0xC8000, p)
	p.Arm()
	for i := 0; i < n; i++ {
		s.AdvanceTo(sim.Time(i+1) * 3 * sim.Microsecond)
		p.Latch(uint16(500 + 2*(i%8)))
	}
	p.Disarm()
	return s, p, sock
}

// TestReadoutViaSocketIntoReuses pins the recycling readout's contract: a
// second drain into the same buffer reuses its storage (no fresh record
// slice) and reads back exactly what a plain readout does.
func TestReadoutViaSocketIntoReuses(t *testing.T) {
	s, p, sock := fillCard(t, 16, 12)
	want, err := ReadoutViaSocketInto(sock, p.Stored(), nil)
	if err != nil {
		t.Fatal(err)
	}

	buf := new(ReadoutBuffer)
	got, err := ReadoutViaSocketInto(sock, p.Stored(), buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("into-readout got %d records, want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got.Records[i], want.Records[i])
		}
	}
	if &got.Records[0] != &buf.records[0] {
		t.Fatal("into-readout did not decode into the buffer's storage")
	}

	// A second, smaller capture drains into the same storage.
	firstBacking := &buf.records[0]
	p.Reset()
	p.Arm()
	s.AdvanceTo(s.Now() + 5*sim.Microsecond)
	p.Latch(500)
	s.AdvanceTo(s.Now() + 5*sim.Microsecond)
	p.Latch(501)
	p.Disarm()
	got2, err := ReadoutViaSocketInto(sock, p.Stored(), buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Records) != 2 {
		t.Fatalf("second readout got %d records, want 2", len(got2.Records))
	}
	if &got2.Records[0] != firstBacking {
		t.Fatal("second readout allocated a fresh record slice instead of reusing the buffer")
	}
	if got2.Records[0].Tag != 500 || got2.Records[1].Tag != 501 {
		t.Fatalf("second readout decoded tags %d, %d", got2.Records[0].Tag, got2.Records[1].Tag)
	}

	// A nil buffer reads the same records into fresh storage.
	got3, err := ReadoutViaSocketInto(sock, p.Stored(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got3.Records) != 2 || got3.Records[0] != got2.Records[0] {
		t.Fatalf("nil-buffer readout differs: %+v", got3.Records)
	}
}
