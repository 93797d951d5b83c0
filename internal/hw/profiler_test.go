package hw

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"kprof/internal/sim"
)

func newTestCard(depth int) (*sim.Scheduler, *Profiler) {
	s := sim.NewScheduler()
	return s, NewWithConfig(Config{Depth: depth}, s.Now)
}

func TestLatchStoresTagAndMicroseconds(t *testing.T) {
	s, p := newTestCard(8)
	p.Arm()
	s.AdvanceTo(1234 * sim.Microsecond)
	p.Latch(502)
	s.AdvanceTo(1234*sim.Microsecond + 999*sim.Nanosecond) // sub-µs: same stamp
	p.Latch(503)
	s.AdvanceTo(5 * sim.Second)
	p.Latch(600)
	c := p.Dump()
	if c.Len() != 3 {
		t.Fatalf("stored %d records", c.Len())
	}
	want := []Record{{502, 1234}, {503, 1234}, {600, 5000000}}
	for i, r := range c.Records {
		if r != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestDisarmedCardDropsStrobes(t *testing.T) {
	_, p := newTestCard(8)
	p.Latch(1)
	if p.Stored() != 0 || p.Dropped != 1 || p.Latched != 1 {
		t.Fatalf("disarmed card stored=%d dropped=%d latched=%d", p.Stored(), p.Dropped, p.Latched)
	}
	p.Arm()
	if !p.Armed() {
		t.Fatal("Armed = false after Arm")
	}
	p.Latch(2)
	p.Disarm()
	p.Latch(3)
	if p.Stored() != 1 || p.Dropped != 2 {
		t.Fatalf("stored=%d dropped=%d", p.Stored(), p.Dropped)
	}
}

func TestAddressCounterOverflowStopsCapture(t *testing.T) {
	_, p := newTestCard(4)
	p.Arm()
	for i := 0; i < 10; i++ {
		p.Latch(uint16(i))
	}
	if !p.Overflowed() {
		t.Fatal("overflow LED not lit")
	}
	if p.Stored() != 4 {
		t.Fatalf("stored %d records, want 4", p.Stored())
	}
	c := p.Dump()
	if !c.Overflowed {
		t.Fatal("capture does not report overflow")
	}
	if c.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", c.Dropped)
	}
	// The first Depth records are kept (list fills front to back).
	for i, r := range c.Records {
		if r.Tag != uint16(i) {
			t.Fatalf("record %d tag = %d", i, r.Tag)
		}
	}
}

func TestResetClearsOverflowAndRAM(t *testing.T) {
	_, p := newTestCard(2)
	p.Arm()
	p.Latch(1)
	p.Latch(2)
	p.Latch(3)
	p.Reset()
	if p.Overflowed() || p.Stored() != 0 || p.Dropped != 0 || p.Latched != 0 {
		t.Fatal("Reset did not clear card state")
	}
	p.Latch(9)
	if p.Stored() != 1 {
		t.Fatal("card not usable after Reset")
	}
	if got := p.Dump().Records[0].Tag; got != 9 {
		t.Fatalf("tag after reset = %d", got)
	}
}

func TestTimerWrapsAt24Bits(t *testing.T) {
	s, p := newTestCard(8)
	p.Arm()
	// 2^24 µs ≈ 16.78 s. An event just before and just after the wrap.
	s.AdvanceTo(sim.Time(TimerWrap-1) * sim.Microsecond)
	p.Latch(1)
	s.AdvanceTo(sim.Time(TimerWrap+5) * sim.Microsecond)
	p.Latch(2)
	c := p.Dump()
	if c.Records[0].Stamp != TimerWrap-1 {
		t.Fatalf("stamp 0 = %d", c.Records[0].Stamp)
	}
	if c.Records[1].Stamp != 5 {
		t.Fatalf("stamp 1 = %d, want wrapped value 5", c.Records[1].Stamp)
	}
}

func TestPowerOnCounterOffset(t *testing.T) {
	s, p := newTestCard(8)
	p.SetPowerOnCounter(TimerMask) // counter one tick from wrap at t=0
	p.Arm()
	p.Latch(1)
	s.AdvanceTo(1 * sim.Microsecond)
	p.Latch(2)
	c := p.Dump()
	if c.Records[0].Stamp != TimerMask {
		t.Fatalf("stamp 0 = %d", c.Records[0].Stamp)
	}
	if c.Records[1].Stamp != 0 {
		t.Fatalf("stamp 1 = %d, want 0 (wrapped)", c.Records[1].Stamp)
	}
}

func TestDefaultDepthIs16384(t *testing.T) {
	_, p := newTestCard(0)
	if p.Depth() != 16384 {
		t.Fatalf("default depth = %d", p.Depth())
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil clock")
		}
	}()
	NewWithConfig(Config{Depth: 8}, nil)
}

func TestEPROMSocketDecodesWindow(t *testing.T) {
	s, p := newTestCard(16)
	p.Arm()
	const base = 0xD0000
	sock := NewEPROMSocket(base, p)
	if sock.Base() != base {
		t.Fatalf("Base = %#x", sock.Base())
	}
	s.AdvanceTo(10 * sim.Microsecond)
	if v := sock.Read(base + 1386); v != 0xFF {
		t.Fatalf("Read returned %#x, want 0xFF", v)
	}
	sock.Read(base + 1387)
	sock.Read(base - 1)          // below window: no latch
	sock.Read(base + WindowSize) // above window: no latch
	sock.Read(0)                 // far away
	c := p.Dump()
	if c.Len() != 2 {
		t.Fatalf("latched %d events, want 2", c.Len())
	}
	if c.Records[0].Tag != 1386 || c.Records[1].Tag != 1387 {
		t.Fatalf("tags = %d,%d", c.Records[0].Tag, c.Records[1].Tag)
	}
}

func TestEPROMSocketContains(t *testing.T) {
	_, p := newTestCard(1)
	sock := NewEPROMSocket(0xC8000, p)
	for _, c := range []struct {
		addr uint32
		want bool
	}{
		{0xC8000, true}, {0xC8000 + WindowSize - 1, true},
		{0xC8000 + WindowSize, false}, {0xC7FFF, false}, {0, false},
	} {
		if got := sock.Contains(c.addr); got != c.want {
			t.Errorf("Contains(%#x) = %v", c.addr, got)
		}
	}
}

// bankRoundTrip stores records on a prototype card and reads them back bank
// by bank through the socket window, as a faulted drain does: every byte
// crosses a (pass-through) fault hook and decodeLanes reassembles them.
func bankRoundTrip(t *testing.T, records []Record) []Record {
	t.Helper()
	_, p := newTestCard(len(records) + 1)
	for _, r := range records {
		p.store(r)
	}
	p.SetFaultHook(passThrough{})
	c, err := ReadoutViaSocketInto(NewEPROMSocket(0xC8000, p), -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c.Records
}

func TestBankRoundTrip(t *testing.T) {
	records := []Record{{502, 0}, {503, 16383}, {1386, TimerMask}, {65535, 0xABCDEF & TimerMask}}
	got := bankRoundTrip(t, records)
	if len(got) != len(records) {
		t.Fatalf("read back %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if got[i] != records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], records[i])
		}
	}
}

// The socket readout serves each stored record across the five chips:
// bank 0 = tag low byte, bank 1 = tag high byte, banks 2..4 = timestamp
// bits 0–7, 8–15, 16–23.
func TestBankLayoutMatchesChipWiring(t *testing.T) {
	_, p := newTestCard(8)
	p.store(Record{Tag: 0x1234, Stamp: 0xABCDEF})
	sock := NewEPROMSocket(0xC8000, p)
	p.EnterReadout()
	defer p.ExitReadout()
	want := [NumBanks]byte{0x34, 0x12, 0xEF, 0xCD, 0xAB}
	for i, w := range want {
		p.SelectBank(i)
		if got := sock.Read(0xC8000); got != w {
			t.Fatalf("bank %d byte = %#x, want %#x", i, got, w)
		}
	}
}

func TestCaptureFileRoundTrip(t *testing.T) {
	c := Capture{
		Records:    []Record{{502, 100}, {503, 250}, {600, TimerMask}},
		Overflowed: true,
		Dropped:    42,
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Overflowed != c.Overflowed || got.Dropped != c.Dropped || got.Len() != c.Len() {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range c.Records {
		if got.Records[i] != c.Records[i] {
			t.Fatalf("record %d = %+v", i, got.Records[i])
		}
	}
}

func TestReadCaptureRejectsGarbage(t *testing.T) {
	if _, err := ReadCapture(bytes.NewReader([]byte("not a capture file at all........"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
	// Truncated records.
	c := Capture{Records: []Record{{1, 2}, {3, 4}}}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadCapture(bytes.NewReader(b[:len(b)-3])); err == nil {
		t.Fatal("expected error for truncated file")
	}
	if _, err := ReadCapture(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
}

// Property: the bank readout round-trips arbitrary records (with the stamp
// masked to 24 bits, as the hardware stores).
func TestBankRoundTripProperty(t *testing.T) {
	prop := func(tags []uint16, stamps []uint32) bool {
		n := len(tags)
		if len(stamps) < n {
			n = len(stamps)
		}
		records := make([]Record, n)
		for i := 0; i < n; i++ {
			records[i] = Record{Tag: tags[i], Stamp: stamps[i] & TimerMask}
		}
		got := bankRoundTrip(t, records)
		if len(got) != n {
			return false
		}
		for i := range records {
			if got[i] != records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a card never stores more than its depth, and Latched always
// equals Stored + Dropped.
func TestCaptureAccountingProperty(t *testing.T) {
	prop := func(depth uint8, strobes []uint16, armPattern []bool) bool {
		d := int(depth%64) + 1
		_, p := newTestCard(d)
		for i, tag := range strobes {
			if i < len(armPattern) {
				if armPattern[i] {
					p.Arm()
				} else {
					p.Disarm()
				}
			}
			p.Latch(tag)
		}
		return p.Stored() <= d && p.Latched == uint64(p.Stored())+p.Dropped
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// hugeCountHeader is a 64-byte input whose header claims 2³²−1 records and
// whose body holds three and a third.
func hugeCountHeader() []byte {
	var buf bytes.Buffer
	Capture{Records: []Record{{1, 2}, {3, 4}, {5, 6}, {7, 8}}}.WriteTo(&buf)
	b := buf.Bytes()[:64]
	binary.LittleEndian.PutUint32(b[12:], 1<<32-1) // rawHeader.Count
	return b
}

// captureReaders opens data three ways: as an in-memory reader (its size
// known from Len), as a regular file (from its size and offset), and behind
// a reader that tells nothing and returns a few bytes per call.
func captureReaders(t *testing.T, data []byte) map[string]io.Reader {
	path := filepath.Join(t.TempDir(), "capture.raw")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return map[string]io.Reader{
		"memory":  bytes.NewReader(data),
		"file":    f,
		"unsized": iotest.HalfReader(bytes.NewReader(data)),
	}
}

// A header's record count is not an allocation request: a short input that
// claims 2³²−1 records (32 GiB of them) fails once its bytes run out, after
// allocating no more than a chunk.
func TestReadCaptureHugeCountHeader(t *testing.T) {
	for name, r := range captureReaders(t, hugeCountHeader()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadCapture(r)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated capture at record 3") {
			t.Fatalf("%s: err = %v, want truncation at record 3", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s: allocated %d bytes reading a 64-byte input, want under 1 MB", name, alloc)
		}
	}
}

// A capture larger than one read chunk round-trips from every kind of
// reader, and the record list is sized exactly.
func TestReadCaptureAcrossChunks(t *testing.T) {
	c := Capture{Records: make([]Record, 3*readChunk+5), ClockHz: 4_000_000, TimerBits: 26}
	for i := range c.Records {
		c.Records[i] = Record{Tag: uint16(i), Stamp: uint32(i*7) & TimerMask}
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for name, r := range captureReaders(t, buf.Bytes()) {
		got, err := ReadCapture(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got.Records, c.Records) || got.ClockHz != c.ClockHz || got.TimerBits != c.TimerBits {
			t.Fatalf("%s: multi-chunk round trip changed the capture", name)
		}
		if cap(got.Records) != len(c.Records) {
			t.Fatalf("%s: record list cap %d for %d records", name, cap(got.Records), len(c.Records))
		}
	}
}
