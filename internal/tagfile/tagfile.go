// Package tagfile implements the profiler's name/tag file: the text file
// that maps kernel function names to event-tag values, shared between the
// instrumenting compiler and the analysis software.
//
// The format is one entry per line, "name/value" with optional trailing
// modifier characters, exactly as the paper shows:
//
//	main/502
//	hardclock/510
//	swtch/600!
//	MGET/1002=
//
// A function entry's tag is an even number; the function's exit trigger is
// tag+1, so each function occupies a pair of tag values. The '!' modifier
// marks a function that performs a processor context switch (swtch), which
// the analysis software must treat specially; '=' marks an inline tag, a
// single trigger placed inside a function rather than an entry/exit pair.
//
// The compiler extends the file automatically: a function not yet listed is
// assigned the next available even value above the current highest. A file
// may therefore be started from scratch with a single dummy entry that fixes
// the starting tag number. Multiple files may be concatenated (Merge) to
// cover a kernel built from separately instrumented module groups.
package tagfile

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// MaxTag is the largest tag the hardware's 16 tag lines can carry.
const MaxTag = 1<<16 - 1

// Entry is one line of the file.
type Entry struct {
	Name          string
	Tag           uint16
	Inline        bool // '=' modifier: a single inline trigger
	ContextSwitch bool // '!' modifier: the analysis splits code paths here
}

// ExitTag reports the tag of the function's exit trigger. It panics for
// inline entries, which have no exit.
func (e Entry) ExitTag() uint16 {
	if e.Inline {
		panic("tagfile: inline entry has no exit tag")
	}
	return e.Tag + 1
}

// String formats the entry as a file line.
func (e Entry) String() string {
	var mods string
	if e.ContextSwitch {
		mods += "!"
	}
	if e.Inline {
		mods += "="
	}
	return fmt.Sprintf("%s/%d%s", e.Name, e.Tag, mods)
}

// File is a parsed name/tag file. Entries keep their file order; lookups by
// name and by tag are indexed.
type File struct {
	entries []Entry
	byName  map[string]int
	byTag   map[uint16]int // function entry tag or inline tag -> entry index

	// resolved is the dense tag-resolution table built lazily by
	// ResolveIndex and invalidated by every mutation: one slot per tag
	// value in [resolvedLo, resolvedLo+len), classifying the tag and
	// naming its entry. Tag files are contiguous in practice (assignment
	// packs pairs upward from the base), so the table stays small and a
	// decode resolves each record with one bounds check instead of one or
	// two map probes.
	resolved   []resolvedSlot
	resolvedLo uint32
}

// resolvedSlot is one entry of the dense resolution table. It carries the
// entry's name and context-switch flag alongside the classification so the
// decode hot path reads everything it needs in a single table load, with no
// second lookup into the entries slice.
type resolvedSlot struct {
	idx  int32 // index into entries, -1 for unused tag values
	kind uint8 // EventKind
	ctx  bool  // the entry's ContextSwitch flag
	name string
}

// New returns an empty file. The first Assign call on an empty file starts
// at tag 500, matching the paper's convention of leaving low tag values for
// manual use; use NewStartingAt to pick a different base.
func New() *File {
	// Presized for a full machine's symbol table (~100 functions plus
	// inlines), so repeated boots don't regrow the maps entry by entry.
	const sizeHint = 160
	return &File{
		byName:  make(map[string]int, sizeHint),
		byTag:   make(map[uint16]int, sizeHint),
		entries: make([]Entry, 0, sizeHint),
	}
}

// NewStartingAt returns a file seeded with a dummy entry that fixes the
// first automatically assigned tag, the way a from-scratch file is begun.
func NewStartingAt(firstTag uint16) (*File, error) {
	f := New()
	if firstTag < 2 {
		return nil, fmt.Errorf("tagfile: starting tag %d too small", firstTag)
	}
	// The dummy occupies the pair just below firstTag.
	if err := f.add(Entry{Name: "__dummy__", Tag: firstTag - 2}); err != nil {
		return nil, err
	}
	return f, nil
}

// defaultFirstTag is where assignment starts on a completely empty file.
const defaultFirstTag = 500

// Len reports the number of entries.
func (f *File) Len() int { return len(f.entries) }

// Entries returns a copy of the entries in file order.
func (f *File) Entries() []Entry {
	out := make([]Entry, len(f.entries))
	copy(out, f.entries)
	return out
}

// Lookup finds an entry by function name.
func (f *File) Lookup(name string) (Entry, bool) {
	i, ok := f.byName[name]
	if !ok {
		return Entry{}, false
	}
	return f.entries[i], true
}

// occupied reports whether tag value v is already in use, counting the
// exit tag (pair partner) of function entries.
func (f *File) occupied(v uint16) bool {
	if _, ok := f.byTag[v]; ok {
		return true
	}
	// v may be the exit tag of a function whose entry tag is v-1.
	if v >= 1 {
		if i, ok := f.byTag[v-1]; ok && !f.entries[i].Inline {
			return true
		}
	}
	return false
}

func (f *File) add(e Entry) error {
	if e.Name == "" {
		return fmt.Errorf("tagfile: empty name")
	}
	if strings.ContainsAny(e.Name, "/ \t\n!=") {
		return fmt.Errorf("tagfile: invalid character in name %q", e.Name)
	}
	if _, dup := f.byName[e.Name]; dup {
		return fmt.Errorf("tagfile: duplicate name %q", e.Name)
	}
	if !e.Inline {
		if e.Tag%2 != 0 {
			return fmt.Errorf("tagfile: function %q has odd tag %d (entry tags must be even)", e.Name, e.Tag)
		}
		if e.Tag > MaxTag-1 {
			return fmt.Errorf("tagfile: function %q tag %d leaves no room for exit tag", e.Name, e.Tag)
		}
		if f.occupied(e.Tag) || f.occupied(e.Tag+1) {
			return fmt.Errorf("tagfile: function %q tags %d/%d collide with an existing entry", e.Name, e.Tag, e.Tag+1)
		}
	} else {
		if e.ContextSwitch {
			return fmt.Errorf("tagfile: inline tag %q cannot carry the context-switch modifier", e.Name)
		}
		if f.occupied(e.Tag) {
			return fmt.Errorf("tagfile: inline %q tag %d collides with an existing entry", e.Name, e.Tag)
		}
	}
	f.byName[e.Name] = len(f.entries)
	f.byTag[e.Tag] = len(f.entries)
	f.entries = append(f.entries, e)
	f.resolved = nil
	return nil
}

// Add inserts an explicit entry, validating tag pairing and collisions.
// It is how manually allocated inline and assembler tags enter the file.
func (f *File) Add(e Entry) error { return f.add(e) }

// NextTag reports the next even tag value automatic assignment would use:
// the smallest even value above every tag currently in the file.
func (f *File) NextTag() uint16 {
	// Widened arithmetic: an entry at the top of the tag space would wrap
	// top+1 past uint16 and restart assignment at 0.
	next := int(defaultFirstTag)
	for _, e := range f.entries {
		top := int(e.Tag)
		if !e.Inline {
			top++
		}
		if top >= next {
			next = top + 1
		}
	}
	if next%2 != 0 {
		next++
	}
	if next > MaxTag {
		// MaxTag is odd, so it can never be a legal entry tag: both assign
		// paths read it as "space exhausted".
		next = MaxTag
	}
	return uint16(next)
}

// Assign returns the existing entry for name, or extends the file with the
// next available even tag pair — the compiler's behaviour when it meets a
// function not yet listed. Reassigned compilations therefore keep stable
// tags.
func (f *File) Assign(name string) (Entry, error) {
	if e, ok := f.Lookup(name); ok {
		return e, nil
	}
	tag := f.NextTag()
	if tag > MaxTag-1 {
		return Entry{}, fmt.Errorf("tagfile: tag space exhausted assigning %q", name)
	}
	e := Entry{Name: name, Tag: tag}
	if err := f.add(e); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// AssignInline returns the existing inline entry for name, or extends the
// file with a new inline tag.
func (f *File) AssignInline(name string) (Entry, error) {
	if e, ok := f.Lookup(name); ok {
		if !e.Inline {
			return Entry{}, fmt.Errorf("tagfile: %q already assigned as a function", name)
		}
		return e, nil
	}
	tag := f.NextTag()
	if tag > MaxTag {
		return Entry{}, fmt.Errorf("tagfile: tag space exhausted assigning inline %q", name)
	}
	e := Entry{Name: name, Tag: tag, Inline: true}
	if err := f.add(e); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// MarkContextSwitch sets the '!' modifier on an existing function entry.
func (f *File) MarkContextSwitch(name string) error {
	i, ok := f.byName[name]
	if !ok {
		return fmt.Errorf("tagfile: no entry %q", name)
	}
	if f.entries[i].Inline {
		return fmt.Errorf("tagfile: %q is an inline tag, not a function", name)
	}
	f.entries[i].ContextSwitch = true
	f.resolved = nil
	return nil
}

// EventKind classifies what a raw hardware tag meant.
type EventKind int

const (
	// UnknownTag is a tag with no entry in the file.
	UnknownTag EventKind = iota
	// FunctionEntry is the even tag of a listed function.
	FunctionEntry
	// FunctionExit is entry tag + 1.
	FunctionExit
	// InlineTag is a '=' single trigger.
	InlineTag
)

// Resolve classifies a raw tag from the capture and returns the entry it
// belongs to.
func (f *File) Resolve(tag uint16) (Entry, EventKind) {
	i, kind := f.ResolveIndex(tag)
	if i < 0 {
		return Entry{}, UnknownTag
	}
	return f.entries[i], kind
}

// ResolveIndex classifies a raw tag and returns the index of its entry in
// file order, or -1 for a tag the file does not list. It is the decode hot
// path: one bounds-checked table load per record, against Resolve's one or
// two map probes, and the index lets downstream consumers key per-function
// state by a small dense integer instead of hashing the name.
func (f *File) ResolveIndex(tag uint16) (int32, EventKind) {
	if f.resolved == nil {
		f.buildResolved()
	}
	t := uint32(tag) - f.resolvedLo // wraps below-range tags out of bounds
	if t >= uint32(len(f.resolved)) {
		return -1, UnknownTag
	}
	s := f.resolved[t]
	return s.idx, EventKind(s.kind)
}

// ResolveRecord classifies a raw tag and returns its entry index, kind,
// name and context-switch flag in one dense-table load. It is what the
// record decoder uses: everything an event needs without copying the Entry.
func (f *File) ResolveRecord(tag uint16) (idx int32, kind EventKind, name string, ctxSwitch bool) {
	if f.resolved == nil {
		f.buildResolved()
	}
	t := uint32(tag) - f.resolvedLo // wraps below-range tags out of bounds
	if t >= uint32(len(f.resolved)) {
		return -1, UnknownTag, "", false
	}
	s := &f.resolved[t]
	return s.idx, EventKind(s.kind), s.name, s.ctx
}

// buildResolved materializes the dense resolution table over the file's
// occupied tag range (entry and exit tags included).
func (f *File) buildResolved() {
	lo, hi := uint32(MaxTag), uint32(0)
	for _, e := range f.entries {
		t := uint32(e.Tag)
		top := t
		if !e.Inline {
			top = t + 1
		}
		if t < lo {
			lo = t
		}
		if top > hi {
			hi = top
		}
	}
	if len(f.entries) == 0 {
		f.resolved, f.resolvedLo = make([]resolvedSlot, 0), 0
		return
	}
	tbl := make([]resolvedSlot, hi-lo+1)
	for i := range tbl {
		tbl[i].idx = -1
	}
	for i, e := range f.entries {
		t := uint32(e.Tag) - lo
		if e.Inline {
			tbl[t] = resolvedSlot{idx: int32(i), kind: uint8(InlineTag), name: e.Name}
		} else {
			tbl[t] = resolvedSlot{idx: int32(i), kind: uint8(FunctionEntry), name: e.Name, ctx: e.ContextSwitch}
			tbl[t+1] = resolvedSlot{idx: int32(i), kind: uint8(FunctionExit), name: e.Name, ctx: e.ContextSwitch}
		}
	}
	f.resolved, f.resolvedLo = tbl, lo
}

// Merge concatenates other into f, the way multiple per-module-group files
// are combined into the complete list for analysis. Identical duplicate
// lines are tolerated; conflicting ones are errors.
func (f *File) Merge(other *File) error {
	for _, e := range other.entries {
		if have, ok := f.Lookup(e.Name); ok {
			if have.Tag != e.Tag || have.Inline != e.Inline {
				return fmt.Errorf("tagfile: conflicting entries for %q: %v vs %v", e.Name, have, e)
			}
			if e.ContextSwitch && !have.ContextSwitch {
				f.entries[f.byName[e.Name]].ContextSwitch = true
				f.resolved = nil
			}
			continue
		}
		if err := f.add(e); err != nil {
			return fmt.Errorf("tagfile: merging: %w", err)
		}
	}
	return nil
}

// Parse reads a name/tag file. Blank lines and lines starting with '#' are
// ignored.
func Parse(r io.Reader) (*File, error) {
	f := New()
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("tagfile: line %d: %w", lineno, err)
		}
		if err := f.add(e); err != nil {
			return nil, fmt.Errorf("tagfile: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tagfile: %w", err)
	}
	return f, nil
}

// ParseString parses a file held in a string.
func ParseString(s string) (*File, error) { return Parse(strings.NewReader(s)) }

func parseLine(line string) (Entry, error) {
	slash := strings.LastIndexByte(line, '/')
	if slash < 0 {
		return Entry{}, fmt.Errorf("missing '/' in %q", line)
	}
	name := line[:slash]
	rest := line[slash+1:]
	var e Entry
	e.Name = name
	for len(rest) > 0 {
		switch rest[len(rest)-1] {
		case '!':
			e.ContextSwitch = true
			rest = rest[:len(rest)-1]
			continue
		case '=':
			e.Inline = true
			rest = rest[:len(rest)-1]
			continue
		}
		break
	}
	v, err := strconv.ParseUint(rest, 10, 16)
	if err != nil {
		return Entry{}, fmt.Errorf("bad tag value in %q: %v", line, err)
	}
	e.Tag = uint16(v)
	return e, nil
}

// Format writes the file in its text form, entries in file order.
func (f *File) Format(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range f.entries {
		if _, err := fmt.Fprintln(bw, e.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// String renders the file as text.
func (f *File) String() string {
	var b strings.Builder
	_ = f.Format(&b)
	return b.String()
}

// Functions returns the non-inline entries sorted by tag, excluding the
// dummy placeholder; useful for reports.
func (f *File) Functions() []Entry {
	var out []Entry
	for _, e := range f.entries {
		if !e.Inline && e.Name != "__dummy__" {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}
