// Package instrument reproduces the compiler half of the profiling system:
// the modified GNU C compiler that inserts an EPROM-window load at the
// entry (even tag) and exit (tag+1) of every function in the modules being
// profiled, driven by the name/tag file, plus the two-stage link that
// resolves _ProfileBase — the kernel-virtual address of the EPROM window,
// which cannot be known until the kernel's size is known.
//
// Selective profiling falls out of the per-module switch: compiling only
// the modules of interest with profiling enabled is the paper's
// "micro-profiling", and compiling the high-level entry points (syscall,
// VNODE layer) is "macro-profiling".
package instrument

import (
	"fmt"
	"sort"

	"kprof/internal/kernel"
	"kprof/internal/tagfile"
)

// Options selects what to instrument. The context switcher is always
// swtch: the tag file marks it '!' whenever it is instrumented.
type Options struct {
	// Modules restricts instrumentation to these object modules; empty
	// means every module (whole-kernel profiling).
	Modules []string
	// Functions restricts instrumentation to these individual functions,
	// the granularity a budget optimizer works at. When set it composes
	// with Modules: a function is instrumented only if it passes both
	// filters. Empty means no per-function restriction.
	Functions []string
	// Tags is the existing name/tag file to extend; nil starts fresh.
	Tags *tagfile.File
	// Inlines are additional inline ('=') trigger names to allocate,
	// e.g. "MGET".
	Inlines []string
}

// Result is what the "compilation" produced.
type Result struct {
	Tags *tagfile.File

	// CFunctions and AsmFunctions count instrumented routines by origin,
	// the paper's "1392 functions ... 35 assembler routines" accounting.
	CFunctions   int
	AsmFunctions int
	// TriggerPoints counts trigger instructions added (2 per function
	// plus 1 per inline).
	TriggerPoints int

	// InlineAddr maps inline trigger names to their EPROM-window offsets
	// (filled with virtual addresses after Link).
	InlineTags map[string]uint16

	instrumented []instrFn
}

type instrFn struct {
	fn *kernel.Fn
	e  tagfile.Entry
}

// Instrument assigns tags to every selected function in the kernel's
// symbol table, extending the name/tag file exactly as the compiler did.
// Triggers are not armed until Link supplies ProfileBase.
func Instrument(k *kernel.Kernel, opts Options) (*Result, error) {
	tags := opts.Tags
	if tags == nil {
		var err error
		tags, err = tagfile.NewStartingAt(500)
		if err != nil {
			return nil, err
		}
	}
	want := make(map[string]bool, len(opts.Modules))
	for _, m := range opts.Modules {
		want[m] = true
	}
	wantFn := make(map[string]bool, len(opts.Functions))
	for _, f := range opts.Functions {
		wantFn[f] = true
	}
	res := &Result{Tags: tags, InlineTags: make(map[string]uint16)}
	for _, fn := range k.Functions() {
		if len(want) > 0 && !want[fn.Module] {
			fn.ClearTriggers()
			continue
		}
		if len(wantFn) > 0 && !wantFn[fn.Name] {
			fn.ClearTriggers()
			continue
		}
		e, err := tags.Assign(fn.Name)
		if err != nil {
			return nil, fmt.Errorf("instrument: %s: %w", fn.Name, err)
		}
		res.instrumented = append(res.instrumented, instrFn{fn: fn, e: e})
		if fn.Asm {
			res.AsmFunctions++
		} else {
			res.CFunctions++
		}
		res.TriggerPoints += 2
	}
	if _, ok := tags.Lookup("swtch"); ok {
		if err := tags.MarkContextSwitch("swtch"); err != nil {
			return nil, err
		}
	}
	for _, name := range opts.Inlines {
		e, err := tags.AssignInline(name)
		if err != nil {
			return nil, err
		}
		res.InlineTags[name] = e.Tag
		res.TriggerPoints++
	}
	return res, nil
}

// Layout is the 386BSD virtual memory layout the two-stage link must model:
// the kernel is remapped to KernelBase, the last kernel page is rounded up,
// a fixed number of pages (kernel stack, proto udot) follow, and ISA bus
// memory space is remapped directly after.
type Layout struct {
	// KernelSize is the kernel image size in bytes (link stage one
	// measures it).
	KernelSize uint32
	// EPROMPhys is the physical ISA address of the profiler's EPROM
	// window (somewhere in 0xA0000-0x100000).
	EPROMPhys uint32
}

// i386 constants for the layout arithmetic.
const (
	KernelBase   = 0xFE000000
	PageSize     = 4096
	FixedPages   = 3 // kernel stack + proto udot + spare, per the paper's figure
	ISAPhysBase  = 0xA0000
	ISAWindowLen = 0x60000 // 0xA0000..0x100000
)

// Linked is the resolved address map.
type Linked struct {
	// ProfileBase is the kernel-virtual address of the EPROM window: the
	// value the second link stage patches into the assembler stub.
	ProfileBase uint32
	// ISAVirtBase is where ISA memory space begins in kernel VA.
	ISAVirtBase uint32
}

// Link performs the second link stage: compute ProfileBase from the kernel
// size, then patch every instrumented function's trigger instructions with
// their absolute virtual addresses (ProfileBase + tag).
func (r *Result) Link(lay Layout) (*Linked, error) {
	if lay.EPROMPhys < ISAPhysBase || lay.EPROMPhys+tagfile.MaxTag >= ISAPhysBase+ISAWindowLen {
		return nil, fmt.Errorf("instrument: EPROM window %#x outside ISA memory space", lay.EPROMPhys)
	}
	rounded := (lay.KernelSize + PageSize - 1) &^ uint32(PageSize-1)
	isaVirt := KernelBase + rounded + FixedPages*PageSize
	l := &Linked{
		ISAVirtBase: isaVirt,
		ProfileBase: isaVirt + (lay.EPROMPhys - ISAPhysBase),
	}
	for _, in := range r.instrumented {
		in.fn.SetTriggers(l.ProfileBase+uint32(in.e.Tag), l.ProfileBase+uint32(in.e.ExitTag()))
	}
	return l, nil
}

// VirtToPhys translates a kernel-virtual address in the ISA window back to
// the physical bus address the EPROM socket decodes.
func (l *Linked) VirtToPhys(va uint32) uint32 {
	return va - l.ISAVirtBase + ISAPhysBase
}

// InlineAddr reports the virtual trigger address for a named inline tag.
func (r *Result) InlineAddr(l *Linked, name string) (uint32, bool) {
	tag, ok := r.InlineTags[name]
	if !ok {
		return 0, false
	}
	return l.ProfileBase + uint32(tag), true
}

// InstrumentedNames lists the instrumented functions sorted by name (for
// reports and tests).
func (r *Result) InstrumentedNames() []string {
	names := make([]string, 0, len(r.instrumented))
	for _, in := range r.instrumented {
		names = append(names, in.fn.Name)
	}
	sort.Strings(names)
	return names
}

// Functions reports the count of instrumented functions.
func (r *Result) Functions() int { return len(r.instrumented) }
