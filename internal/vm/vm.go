// Package vm models the 386BSD virtual memory subsystem — the Mach-derived
// VM code whose interface with the pmap module the paper identifies as the
// kernel's worst bottleneck ("the glue is fairly thick in some places").
//
// The model captures the structure the profiler saw: a vm_map of entries per
// address space, a pmap layer entered through pmap_pte for every page
// touched, eager per-page work during fork, wholesale pmap_remove sweeps
// during exec teardown, and demand-zero faults through vm_fault. Costs are
// calibrated against Table 1 and Figure 5; the headline numbers — vfork
// ≈24 ms, execve ≈28 ms, pmap_pte ≈1053 calls per fork, >50% of fork/exec
// time inside the VM routines — emerge from the per-page mechanics rather
// than being hard-coded.
package vm

import (
	"fmt"

	"kprof/internal/kernel"
	"kprof/internal/mem"
)

// PageSize is the i386 page size.
const PageSize = mem.PageSize

// SegmentKind classifies a map entry.
type SegmentKind int

const (
	SegText SegmentKind = iota
	SegData
	SegStack
)

func (s SegmentKind) String() string {
	switch s {
	case SegText:
		return "text"
	case SegData:
		return "data"
	case SegStack:
		return "stack"
	}
	return "seg?"
}

// MapEntry is one vm_map_entry: a run of pages backed by a vm_object.
type MapEntry struct {
	Kind        SegmentKind
	Pages       int
	Resident    int // pages with valid mappings (faulted in)
	CopyOnWrite bool
}

// VMSpace is a process address space.
type VMSpace struct {
	Entries []*MapEntry
}

// Image describes a program image's memory layout in pages. DefaultImage is
// a typical small utility of the period.
type Image struct {
	TextPages  int
	DataPages  int
	StackPages int
}

// DefaultImage approximates a shell-class binary of the era with its
// libraries: ≈1.2 MB of address space.
var DefaultImage = Image{TextPages: 200, DataPages: 80, StackPages: 28}

func (im Image) total() int { return im.TextPages + im.DataPages + im.StackPages }

// VM is the virtual memory subsystem attached to a kernel.
type VM struct {
	k     *kernel.Kernel
	alloc *mem.Allocator

	fnVmFault      *kernel.Fn
	fnVmPageLookup *kernel.Fn
	fnVmPageAlloc  *kernel.Fn
	fnVmPageFree   *kernel.Fn
	fnVmMapEntry   *kernel.Fn
	fnVmspaceFork  *kernel.Fn
	fnVmspaceFree  *kernel.Fn
	fnVmAllocate   *kernel.Fn
	fnVmDeallocate *kernel.Fn
	fnPmapPte      *kernel.Fn
	fnPmapEnter    *kernel.Fn
	fnPmapRemove   *kernel.Fn
	fnPmapProtect  *kernel.Fn

	// Statistics.
	Faults uint64
	Forks  uint64
	Execs  uint64
}

// Attach registers the VM routines and wires kmem_alloc's page backing to
// the pmap layer, so kmem_alloc's ≈800 µs cost (Table 1) comes from real
// pmap work rather than a flat constant.
func Attach(k *kernel.Kernel, alloc *mem.Allocator) *VM {
	v := &VM{
		k:              k,
		alloc:          alloc,
		fnVmFault:      k.RegisterFn("vm_fault", "vm_fault"),
		fnVmPageLookup: k.RegisterFn("vm_page", "vm_page_lookup"),
		fnVmPageAlloc:  k.RegisterFn("vm_page", "vm_page_alloc"),
		fnVmPageFree:   k.RegisterFn("vm_page", "vm_page_free"),
		fnVmMapEntry:   k.RegisterFn("vm_map", "vm_map_entry_create"),
		fnVmspaceFork:  k.RegisterFn("vm_map", "vmspace_fork"),
		fnVmspaceFree:  k.RegisterFn("vm_map", "vmspace_free"),
		fnVmAllocate:   k.RegisterFn("vm_map", "vm_allocate"),
		fnVmDeallocate: k.RegisterFn("vm_map", "vm_deallocate"),
		fnPmapPte:      k.RegisterFn("pmap", "pmap_pte"),
		fnPmapEnter:    k.RegisterFn("pmap", "pmap_enter"),
		fnPmapRemove:   k.RegisterFn("pmap", "pmap_remove"),
		fnPmapProtect:  k.RegisterFn("pmap", "pmap_protect"),
	}
	if alloc != nil {
		alloc.SetBacking(v.kmemBacking)
	}
	return v
}

// kmemBacking wires fresh kernel pages: find space in the kernel map,
// allocate and zero a frame, and enter the mapping — Table 1's ≈800 µs for
// the common two-page request.
func (v *VM) kmemBacking(pages int) {
	for i := 0; i < pages; i++ {
		v.k.Advance(costKmemWirePage)
		v.pageAlloc()
		v.pageLookup()
		v.k.Bzero(costZeroFillPage)
		v.pmapEnter()
	}
}

// --- pmap layer ---

// PmapPte models the page-table-entry lookup, the most-called routine in
// the fork path.
func (v *VM) PmapPte() { v.k.CallCost(v.fnPmapPte, costPmapPte) }

func (v *VM) pmapEnter() {
	v.k.Call(v.fnPmapEnter, func() {
		v.k.Advance(costPmapEnterBody)
		v.PmapPte()
	})
}

// PmapRemove tears down the mappings of an entry: a fixed sweep plus
// per-resident-page PTE work. Large entries are where Figure 5's 14 ms
// maximum comes from.
func (v *VM) PmapRemove(pages int) {
	v.k.Call(v.fnPmapRemove, func() {
		v.k.Advance(costPmapRemoveBase)
		for i := 0; i < pages; i++ {
			v.PmapPte() // walk to the PTE
			v.PmapPte() // re-check after the invalidate (the paper's
			// cross-calling: the Mach layer and pmap each verify)
			v.k.Advance(costPmapRemovePage)
		}
	})
}

// PmapProtect changes protection across an entry (write-protecting for
// copy-on-write during fork).
func (v *VM) PmapProtect(pages int) {
	v.k.Call(v.fnPmapProtect, func() {
		v.k.Advance(costPmapProtectBase)
		for i := 0; i < pages; i++ {
			v.PmapPte()
			v.k.Advance(costPmapProtectPage)
		}
	})
}

// --- vm_page layer ---

func (v *VM) pageLookup() { v.k.CallCost(v.fnVmPageLookup, costVmPageLookup) }

func (v *VM) pageAlloc() { v.k.CallCost(v.fnVmPageAlloc, costVmPageAlloc) }

func (v *VM) pageFree() { v.k.CallCost(v.fnVmPageFree, costVmPageFree) }

// --- faults ---

// Fault services a page fault on entry e: the vm_fault path of Table 1 —
// map lookup, object chain walk (vm_page_lookup), page allocation, zero
// fill for demand-zero pages, then pmap_enter. It reports whether a new
// page was actually materialised (false when the entry is fully resident).
func (v *VM) Fault(e *MapEntry) bool {
	if e.Resident >= e.Pages {
		return false
	}
	v.Faults++
	v.k.Stats.PageFaults++
	v.k.Call(v.fnVmFault, func() {
		v.k.Advance(costFaultBase)
		v.PmapPte() // probe for an existing mapping first
		v.pageLookup()
		// Shadow object chain: a second lookup for COW entries.
		if e.CopyOnWrite {
			v.pageLookup()
		}
		v.pageAlloc()
		if e.Kind != SegText {
			v.k.Bzero(costZeroFillPage)
		}
		v.pmapEnter()
	})
	e.Resident++
	return true
}

// FaultIn makes n pages of e resident (the post-exec warm-up of the working
// set).
func (v *VM) FaultIn(e *MapEntry, n int) {
	for i := 0; i < n; i++ {
		if !v.Fault(e) {
			return
		}
	}
}

// --- address space construction ---

// NewVMSpace builds a fresh address space for an image, with the text
// resident (shared, already cached) and data/stack demand-zero.
func (v *VM) NewVMSpace(im Image) *VMSpace {
	if im.total() == 0 {
		panic("vm: empty image")
	}
	s := &VMSpace{}
	v.k.Call(v.fnVmAllocate, func() {
		v.k.Advance(costVmspaceAlloc)
		for _, seg := range []struct {
			kind  SegmentKind
			pages int
		}{{SegText, im.TextPages}, {SegData, im.DataPages}, {SegStack, im.StackPages}} {
			if seg.pages == 0 {
				continue
			}
			v.k.CallCost(v.fnVmMapEntry, costMapEntryBase)
			s.Entries = append(s.Entries, &MapEntry{Kind: seg.kind, Pages: seg.pages})
		}
	})
	return s
}

// Fork performs the address-space half of vfork: vmspace_fork write-
// protects the parent's writable entries, duplicates the map, and eagerly
// walks every resident page through the pmap module — the cross-calling
// the paper blames for fork's 24 ms.
func (v *VM) Fork(parent *VMSpace) *VMSpace {
	v.Forks++
	v.k.Stats.Forks++
	child := &VMSpace{}
	v.k.Call(v.fnVmspaceFork, func() {
		v.k.Advance(costMapFork)
		// The u. area (proc struct + kernel stack) is copied outright.
		v.k.Bcopy(costUAreaCopy)
		for _, e := range parent.Entries {
			v.k.CallCost(v.fnVmMapEntry, costMapEntryBase)
			ce := &MapEntry{Kind: e.Kind, Pages: e.Pages, CopyOnWrite: e.Kind != SegText}
			if e.Kind != SegText {
				// Write-protect the parent for COW.
				v.PmapProtect(e.Resident)
				e.CopyOnWrite = true
			}
			// Duplicate mappings: the pmap module is consulted for the
			// source and destination of every resident page, and the
			// mapping is eagerly entered in the child.
			for i := 0; i < e.Resident; i++ {
				v.PmapPte() // source PTE
				v.pageLookup()
				v.PmapPte() // destination PTE slot
				v.pmapEnter()
				v.k.Advance(costForkPageCopy)
			}
			ce.Resident = e.Resident
			child.Entries = append(child.Entries, ce)
		}
	})
	return child
}

// Teardown releases an address space: vm_deallocate each entry, with
// pmap_remove sweeping the mappings and the page level freeing frames.
func (v *VM) Teardown(s *VMSpace) {
	v.k.Call(v.fnVmspaceFree, func() {
		v.k.Advance(costMapTeardown)
		for _, e := range s.Entries {
			v.k.Call(v.fnVmDeallocate, func() {
				v.k.Advance(costMapEntryBase)
				v.PmapRemove(e.Resident)
				for i := 0; i < e.Resident; i++ {
					v.pageFree()
				}
			})
			e.Resident = 0
		}
		s.Entries = nil
	})
}

// Exec replaces an address space with a fresh image: teardown, rebuild,
// copy in the argument strings, and fault in the initial working set. It
// returns the new space. workingSet is how many pages the process touches
// before it is considered "running"; <=0 means a calibrated default.
func (v *VM) Exec(old *VMSpace, im Image, workingSet int) *VMSpace {
	v.Execs++
	v.k.Stats.Execs++
	// Path name and argument strings come from user space first.
	v.k.Copyinstr(68)
	v.k.Copyin(512)
	if old != nil {
		v.Teardown(old)
	}
	s := v.NewVMSpace(im)
	if workingSet <= 0 {
		workingSet = defaultWorkingSet(im)
	}
	// Text pages of a cached image are mapped without zero-fill faults;
	// data and stack demand-zero in as touched.
	for _, e := range s.Entries {
		var n int
		switch e.Kind {
		case SegText:
			n = min(e.Pages, workingSet)
		case SegData:
			n = min(e.Pages, workingSet/2)
		case SegStack:
			n = min(e.Pages, 4)
		}
		v.FaultIn(e, n)
	}
	return s
}

// DefaultWorkingSet is the page count Exec faults in by default for the
// text segment (data gets half, stack a few pages).
const DefaultWorkingSet = 24

func defaultWorkingSet(im Image) int {
	ws := DefaultWorkingSet
	if t := im.total() / 5; t < ws {
		ws = t
	}
	if ws < 1 {
		ws = 1
	}
	return ws
}

func (v *VM) String() string {
	return fmt.Sprintf("vm(faults=%d forks=%d execs=%d)", v.Faults, v.Forks, v.Execs)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
