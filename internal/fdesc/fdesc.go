// Package fdesc models the kernel file-descriptor layer (kern_descrip.c):
// per-process descriptor tables, falloc/fdalloc for slot and file-structure
// allocation, and ffree. The falloc → fdalloc → min call chain, with a
// malloc when the table grows, appears verbatim in the paper's Figure 4
// code-path trace (falloc 22 µs net / 83 µs total, fdalloc 13/18, min 5).
package fdesc

import (
	"fmt"

	"kprof/internal/kernel"
	"kprof/internal/mem"
	"kprof/internal/sim"
)

// File is an open file table entry; the payload is whatever object the
// descriptor refers to (a vnode, a socket).
type File struct {
	Obj      any
	RefCount int
}

// Table is a per-process descriptor table.
type Table struct {
	slots []*File
}

// Calibrated costs from Figure 4.
const (
	costFalloc  = 22 * sim.Microsecond
	costFdalloc = 13 * sim.Microsecond
	costMin     = 5 * sim.Microsecond
	costFfree   = 9 * sim.Microsecond
	costFdcopy  = 30 * sim.Microsecond // fixed part of dup'ing a table on fork

	// initialSlots is the table size before the first malloc'd growth.
	initialSlots = 20
)

// FD is the file-descriptor subsystem.
type FD struct {
	k     *kernel.Kernel
	alloc *mem.Allocator

	fnFalloc  *kernel.Fn
	fnFdalloc *kernel.Fn
	fnMin     *kernel.Fn
	fnFfree   *kernel.Fn
	fnFdcopy  *kernel.Fn

	// Stats.
	Fallocs, Ffrees uint64
}

// Attach registers the descriptor routines.
func Attach(k *kernel.Kernel, alloc *mem.Allocator) *FD {
	return &FD{
		k:         k,
		alloc:     alloc,
		fnFalloc:  k.RegisterFn("kern_descrip", "falloc"),
		fnFdalloc: k.RegisterFn("kern_descrip", "fdalloc"),
		fnMin:     k.RegisterFn("kern_descrip", "min"),
		fnFfree:   k.RegisterFn("kern_descrip", "ffree"),
		fnFdcopy:  k.RegisterFn("kern_descrip", "fdcopy"),
	}
}

// NewTable returns an empty descriptor table.
func (fd *FD) NewTable() *Table {
	return &Table{slots: make([]*File, initialSlots)}
}

// Falloc allocates a descriptor slot and a file structure, exactly as the
// Figure 4 trace shows: falloc calls fdalloc (which calls min to bound the
// search) and then malloc for the file structure.
func (fd *FD) Falloc(t *Table, obj any) (int, *File) {
	fd.Fallocs++
	var slot int
	var f *File
	fd.k.Call(fd.fnFalloc, func() {
		fd.k.Advance(costFalloc)
		slot = fd.fdalloc(t)
		f = &File{Obj: obj, RefCount: 1}
		fd.alloc.Malloc(64) // struct file
		t.slots[slot] = f
	})
	return slot, f
}

// fdalloc finds the lowest free slot, growing the table if needed.
func (fd *FD) fdalloc(t *Table) int {
	slot := -1
	fd.k.Call(fd.fnFdalloc, func() {
		fd.k.Advance(costFdalloc)
		fd.k.CallCost(fd.fnMin, costMin)
		for i, f := range t.slots {
			if f == nil {
				slot = i
				return
			}
		}
		// Grow: malloc a bigger descriptor array.
		fd.alloc.Malloc(2 * len(t.slots) * 8)
		slot = len(t.slots)
		t.slots = append(t.slots, make([]*File, len(t.slots))...)
	})
	return slot
}

// Get returns the file open on a descriptor.
func (fd *FD) Get(t *Table, n int) (*File, error) {
	if n < 0 || n >= len(t.slots) || t.slots[n] == nil {
		return nil, fmt.Errorf("fdesc: bad file descriptor %d", n)
	}
	return t.slots[n], nil
}

// Close releases a descriptor, freeing the file structure when the last
// reference drops.
func (fd *FD) Close(t *Table, n int) error {
	f, err := fd.Get(t, n)
	if err != nil {
		return err
	}
	t.slots[n] = nil
	f.RefCount--
	if f.RefCount == 0 {
		fd.Ffrees++
		fd.k.CallCost(fd.fnFfree, costFfree)
	}
	return nil
}

// Copy duplicates a table for fork: every open file gains a reference.
func (fd *FD) Copy(t *Table) *Table {
	nt := &Table{}
	fd.k.Call(fd.fnFdcopy, func() {
		fd.k.Advance(costFdcopy)
		fd.alloc.Malloc(len(t.slots) * 8)
		nt.slots = make([]*File, len(t.slots))
		for i, f := range t.slots {
			if f != nil {
				f.RefCount++
				nt.slots[i] = f
				fd.k.Advance(2 * sim.Microsecond)
			}
		}
	})
	return nt
}

// Size reports the table capacity.
func (t *Table) Size() int { return len(t.slots) }
