// Package mem models the 386BSD kernel memory allocators the paper
// profiles: the general-purpose power-of-two bucket malloc/free (Table 1:
// malloc ≈37 µs, free ≈32 µs inclusive), kmem_alloc (≈801 µs — dominated by
// page-map work), and the mbuf allocator whose MGET fast path is the
// paper's example of an inline '=' trigger.
package mem

import (
	"fmt"

	"kprof/internal/bus"
	"kprof/internal/kernel"
	"kprof/internal/sim"
)

// PageSize is the i386 page size.
const PageSize = 4096

// Allocator is the kernel memory subsystem.
type Allocator struct {
	k *kernel.Kernel

	fnMalloc    *kernel.Fn
	fnFree      *kernel.Fn
	fnKmemAlloc *kernel.Fn
	fnKmemFree  *kernel.Fn

	// backing is called by kmem_alloc to wire fresh pages; the vm package
	// installs the pmap work here. nil means a flat calibrated cost.
	backing func(pages int)

	buckets [bucketCount]bucket

	// spare recycles Block descriptors freed through Free, and arena
	// block-allocates them before any have been freed (simulator-side
	// bookkeeping only; the cost model is unchanged). The arena is
	// append-only at fixed capacity, so carved pointers stay valid.
	spare []*Block
	arena []Block

	// Statistics.
	Mallocs, Frees        uint64
	KmemAllocs, KmemFrees uint64
	BytesInUse            int64
}

type bucket struct {
	size int
	free int // free chunks currently in the bucket
}

const (
	minBucketShift = 4  // 16 bytes
	maxBucketShift = 16 // 64 KiB: larger goes straight to kmem_alloc
	bucketCount    = maxBucketShift - minBucketShift + 1
)

// Calibrated costs (see package comment).
const (
	// malloc/free raise to splhigh (splimp) around the bucket surgery,
	// as kern_malloc.c did; the bodies below plus the spl pair land on
	// Table 1's ≈37/32 µs inclusive.
	costMallocBody    = 22 * sim.Microsecond
	costFreeBody      = 18 * sim.Microsecond
	costKmemAllocBase = 90 * sim.Microsecond // map bookkeeping before paging
	costKmemFreeBase  = 60 * sim.Microsecond
	costBucketRefill  = 9 * sim.Microsecond // linking fresh chunks
	// flatKmemPageCost approximates the pmap work per page when the vm
	// package is not attached (Table 1 measures kmem_alloc at ≈801 µs for
	// the common two-page request).
	flatKmemPageCost = 355 * sim.Microsecond
)

// Attach registers the allocator's functions in the kernel symbol table.
func Attach(k *kernel.Kernel) *Allocator {
	a := &Allocator{
		k:           k,
		fnMalloc:    k.RegisterFn("kern_malloc", "malloc"),
		fnFree:      k.RegisterFn("kern_malloc", "free"),
		fnKmemAlloc: k.RegisterFn("vm_kern", "kmem_alloc"),
		fnKmemFree:  k.RegisterFn("vm_kern", "kmem_free"),
	}
	for i := range a.buckets {
		a.buckets[i].size = 1 << (minBucketShift + i)
	}
	a.spare = make([]*Block, 0, blockSpareMax)
	return a
}

// SetBacking installs the page-wiring callback kmem_alloc uses (the vm
// package's pmap work). Passing nil restores the flat calibrated cost.
func (a *Allocator) SetBacking(f func(pages int)) { a.backing = f }

// bucketFor returns the bucket index for a request size, or -1 if the
// request is too large for the bucket allocator.
func bucketFor(size int) int {
	for i := 0; i < bucketCount; i++ {
		if size <= 1<<(minBucketShift+i) {
			return i
		}
	}
	return -1
}

// Block is an allocated kernel memory block.
type Block struct {
	Size   int // requested size
	bucket int // -1 for direct kmem allocations
	freed  bool
}

// Malloc allocates size bytes from the bucket allocator, refilling the
// bucket from kmem_alloc when it runs dry — which is where the occasional
// very slow malloc the paper's max columns show comes from.
func (a *Allocator) Malloc(size int) *Block {
	if size <= 0 {
		panic(fmt.Sprintf("mem: malloc of %d bytes", size))
	}
	a.Mallocs++
	bi := bucketFor(size)
	var blk *Block
	switch {
	case len(a.spare) > 0:
		n := len(a.spare)
		blk = a.spare[n-1]
		a.spare[n-1] = nil
		a.spare = a.spare[:n-1]
		*blk = Block{Size: size, bucket: bi}
	case len(a.arena) < cap(a.arena) || a.arena == nil:
		if a.arena == nil {
			a.arena = make([]Block, 0, blockArenaCap)
		}
		a.arena = append(a.arena, Block{Size: size, bucket: bi})
		blk = &a.arena[len(a.arena)-1]
	default:
		blk = &Block{Size: size, bucket: bi}
	}
	a.k.Call(a.fnMalloc, func() {
		s := a.k.SplHigh()
		defer a.k.SplX(s)
		a.k.Advance(costMallocBody)
		if bi < 0 {
			// Large request: straight to kmem_alloc.
			a.kmemAlloc((size + PageSize - 1) / PageSize)
			return
		}
		b := &a.buckets[bi]
		if b.free == 0 {
			pages := (b.size + PageSize - 1) / PageSize
			if pages < 1 {
				pages = 1
			}
			a.kmemAlloc(pages)
			a.k.Advance(costBucketRefill)
			b.free = pages * PageSize / b.size
		}
		b.free--
	})
	a.BytesInUse += int64(size)
	return blk
}

// Free returns a block to its bucket.
func (a *Allocator) Free(blk *Block) {
	if blk == nil || blk.freed {
		panic("mem: double free")
	}
	blk.freed = true
	a.Frees++
	a.BytesInUse -= int64(blk.Size)
	a.k.Call(a.fnFree, func() {
		s := a.k.SplHigh()
		a.k.Advance(costFreeBody)
		if blk.bucket >= 0 {
			a.buckets[blk.bucket].free++
		}
		a.k.SplX(s)
	})
	if len(a.spare) < blockSpareMax {
		a.spare = append(a.spare, blk)
	}
}

// blockSpareMax bounds the Block descriptor recycle list; blockArenaCap
// covers the live-block population of a steady receive run.
const (
	blockSpareMax = 64
	blockArenaCap = 128
)

// KmemAlloc allocates and wires pages of kernel virtual memory.
func (a *Allocator) KmemAlloc(pages int) {
	a.kmemAlloc(pages)
}

func (a *Allocator) kmemAlloc(pages int) {
	if pages <= 0 {
		panic("mem: kmem_alloc of no pages")
	}
	a.KmemAllocs++
	a.k.Call(a.fnKmemAlloc, func() {
		a.k.Advance(costKmemAllocBase)
		if a.backing != nil {
			a.backing(pages)
		} else {
			a.k.Advance(sim.Time(pages) * flatKmemPageCost)
		}
	})
}

// KmemFree releases pages of kernel virtual memory.
func (a *Allocator) KmemFree(pages int) {
	if pages <= 0 {
		panic("mem: kmem_free of no pages")
	}
	a.KmemFrees++
	a.k.CallCost(a.fnKmemFree, costKmemFreeBase)
}

var _ = bus.MainMemory // the mbuf layer (mbuf.go) uses bus regions
