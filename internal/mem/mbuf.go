package mem

import (
	"kprof/internal/bus"
	"kprof/internal/kernel"
	"kprof/internal/sim"
)

// Mbuf sizes, as in 4.3BSD/Net2-era kernels.
const (
	MSize    = 128  // plain mbuf
	MHLen    = 108  // data bytes in a plain mbuf (header overhead removed)
	MCLBytes = 1024 // cluster size — the paper's "1Kbyte mbuf cluster"
)

// Mbuf is a network memory buffer. Data is represented only by length and
// the memory region it lives in; the simulation charges bus time for every
// copy and checksum over it.
type Mbuf struct {
	Len     int
	Cluster bool
	// Region is where the data bytes live. External mbufs pointing at
	// controller memory (the paper's what-if) carry bus.ISA8.
	Region bus.Region
	Next   *Mbuf // next buffer in this packet's chain

	// Frame, when set on a chain's head, is the raw frame buffer whose
	// bytes this chain carries; freeing the mbuf hands the buffer to the
	// pool's frame recycler. Receivers that keep payload bytes must copy
	// them out before freeing the chain.
	Frame []byte

	blk *Block // backing storage from the bucket allocator
}

// MbufPool is the mbuf layer, Net/2 style: plain mbufs are malloc'd
// individually with a small free list in front (MGET pops the list, falls
// back to malloc; MFREE pushes, overflowing back to free). Under bursty
// interrupt-side allocation and batched process-side freeing the list
// oscillates, producing the steady malloc/free traffic visible in the
// paper's Figure 3 profile. Clusters come from a dedicated page pool
// (mb_map), not the malloc buckets.
type MbufPool struct {
	k *kernel.Kernel
	a *Allocator

	freeBlks    []*Block // free list of malloc'd plain mbufs
	freeCluster int

	// spare recycles Mbuf structs themselves, and arena block-allocates
	// them before any have been freed (simulator-side, no cost model: the
	// real kernel's mbufs live inside the malloc'd blocks). The arena is
	// append-only at fixed capacity, so carved pointers stay valid.
	spare []*Mbuf
	arena []Mbuf

	// frameRecycler, when set, receives the Frame buffer of each freed
	// mbuf that carries one.
	frameRecycler func([]byte)

	// mgetInline is the inline '=' trigger address assigned by the
	// instrumentation pass for the MGET macro; 0 when not instrumented.
	mgetInline uint32

	// freeListDepth bounds the plain-mbuf free list; 0 means the Net/2
	// default of freeListMax. Deepening it is the "mbuf pooling" proposed
	// change: the list stops oscillating under bursty interrupt-side
	// allocation, so the steady malloc/free traffic disappears.
	freeListDepth int

	// Statistics.
	MGets, MFrees uint64
	ClusterGets   uint64
	PoolMallocs   uint64 // free-list misses that fell back to malloc
	PoolFrees     uint64 // free-list overflows returned to free
}

// Calibrated costs: MGET is a macro fast path — a handful of instructions
// plus the splimp protection; cluster gets add page-pool bookkeeping.
const (
	costMGet     = 6 * sim.Microsecond
	costMFree    = 5 * sim.Microsecond
	costClustGet = 9 * sim.Microsecond

	// freeListMax bounds the plain-mbuf free list; beyond it MFREE
	// really frees.
	freeListMax = 4
	// clusterPoolMax bounds the cluster pool; clusters per page = 4.
	clusterPoolMax = 16

	// spareMax bounds the Mbuf-struct recycle list; mbufArenaCap covers
	// the steady in-flight mbuf population of a saturated receive run.
	spareMax     = 64
	mbufArenaCap = 96
)

// NewMbufPool builds the pool on an allocator.
func NewMbufPool(a *Allocator) *MbufPool {
	return &MbufPool{
		k:        a.k,
		a:        a,
		freeBlks: make([]*Block, 0, freeListMax),
		spare:    make([]*Mbuf, 0, spareMax),
	}
}

// SetMGetInline installs the inline trigger address for the MGET macro.
func (p *MbufPool) SetMGetInline(addr uint32) { p.mgetInline = addr }

// SetFreeListDepth rebounds the plain-mbuf free list; n <= 0 restores
// the Net/2 default. Applying a deeper pool is a proposed kernel change
// the optimize-verify loop can re-profile.
func (p *MbufPool) SetFreeListDepth(n int) { p.freeListDepth = n }

// freeListBound reports the active free-list bound.
func (p *MbufPool) freeListBound() int {
	if p.freeListDepth > 0 {
		return p.freeListDepth
	}
	return freeListMax
}

// SetFrameRecycler installs f as the destination for Frame buffers carried
// by freed mbufs (the netstack's frame pool).
func (p *MbufPool) SetFrameRecycler(f func([]byte)) { p.frameRecycler = f }

// MGet allocates a plain mbuf: the MGET macro — inline trigger, the splimp
// dance (modeled as splnet), free-list pop or malloc fallback.
func (p *MbufPool) MGet() *Mbuf {
	p.MGets++
	p.k.Inline(p.mgetInline)
	s := p.k.SplNet()
	p.k.Advance(costMGet)
	var blk *Block
	if n := len(p.freeBlks); n > 0 {
		blk = p.freeBlks[n-1]
		p.freeBlks = p.freeBlks[:n-1]
	} else {
		p.PoolMallocs++
		blk = p.a.Malloc(MSize)
	}
	p.k.SplX(s)
	if n := len(p.spare); n > 0 {
		m := p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
		*m = Mbuf{Region: bus.MainMemory, blk: blk}
		return m
	}
	if p.arena == nil {
		p.arena = make([]Mbuf, 0, mbufArenaCap)
	}
	if len(p.arena) < cap(p.arena) {
		p.arena = append(p.arena, Mbuf{Region: bus.MainMemory, blk: blk})
		return &p.arena[len(p.arena)-1]
	}
	return &Mbuf{Region: bus.MainMemory, blk: blk}
}

// MGetCluster allocates an mbuf with a 1 KiB cluster attached, drawn from
// the dedicated cluster page pool.
func (p *MbufPool) MGetCluster() *Mbuf {
	m := p.MGet()
	p.ClusterGets++
	p.k.Advance(costClustGet)
	if p.freeCluster == 0 {
		// Wire a fresh page into mb_map: four clusters.
		p.a.KmemAlloc(1)
		p.freeCluster = PageSize / MCLBytes
	}
	p.freeCluster--
	m.Cluster = true
	return m
}

// MGetExternal allocates an mbuf header whose data lives in device memory —
// the paper's proposed driver optimisation of linking controller buffers
// directly into the chain instead of copying.
func (p *MbufPool) MGetExternal(region bus.Region, length int) *Mbuf {
	m := p.MGet()
	m.Region = region
	m.Len = length
	m.Cluster = true
	return m
}

// MFree releases one mbuf (not its chain): push the free list or, past the
// watermark, really free.
func (p *MbufPool) MFree(m *Mbuf) {
	if m == nil {
		panic("mem: MFree(nil)")
	}
	p.MFrees++
	s := p.k.SplNet()
	p.k.Advance(costMFree)
	if m.Cluster && m.Region == bus.MainMemory {
		p.freeCluster++
		if p.freeCluster > clusterPoolMax {
			p.a.KmemFree(1)
			p.freeCluster -= PageSize / MCLBytes
		}
	}
	if m.blk != nil {
		if len(p.freeBlks) < p.freeListBound() {
			p.freeBlks = append(p.freeBlks, m.blk)
		} else {
			p.PoolFrees++
			p.a.Free(m.blk)
		}
		m.blk = nil
	}
	if m.Frame != nil {
		if p.frameRecycler != nil {
			p.frameRecycler(m.Frame)
		}
		m.Frame = nil
	}
	if m.Next == nil && len(p.spare) < spareMax {
		p.spare = append(p.spare, m)
	}
	p.k.SplX(s)
}

// MFreeChain releases a whole chain and reports how many mbufs it freed.
func (p *MbufPool) MFreeChain(m *Mbuf) int {
	n := 0
	for m != nil {
		next := m.Next
		m.Next = nil
		p.MFree(m)
		m = next
		n++
	}
	return n
}

// AppendChain links more onto the tail of head and returns the head (or
// more, when head is nil).
func AppendChain(head, more *Mbuf) *Mbuf {
	if head == nil {
		return more
	}
	m := head
	for m.Next != nil {
		m = m.Next
	}
	m.Next = more
	return head
}
