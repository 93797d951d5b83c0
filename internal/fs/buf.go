package fs

import (
	"kprof/internal/kernel"
)

// The buffer cache: getblk/bread/bwrite/bawrite/brelse over the disk model,
// with a hash table and an LRU free list, as in vfs_bio.c. Reads that miss
// sleep on the buffer until wdintr's biodone wakes them; asynchronous
// writes (bawrite) return immediately, which is what lets the FFS write
// workload keep the CPU only ≈28% busy while the disk streams.

// Buf is a cache buffer for one (device, blkno) block.
type Buf struct {
	Blkno int
	valid bool
	dirty bool
	busy  bool
	inIO  bool
}

// Cache is the buffer cache.
type Cache struct {
	k    *kernel.Kernel
	disk *Disk

	fnBread   *kernel.Fn
	fnBawrite *kernel.Fn
	fnBrelse  *kernel.Fn
	fnGetblk  *kernel.Fn
	fnBiowait *kernel.Fn

	bufs map[int]*Buf
	// capacity bounds the cache; a miss beyond it reclaims the oldest
	// clean buffer (LRU order tracked in lru).
	capacity int
	lru      []int

	// Statistics.
	Hits, Misses      uint64
	ReadIOs, WriteIOs uint64
}

// DefaultCacheBlocks is the default cache size in blocks (≈10% of 8 MB).
const DefaultCacheBlocks = 100

// NewCache builds the buffer cache over a disk.
func NewCache(k *kernel.Kernel, disk *Disk, capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheBlocks
	}
	fnBread := k.RegisterFn("vfs_bio", "bread")
	k.RegisterFn("vfs_bio", "bwrite") // no model path writes through; the tag numbering keeps it
	return &Cache{
		k:         k,
		disk:      disk,
		fnBread:   fnBread,
		fnBawrite: k.RegisterFn("vfs_bio", "bawrite"),
		fnBrelse:  k.RegisterFn("vfs_bio", "brelse"),
		fnGetblk:  k.RegisterFn("vfs_bio", "getblk"),
		fnBiowait: k.RegisterFn("vfs_bio", "biowait"),
		bufs:      make(map[int]*Buf),
		capacity:  capacity,
	}
}

// getblk finds or creates the buffer for blkno, reclaiming if needed.
func (c *Cache) getblk(blkno int) *Buf {
	var b *Buf
	c.k.Call(c.fnGetblk, func() {
		s := c.k.SplBio()
		defer c.k.SplX(s)
		if have, ok := c.bufs[blkno]; ok {
			c.k.Advance(costGetblkHit)
			b = have
			c.touch(blkno)
			return
		}
		c.k.Advance(costGetblkMiss)
		if len(c.bufs) >= c.capacity {
			c.reclaim()
		}
		b = &Buf{Blkno: blkno}
		c.bufs[blkno] = b
		c.lru = append(c.lru, blkno)
	})
	return b
}

// touch moves blkno to the MRU end.
func (c *Cache) touch(blkno int) {
	for i, bn := range c.lru {
		if bn == blkno {
			c.lru = append(append(c.lru[:i:i], c.lru[i+1:]...), blkno)
			return
		}
	}
}

// reclaim evicts the least recently used clean, idle buffer.
func (c *Cache) reclaim() {
	for i, bn := range c.lru {
		b := c.bufs[bn]
		if b != nil && !b.dirty && !b.busy && !b.inIO {
			delete(c.bufs, bn)
			c.lru = append(c.lru[:i:i], c.lru[i+1:]...)
			return
		}
	}
	// Everything dirty or busy: in the real kernel we would sleep on a
	// buffer; the workloads here never truly exhaust the cache, so just
	// let it grow by one.
}

// Bread returns the block, reading it from disk if not cached. Must run in
// process context when a miss is possible.
func (c *Cache) Bread(blkno int) *Buf {
	var b *Buf
	c.k.Call(c.fnBread, func() {
		b = c.getblk(blkno)
		if b.valid {
			c.Hits++
			return
		}
		c.Misses++
		c.ReadIOs++
		b.inIO = true
		c.disk.Submit(false, blkno/8, SectorsPerBlock, func() {
			b.inIO = false
			b.valid = true
			c.k.Wakeup(b)
		})
		c.biowait(b)
	})
	return b
}

// biowait sleeps until the buffer's I/O completes.
func (c *Cache) biowait(b *Buf) {
	c.k.Call(c.fnBiowait, func() {
		c.k.Advance(costBioWait)
		for b.inIO {
			c.k.Tsleep(b, "biowait", 0)
		}
	})
}

// Bawrite writes the block asynchronously (write-behind): the caller
// continues immediately; brelse happens at biodone.
func (c *Cache) Bawrite(b *Buf) {
	c.k.Call(c.fnBawrite, func() {
		c.WriteIOs++
		b.dirty = false
		b.valid = true
		b.inIO = true
		c.disk.Submit(true, b.Blkno/8, SectorsPerBlock, func() {
			b.inIO = false
			c.k.Wakeup(b)
		})
	})
}

// Brelse releases the buffer back to the cache.
func (c *Cache) Brelse(b *Buf) {
	c.k.Call(c.fnBrelse, func() {
		c.k.Advance(costBrelse)
		b.busy = false
	})
}

// Len reports the number of buffers in the cache.
func (c *Cache) Len() int { return len(c.bufs) }
