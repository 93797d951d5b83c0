package fs

// Cached reports whether a block is valid in the cache (for tests).
func (c *Cache) Cached(blkno int) bool {
	b, ok := c.bufs[blkno]
	return ok && b.valid
}
