package mem

// ChainLen reports the total data length of the chain starting at m.
func (m *Mbuf) ChainLen() int {
	n := 0
	for ; m != nil; m = m.Next {
		n += m.Len
	}
	return n
}

// ChainCount reports the number of mbufs in the chain.
func (m *Mbuf) ChainCount() int {
	c := 0
	for ; m != nil; m = m.Next {
		c++
	}
	return c
}

// FreeListLen reports the plain free-list length (for tests).
func (p *MbufPool) FreeListLen() int { return len(p.freeBlks) }

// BucketFree reports the free count of the bucket serving size (for tests).
func (a *Allocator) BucketFree(size int) int {
	bi := bucketFor(size)
	if bi < 0 {
		return 0
	}
	return a.buckets[bi].free
}
