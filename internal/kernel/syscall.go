package kernel

import "kprof/internal/sim"

// Syscall runs body as a system call made by the current process: the trap
// and dispatch overhead on the way in, the body (kernel work), and the
// return path, which is also the kernel's voluntary reschedule point — if
// hardclock has requested a round-robin switch, it happens here, as on the
// real system where the AST check on return to user mode triggers swtch.
func (k *Kernel) Syscall(p *Proc, body func()) {
	if p == nil || k.curproc != p {
		panic("kernel: Syscall from a process that does not own the CPU")
	}
	k.Stats.Syscalls++
	k.Enter(k.fnSyscall)
	k.Advance(costSyscallEntry)
	body()
	k.Advance(costSyscallExit)
	k.Exit(k.fnSyscall)
	if k.needResch && len(k.runq) > 0 {
		p.Yield()
	}
}

// Copyin models copying n bytes from user space into the kernel.
func (k *Kernel) Copyin(n int) { k.CallCost(k.fnCopyin, CopyCost(n)) }

// Copyout models copying n bytes from the kernel to user space. The paper
// measures ≈40 µs for a 1 KiB mbuf cluster.
func (k *Kernel) Copyout(n int) { k.CallCost(k.fnCopyout, CopyCost(n)) }

// Copyinstr models copying a NUL-terminated string (a path name) from user
// space, with the per-byte fault checking that makes it so much slower than
// a block copy — Table 1 reports ≈170 µs for a typical path.
func (k *Kernel) Copyinstr(n int) {
	k.CallCost(k.fnCopyinstr, costCopyinstrBase+sim.Time(n)*costCopyinstrPB)
}
