package core

import (
	"fmt"

	"kprof/internal/sim"
)

// User-level profiling, per the paper's User Code Profiling section: "A
// driver stub may be configured in the kernel that reserves the Profiler's
// physical memory address space; a modified profiling crt.o initialises the
// process for profiling by opening the driver and calling mmap to memory
// map the Profiler's address space into a fixed location within the
// process address space."
//
// Kernel and user profiling coexist on one card: user functions draw tags
// from the same name/tag file (or a concatenated one), so the analysis
// resolves a mixed capture uniformly and traces cross the user/kernel
// boundary — the paper's protocol-stack debugging scenario.

// UserBase is the fixed user virtual address the profiling crt.o maps the
// Profiler window at.
const UserBase = 0x2000_0000

// UserFn is an instrumented user-level function.
type UserFn struct {
	Name      string
	entryAddr uint32
	exitAddr  uint32
	Calls     uint64
}

// UserProgram is one profiled user process image: a trigger mapping plus
// its registered functions.
type UserProgram struct {
	s    *Session
	Name string
	fns  map[string]*UserFn
}

// MapUser models the open("/dev/prof") + mmap sequence: it returns a
// program whose trigger loads reach the card through the user mapping.
// Function tags extend the session's tag file.
func (s *Session) MapUser(name string) *UserProgram {
	return &UserProgram{s: s, Name: name, fns: make(map[string]*UserFn)}
}

// Register instruments a user function, assigning its tag pair from the
// shared name/tag file.
func (u *UserProgram) Register(fnName string) (*UserFn, error) {
	if _, dup := u.fns[fnName]; dup {
		return nil, fmt.Errorf("core: user function %q registered twice", fnName)
	}
	e, err := u.s.Tags.Assign(fnName)
	if err != nil {
		return nil, err
	}
	f := &UserFn{
		Name:      fnName,
		entryAddr: UserBase + uint32(e.Tag),
		exitAddr:  UserBase + uint32(e.ExitTag()),
	}
	u.fns[fnName] = f
	return f, nil
}

// MustRegister is Register for program setup code.
func (u *UserProgram) MustRegister(fnName string) *UserFn {
	f, err := u.Register(fnName)
	if err != nil {
		panic(err)
	}
	return f
}

// trigger performs the user-space load: the MMU routes the user virtual
// address to the card's physical window.
func (u *UserProgram) trigger(va uint32) {
	u.s.M.K.Advance(userTrigCost)
	u.s.Socket.Read(va - UserBase + u.s.Socket.Base())
}

const userTrigCost = 200 * sim.Nanosecond // the same single-instruction load

// Call executes body as user function f, firing entry and exit triggers
// exactly as the kernel's instrumented functions do. body runs in process
// context and advances virtual time for its user-mode work; kernel entries
// (syscalls) made inside nest naturally in the capture.
func (u *UserProgram) Call(f *UserFn, body func()) {
	f.Calls++
	u.trigger(f.entryAddr)
	body()
	u.trigger(f.exitAddr)
}
