package core

import (
	"strings"
	"testing"

	"kprof/internal/analyze"
	"kprof/internal/kernel"
	"kprof/internal/sim"
)

func newUserSession(t *testing.T) (*Machine, *Session, *UserProgram) {
	t.Helper()
	m := NewMachine(kernel.Config{Seed: 9})
	s, err := NewSession(m, ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return m, s, s.MapUser("app")
}

func TestUserFunctionsShareTagSpace(t *testing.T) {
	_, s, u := newUserSession(t)
	f, err := u.Register("app_main")
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.Tags.Lookup("app_main")
	if !ok {
		t.Fatal("user function not in the shared tag file")
	}
	if e.Tag%2 != 0 {
		t.Fatalf("odd user tag %d", e.Tag)
	}
	if f.entryAddr != UserBase+uint32(e.Tag) {
		t.Fatalf("entry addr = %#x", f.entryAddr)
	}
	if _, err := u.Register("app_main"); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestUserTriggersReachCard(t *testing.T) {
	m, s, u := newUserSession(t)
	f := u.MustRegister("compute")
	s.Arm()
	m.K.Spawn("app", func(p *kernel.Proc) {
		u.Call(f, func() { m.K.Advance(500 * sim.Microsecond) })
	})
	m.K.Run(20 * sim.Millisecond)
	s.Disarm()
	a := s.Analyze()
	st, ok := a.Fn("compute")
	if !ok {
		t.Fatal("user function missing from analysis")
	}
	if st.Calls != 1 {
		t.Fatalf("calls = %d", st.Calls)
	}
	if st.Net < 480*sim.Microsecond || st.Net > 620*sim.Microsecond {
		t.Fatalf("net = %v, want ≈500 µs", st.Net)
	}
}

// The paper's promise: one capture traces from user code down through the
// kernel — syscalls nest inside user frames.
func TestMixedUserKernelTrace(t *testing.T) {
	m, s, u := newUserSession(t)
	fMain := u.MustRegister("app_main")
	fWork := u.MustRegister("app_work")
	s.Arm()
	m.K.Spawn("app", func(p *kernel.Proc) {
		u.Call(fMain, func() {
			u.Call(fWork, func() {
				m.K.Advance(100 * sim.Microsecond)
				m.K.Syscall(p, func() {
					blk := m.Alloc.Malloc(256)
					m.Alloc.Free(blk)
				})
			})
		})
	})
	m.K.Run(50 * sim.Millisecond)
	s.Disarm()
	a := s.Analyze()

	// The kernel's malloc is a descendant of the user frame: app_main's
	// inclusive time covers the syscall.
	main, _ := a.Fn("app_main")
	mallocStat, ok := a.Fn("malloc")
	if !ok {
		t.Fatal("kernel function missing")
	}
	if main.Elapsed < mallocStat.Elapsed {
		t.Fatalf("user frame (%v) does not cover the kernel work (%v)", main.Elapsed, mallocStat.Elapsed)
	}
	trace := a.TraceString(analyze.TraceOptions{})
	iMain := strings.Index(trace, "-> app_main")
	iSys := strings.Index(trace, "-> syscall")
	iMalloc := strings.Index(trace, "-> malloc")
	if iMain < 0 || iSys < iMain || iMalloc < iSys {
		t.Fatalf("trace does not nest user->syscall->malloc:\n%s", trace)
	}
}

// Profiling several user processes at the same time, as the paper
// describes for IPC analysis.
func TestTwoUserProgramsConcurrently(t *testing.T) {
	m, s, _ := newUserSession(t)
	u1 := s.MapUser("producer")
	u2 := s.MapUser("consumer")
	f1 := u1.MustRegister("produce")
	f2 := u2.MustRegister("consume")
	var ident int
	s.Arm()
	m.K.Spawn("producer", func(p *kernel.Proc) {
		for i := 0; i < 3; i++ {
			u1.Call(f1, func() { m.K.Advance(50 * sim.Microsecond) })
			m.K.Wakeup(&ident)
			p.Yield()
		}
	})
	m.K.Spawn("consumer", func(p *kernel.Proc) {
		for i := 0; i < 3; i++ {
			m.K.Tsleep(&ident, "wait", 10)
			u2.Call(f2, func() { m.K.Advance(30 * sim.Microsecond) })
		}
	})
	m.K.Run(sim.Second)
	s.Disarm()
	a := s.Analyze()
	p1, ok1 := a.Fn("produce")
	p2, ok2 := a.Fn("consume")
	if !ok1 || !ok2 || p1.Calls != 3 || p2.Calls != 3 {
		t.Fatalf("produce=%+v consume=%+v", p1, p2)
	}
}
