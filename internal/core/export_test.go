package core

// The glitched-drain capture, for the external core_test package: it
// imports the exporters, which import core, so its tests cannot live here.
var (
	RunGlitched = runGlitched
	GlitchAll   = glitchAll
)

// Detach unplugs the Profiler: trigger instructions remain (and still cost
// their 400 ns) but latch nothing — the configuration used to show that a
// profiled and unprofiled kernel behave indistinguishably.
func (s *Session) Detach() { s.M.K.SetTrigger(nil) }

// Reattach plugs the card back in.
func (s *Session) Reattach() {
	sock, linked := s.Socket, s.Linked
	s.M.K.SetTrigger(func(va uint32) { sock.Read(linked.VirtToPhys(va)) })
}
