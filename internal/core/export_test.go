package core

// The glitched-drain capture, for the external core_test package: it
// imports the exporters, which import core, so its tests cannot live here.
var (
	RunGlitched = runGlitched
	GlitchAll   = glitchAll
)
