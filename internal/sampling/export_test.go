package sampling

// IdleFraction reports the sampled idle share.
func (s *Sampler) IdleFraction() float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.hits["idle"]) / float64(s.total)
}
