package fix

// HasTarget reports whether a fix for the given failure signature exists.
func (s *Set) HasTarget(signature string) bool {
	for _, f := range s.fixes {
		if f.TargetSignature == signature {
			return true
		}
	}
	return false
}
