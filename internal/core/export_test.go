package core

import (
	"repro/internal/baseline/cbi"
	"repro/internal/baseline/wer"
)

// WER exposes the crash collector (WER mode).
func (s *Simulation) WER() *wer.Collector { return s.wer }

// CBI exposes the predicate aggregator (CBI mode).
func (s *Simulation) CBI() *cbi.Aggregator { return s.cbi }
