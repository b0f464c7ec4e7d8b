package sched

// Explored returns how many schedules have been issued.
func (e *Enumerator) Explored() int { return e.explored }
