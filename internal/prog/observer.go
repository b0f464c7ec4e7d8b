package prog

// MultiObserver fans execution by-products out to several observers, e.g. a
// trace collector plus a deadlock-immunity gate.
type MultiObserver []Observer

var _ Observer = (MultiObserver)(nil)

// Branch implements Observer.
func (m MultiObserver) Branch(tid, branchID int, taken bool) {
	for _, o := range m {
		o.Branch(tid, branchID, taken)
	}
}

// LockAcquire implements Observer.
func (m MultiObserver) LockAcquire(tid, lockID, pc int) {
	for _, o := range m {
		o.LockAcquire(tid, lockID, pc)
	}
}

// LockRelease implements Observer.
func (m MultiObserver) LockRelease(tid, lockID, pc int) {
	for _, o := range m {
		o.LockRelease(tid, lockID, pc)
	}
}

// Syscall implements Observer.
func (m MultiObserver) Syscall(tid int, sysno, arg, ret int64) {
	for _, o := range m {
		o.Syscall(tid, sysno, arg, ret)
	}
}

// Schedule implements Observer.
func (m MultiObserver) Schedule(tid int) {
	for _, o := range m {
		o.Schedule(tid)
	}
}
