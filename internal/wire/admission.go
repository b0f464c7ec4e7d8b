package wire

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memo"
)

// Admission configures the server-side overload protections (PR 9): all
// zero values (or a nil *Admission on the Server) disable every check, so
// the loopback fast path pays nothing. The layer says "not now", never
// "never": a declined frame is answered MsgBusy and is resubmitted by the
// client with its exactly-once tag intact.
type Admission struct {
	// SessionRate is the sustained admission rate per session in traces
	// per second (0 = unlimited). Frames are charged their batch size at
	// dispatch; a dry bucket answers MsgBusy.
	SessionRate float64
	// SessionBurst is the token-bucket capacity in traces (default
	// 4×SessionRate, min 256): short bursts ride through, sustained
	// overload is shaped to SessionRate.
	SessionBurst float64
	// ConnQueueBytes caps the frame-payload bytes one connection may have
	// queued between its reader and its worker (0 = unbounded). Past the
	// cap the reader stops reading that connection — per-connection
	// backpressure in addition to the frame-count queue depth.
	ConnQueueBytes int64
	// TotalQueueBytes is the server-wide queued-bytes budget the pressure
	// gauge is normalized against (0 = no gauge). It is the denominator of
	// the load-shedding watermark the backend reads via pod.PressureSink.
	TotalQueueBytes int64
	// MaxConns caps concurrently served connections; excess accepts are
	// closed immediately (0 = unlimited).
	MaxConns int64
	// MaxHalfOpen caps connections that have not yet completed one valid
	// frame — the slot a slow-loris or port-scanner occupies (0 =
	// unlimited).
	MaxHalfOpen int64
	// FrameTimeout bounds the wall time between a frame's first byte and
	// its last (0 = no deadline). Idle connections are legal — the clock
	// only starts once a frame begins — but a peer dribbling a started
	// frame slower than this is evicted: progress-based slow-loris
	// protection.
	FrameTimeout time.Duration
}

// defaultRetryAfter is the hint MsgBusy carries for batches the hive
// deferred or refused read-only, where no better estimate exists;
// rate-limit busy replies compute their own hint from the bucket deficit.
const defaultRetryAfter = 25 * time.Millisecond

// admissionBucketBudget bounds the per-session token-bucket table in
// charged bytes (memo.Memo: key + bucket + a fixed overhead, about 4096
// buckets under fleet-length session names): a hostile fleet minting
// sessions cannot grow it without bound, and a full table costs the coldest
// generation of buckets, never a scan for a victim.
const admissionBucketBudget = 512 << 10

// tokenBucket is one session's admission budget. Mutated under
// admissionState.mu.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// tokenBucketBytes is what one bucket is charged against the budget.
const tokenBucketBytes = 32

// admissionState is the runtime form of an Admission config. Counter
// atomics are exported through AdmissionStats; mu is a leaf lock (rank 50
// in the repolint lockdiscipline order) guarding only the bucket table.
type admissionState struct {
	cfg Admission

	mu      sync.Mutex
	buckets *memo.Memo[*tokenBucket]

	// queued is the server-wide frame-payload bytes sitting in per-conn
	// ingest queues; the pressure gauge is queued/TotalQueueBytes.
	queued   atomic.Int64
	conns    atomic.Int64
	halfOpen atomic.Int64

	busyReplies   atomic.Int64
	slowEvicted   atomic.Int64
	connsRejected atomic.Int64
}

// AdmissionStats is a point-in-time snapshot of the admission counters.
type AdmissionStats struct {
	// BusyReplies counts MsgBusy frames sent for overload: a dry session
	// bucket, or a batch the backend's load shedder deferred.
	BusyReplies int64
	// SlowLorisEvicted counts connections closed for dribbling a started
	// frame past FrameTimeout.
	SlowLorisEvicted int64
	// ConnsRejected counts accepts closed immediately at the MaxConns /
	// MaxHalfOpen caps.
	ConnsRejected int64
	// ReadOnlyBusy counts submissions refused because the backend flipped
	// read-only after persistent journal write failures. Maintained on the
	// Server itself and merged in by AdmissionStats, so it reports even
	// when admission control is not configured.
	ReadOnlyBusy int64
	// QueuedBytes is the current server-wide queued ingest payload.
	QueuedBytes int64
	// Pressure is QueuedBytes normalized by the TotalQueueBytes budget
	// (0 when no budget is configured).
	Pressure float64
}

func newAdmissionState(cfg Admission) *admissionState {
	if cfg.SessionRate > 0 && cfg.SessionBurst <= 0 {
		cfg.SessionBurst = 4 * cfg.SessionRate
		if cfg.SessionBurst < 256 {
			cfg.SessionBurst = 256
		}
	}
	return &admissionState{cfg: cfg, buckets: memo.New[*tokenBucket](admissionBucketBudget)}
}

// pressure is the gauge installed into a pod.PressureSink backend.
func (a *admissionState) pressure() float64 {
	if a.cfg.TotalQueueBytes <= 0 {
		return 0
	}
	return float64(a.queued.Load()) / float64(a.cfg.TotalQueueBytes)
}

// stats snapshots the counters.
func (a *admissionState) stats() AdmissionStats {
	return AdmissionStats{
		BusyReplies:      a.busyReplies.Load(),
		SlowLorisEvicted: a.slowEvicted.Load(),
		ConnsRejected:    a.connsRejected.Load(),
		QueuedBytes:      a.queued.Load(),
		Pressure:         a.pressure(),
	}
}

// debit charges n traces against key's token bucket at time now. A
// sufficiently full bucket is debited and admits immediately (wait 0,
// ok). A dry bucket declines: no debit, and the caller answers MsgBusy
// with the returned wait as the hint.
func (a *admissionState) debit(key string, n int, now time.Time) (wait time.Duration, ok bool) {
	if a.cfg.SessionRate <= 0 || n <= 0 {
		return 0, true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b, held := a.buckets.Get([]byte(key))
	if !held {
		// A session the table never held, or one it dropped: full either way.
		b = &tokenBucket{tokens: a.cfg.SessionBurst, last: now}
		a.buckets.Put([]byte(key), b, tokenBucketBytes)
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * a.cfg.SessionRate
		if b.tokens > a.cfg.SessionBurst {
			b.tokens = a.cfg.SessionBurst
		}
	}
	b.last = now
	need := float64(n)
	if b.tokens >= need {
		b.tokens -= need
		return 0, true
	}
	wait = time.Duration((need - b.tokens) / a.cfg.SessionRate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait, false
}

// backoffDelay computes one jittered exponential backoff step: base
// doubling per attempt, capped, floored at the server's retry-after hint,
// plus up to 50% proportional jitter (jitter in [0,1) supplied by the
// caller's deterministic source; 0 gives the pure schedule, which the
// backoff tests pin). Pure — all time values are inputs.
func backoffDelay(base, ceil time.Duration, attempt int, hint time.Duration, jitter float64) time.Duration {
	if base <= 0 {
		base = defaultRetryBase
	}
	if ceil <= 0 {
		ceil = defaultRetryCap
	}
	if attempt > 30 {
		attempt = 30
	}
	d := base << uint(attempt)
	if d <= 0 || d > ceil {
		d = ceil
	}
	if hint > d {
		d = hint
	}
	return d + time.Duration(jitter*float64(d)/2)
}

// jitter draws the next value in [0, 1) from the xorshift64 stream whose
// state is rng, for backoffDelay. Deliberately not math/rand: it needs no
// seeding policy and allocates nothing, and it is lock-free — any
// interleaving of concurrent draws is fine.
func jitter(rng *atomic.Uint64) float64 {
	for {
		old := rng.Load()
		x := old
		if x == 0 {
			x = 0x9e3779b97f4a7c15
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if rng.CompareAndSwap(old, x) {
			return float64(x>>11) / float64(1<<53)
		}
	}
}

// defaultRetryBase and defaultRetryCap bound the client backoff schedule
// when the client does not pin its own.
const (
	defaultRetryBase = 10 * time.Millisecond
	defaultRetryCap  = 2 * time.Second
)
