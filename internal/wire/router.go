package wire

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fix"
	"repro/internal/guidance"
	"repro/internal/pod"
	"repro/internal/ring"
	"repro/internal/trace"
)

// Router is a pod.HiveClient over a sharded hive fleet: it learns the
// placement ring from any member's hello ack, routes every per-program
// frame — submission or read — to that program's owner, and keeps itself
// current from the two signals the protocol emits — MsgRedirect (the owner
// moved: adopt the newer map the redirect carries and ask again) and
// transport failure (the owner may be down: re-poll the seeds for a newer
// map). Every attempt count is bounded, so members that disagree on
// placement cost an error, never a wait. Sealed frames are resubmitted
// verbatim, so a frame that chases a program across a re-homing presents
// the same (session, seq) tag to every hive that sees it and is ingested
// exactly once.
//
// A Router against a single unsharded hive degenerates to that hive's
// Client: no placement is advertised, every program maps to the first
// seed, nothing is routed.
type Router struct {
	mu sync.Mutex
	// seeds are the bootstrap addresses (guarded by mu; refreshLocked
	// polls them for placement). Every fleet member works as a seed.
	seeds []string
	// clients caches one Client per hive address, created lazily
	// (guarded by mu). Clients created for redirect targets outside the
	// seed list land here too.
	clients map[string]*Client
	// placement is the newest ring this router has seen, from any seed's
	// hello or any redirect (guarded by mu). nil until a sharded member
	// advertises one; nil means "send everything to seeds[0]".
	placement *ring.Map

	// ForceCompress is copied onto every client this router creates. Set
	// before first use.
	ForceCompress bool
	// RetryBase and RetryCap are the busy-backoff knobs, copied onto every
	// client this router creates. Set before first use.
	RetryBase time.Duration
	RetryCap  time.Duration

	// rng is the router's own jitter stream, for fleet-level busy-round
	// pacing.
	rng atomic.Uint64
}

var _ pod.HiveClient = (*Router)(nil)
var _ pod.SealedStreamer = (*Router)(nil)

// maxRouteAttempts bounds how many placement generations one submission
// chases: first send, one redirect- or refresh-guided retry, one more for
// a map that moved again mid-flight. Past that the caller's frames stay
// parked (sealed frames lose nothing by waiting).
const maxRouteAttempts = 3

// routerBusyRounds bounds the extra paced rounds a drain spends on owners
// that are alive but shedding (every per-owner error a BusyError) — those
// rounds deliberately do not consume routing attempts: the placement is
// correct, the fleet just wants the work later.
const routerBusyRounds = 4

// NewRouter creates a router bootstrapping from the given hive
// addresses. At least one seed is required; every fleet member works.
func NewRouter(seeds ...string) *Router {
	if len(seeds) == 0 {
		panic("wire: NewRouter needs at least one seed address")
	}
	return &Router{seeds: seeds, clients: make(map[string]*Client)}
}

// Close closes every cached client connection.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var firstErr error
	for _, c := range r.clients {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	r.clients = make(map[string]*Client)
	return firstErr
}

// clientLocked returns the cached client for addr, creating it with the
// router's transport knobs on first use.
func (r *Router) clientLocked(addr string) *Client {
	if c, ok := r.clients[addr]; ok {
		return c
	}
	c := Dial(addr)
	c.ForceCompress = r.ForceCompress
	c.RetryBase = r.RetryBase
	c.RetryCap = r.RetryCap
	r.clients[addr] = c
	return c
}

// adoptLocked installs m if it is newer than what the router holds.
func (r *Router) adoptLocked(m *ring.Map) {
	if m == nil {
		return
	}
	if r.placement == nil || m.Version() > r.placement.Version() {
		r.placement = m
	}
}

// refreshLocked polls every seed for its advertised placement and keeps
// the newest. force re-runs the hello exchange on each seed (a transport
// error suggested the cached map predates a membership change); without
// force a map already held is kept and only seeds never greeted are
// asked. Seeds that are down are skipped — any one live member suffices.
func (r *Router) refreshLocked(force bool) {
	if r.placement != nil && !force {
		return
	}
	for _, addr := range r.seeds {
		c := r.clientLocked(addr)
		var m *ring.Map
		if force {
			m = c.RefreshPlacement()
		} else {
			m = c.PlacementMap()
		}
		r.adoptLocked(m)
	}
}

// ownerLocked resolves the hive address owning programID under the
// current placement; with no placement (unsharded fleet, or no seed
// reachable yet) everything routes to the first seed.
func (r *Router) ownerLocked(programID string) string {
	r.refreshLocked(false)
	if r.placement == nil {
		return r.seeds[0]
	}
	owner := r.placement.Owner(programID)
	if owner == "" {
		return r.seeds[0]
	}
	return owner
}

// noteRoutingError digests a per-owner submission failure: a redirect
// teaches the newer map it carries; a busy reply is NOT a routing signal
// — the owner is alive and correctly placed, merely shedding, so
// re-polling every seed would turn one overloaded hive into a
// fleet-wide hello storm; anything else (the owner may be down) forces a
// seed re-poll so the next attempt runs on the freshest placement any
// surviving member advertises.
func (r *Router) noteRoutingError(err error) {
	var re *RedirectError
	if errors.As(err, &re) {
		r.mu.Lock()
		r.adoptLocked(placementFromPayload(re.Placement))
		r.mu.Unlock()
		return
	}
	var be *BusyError
	if errors.As(err, &be) {
		return
	}
	r.mu.Lock()
	r.refreshLocked(true)
	r.mu.Unlock()
}

// SubmitSealed implements pod.SealedStreamer across the fleet: sealed
// frames are grouped by owner under the current placement, each group
// streams to its owner, and frames whose owner moved (redirect) or died
// (transport error) are regrouped under the refreshed placement and
// resubmitted verbatim — their (session, seq) tags are already fixed, so
// however many hives see a frame, exactly one application happens and
// every later delivery is acknowledged as a duplicate.
//
// Like Client.SubmitSealed it consumes every frame the fleet acknowledged:
// the payload goes back to the free list of the member client that got the
// ack, and the caller's Payload is set to nil.
func (r *Router) SubmitSealed(sealed []pod.SealedBatch) ([]bool, error) {
	accepted := make([]bool, len(sealed))
	if err := checkSealed(sealed); err != nil {
		return accepted, err
	}
	if len(sealed) == 0 {
		return accepted, nil
	}
	var lastErr error
	busyRounds := 0
	for attempt := 0; attempt < maxRouteAttempts; {
		r.mu.Lock()
		groups := make(map[string][]int)
		for i := range sealed {
			if !accepted[i] {
				owner := r.ownerLocked(sealed[i].ProgramID)
				groups[owner] = append(groups[owner], i)
			}
		}
		clients := make(map[string]*Client, len(groups))
		for owner := range groups {
			clients[owner] = r.clientLocked(owner)
		}
		r.mu.Unlock()
		if len(groups) == 0 {
			return accepted, nil
		}
		owners := make([]string, 0, len(groups))
		for owner := range groups {
			owners = append(owners, owner)
		}
		sort.Strings(owners)
		// Owners stream concurrently: each group fills its own hive's
		// uplink, which is exactly where fleet scaling comes from — the
		// drain finishes when the slowest owner's share does, not when the
		// sum of all shares has crossed one link. Each goroutine touches
		// only its group's disjoint accepted and sealed indexes; the member
		// client has already recycled what it acknowledged.
		lastErr = nil
		errs := make([]error, len(owners))
		var wg sync.WaitGroup
		for oi, owner := range owners {
			idx := groups[owner]
			sub := make([]pod.SealedBatch, len(idx))
			for j, i := range idx {
				sub[j] = sealed[i]
			}
			wg.Add(1)
			go func(oi int, c *Client, idx []int, sub []pod.SealedBatch) {
				defer wg.Done()
				got, err := c.SubmitSealed(sub)
				for j, ok := range got {
					if ok {
						accepted[idx[j]] = true
						sealed[idx[j]].Payload = nil
					}
				}
				errs[oi] = err
			}(oi, clients[owner], idx, sub)
		}
		wg.Wait()
		anyErr, busyOnly := false, true
		var busyHint time.Duration
		for _, err := range errs {
			if err == nil {
				continue
			}
			anyErr = true
			lastErr = err
			r.noteRoutingError(err)
			var be *BusyError
			if errors.As(err, &be) {
				if be.RetryAfter > busyHint {
					busyHint = be.RetryAfter
				}
			} else {
				busyOnly = false
			}
		}
		if !anyErr {
			done := true
			for i := range accepted {
				if !accepted[i] {
					done = false
					break
				}
			}
			if done {
				return accepted, nil
			}
			lastErr = fmt.Errorf("wire: fleet accepted only part of the drain")
			attempt++
			continue
		}
		if busyOnly && busyRounds < routerBusyRounds {
			// Every failing owner is alive but shedding: pace the next round
			// (jittered, floored at the largest hint any owner sent) without
			// burning a routing attempt — the placement is already right.
			busyRounds++
			time.Sleep(backoffDelay(r.RetryBase, r.RetryCap, busyRounds-1, busyHint, jitter(&r.rng)))
			continue
		}
		attempt++
	}
	return accepted, lastErr
}

// SealTraceBatches implements pod.SealedStreamer: frames are sealed by
// the current owner's client (the seal fixes the (session, seq) tag and
// the encoding; both stay valid on any hive the frame later reaches).
func (r *Router) SealTraceBatches(programID string, batches [][]*trace.Trace) []pod.SealedBatch {
	r.mu.Lock()
	c := r.clientLocked(r.ownerLocked(programID))
	r.mu.Unlock()
	return c.SealTraceBatches(programID, batches)
}

// SubmitTraces implements pod.HiveClient: the batch is grouped by program,
// each group sealed by its owner's client, and the frames drain through the
// routed sealed path, chasing redirects like any other drain.
func (r *Router) SubmitTraces(traces []*trace.Trace) error {
	return submitGrouped(r, traces)
}

// FixesSince implements pod.HiveClient, asking the program's owner. A
// redirect teaches the newer map, a transport failure refreshes placement,
// and either way the ask is retried once: after a re-homing the new owner
// answers from the migrated fix history. If the second hive redirects too
// (the members disagree on placement) that redirect is the error.
func (r *Router) FixesSince(programID string, version int) ([]fix.Fix, int, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		r.mu.Lock()
		c := r.clientLocked(r.ownerLocked(programID))
		r.mu.Unlock()
		fixes, v, err := c.FixesSince(programID, version)
		if err == nil {
			return fixes, v, nil
		}
		lastErr = err
		r.noteRoutingError(err)
	}
	return nil, version, lastErr
}

// Guidance implements pod.HiveClient with the same owner-first, retry-once
// policy as FixesSince.
func (r *Router) Guidance(programID string, max int) ([]guidance.TestCase, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		r.mu.Lock()
		c := r.clientLocked(r.ownerLocked(programID))
		r.mu.Unlock()
		cases, err := c.Guidance(programID, max)
		if err == nil {
			return cases, nil
		}
		lastErr = err
		r.noteRoutingError(err)
	}
	return nil, lastErr
}
