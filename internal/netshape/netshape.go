// Package netshape is an in-process TCP proxy that makes loopback behave
// like a real network: propagation delay (half the configured RTT in each
// direction, plus optional jitter), a serialization bandwidth cap, and
// loss modeled as head-of-line stalls.
//
// Every wire number before PR 7 was measured on loopback, where frame
// counts, pipelining depth, and payload bytes barely matter; the shaped
// proxy is where coalescing depth and compression ratio actually move
// throughput, and where the 50–200 ms / 0.1–1 % loss benches (E15) run.
//
// Loss deliberately does not drop bytes: the proxied protocol runs over
// TCP, so a lost segment never reaches the application — what the
// application observes is the retransmit stall. The shaper models exactly
// that: each MTU-sized chunk is independently "lost" with probability
// Loss, and a lost chunk adds LossPenalty (default one RTT, the
// fast-retransmit picture) to the link's serialization clock, stalling
// everything behind it — the head-of-line behavior that makes loss so
// expensive for pipelined streams.
package netshape

import (
	"net"
	"sync"
	"time"

	"repro/internal/stats"
)

// Config shapes one proxied link. Both directions are shaped
// independently with the same parameters (each gets RTT/2 of propagation
// delay).
type Config struct {
	// RTT is the round-trip propagation delay (0 = none).
	RTT time.Duration
	// Jitter adds a uniform [0, Jitter) extra delay per chunk (0 = none).
	Jitter time.Duration
	// Bandwidth caps each direction in bytes/second (0 = unlimited).
	Bandwidth int64
	// Loss is the per-chunk probability of a retransmit stall (0 = none).
	Loss float64
	// LossPenalty is the stall a lost chunk injects (default RTT; if both
	// are zero, loss has no effect).
	LossPenalty time.Duration
	// ChunkSize is the shaping granularity in bytes (default 1460, one
	// TCP segment's worth).
	ChunkSize int
	// Seed drives the jitter/loss randomness; runs with equal seeds shape
	// identically.
	Seed uint64
}

func (c Config) chunkSize() int {
	if c.ChunkSize <= 0 {
		return 1460
	}
	return c.ChunkSize
}

func (c Config) lossPenalty() time.Duration {
	if c.LossPenalty <= 0 {
		return c.RTT
	}
	return c.LossPenalty
}

// Proxy accepts connections and pipes each to the target through two
// shaped one-way links.
type Proxy struct {
	ln     net.Listener
	target string
	cfg    Config

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	nextID uint64
	closed bool
	wg     sync.WaitGroup
}

// New starts a proxy on an ephemeral loopback port, forwarding to target.
func New(target string, cfg Config) (*Proxy, error) {
	return NewAt(target, "127.0.0.1:0", cfg)
}

// NewAt is New on a caller-chosen listen address. Fleet benches need it:
// the placement ring hashes the proxy addresses, so stable ports give
// every run the same ownership split.
func NewAt(target, listen string, cfg Config) (*Proxy, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, cfg: cfg, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the shaped endpoint clients dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops the listener and tears down every proxied connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = client.Close()
			return
		}
		id := p.nextID
		p.nextID++
		p.conns[client] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.pipe(client, id)
	}
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) pipe(client net.Conn, id uint64) {
	defer p.wg.Done()
	defer p.untrack(client)
	cfg := p.cfg
	server, err := net.Dial("tcp", p.target)
	if err != nil {
		_ = client.Close()
		return
	}
	p.track(server)
	defer p.untrack(server)
	// Distinct deterministic streams per connection and direction.
	rng := stats.NewRNG(cfg.Seed ^ (id+1)*0x9e3779b97f4a7c15)
	var wg sync.WaitGroup
	wg.Add(2)
	go shape(&wg, server, client, cfg, rng.Split())
	go shape(&wg, client, server, cfg, rng.Split())
	wg.Wait()
	_ = client.Close()
	_ = server.Close()
}

// parcel is one shaped chunk in flight between the link's reader and its
// delivery goroutine.
type parcel struct {
	buf       *[]byte
	deliverAt time.Time
}

var chunkPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// shape copies src→dst through the shaped link: the reader paces itself at
// the serialization clock (bandwidth cap plus loss stalls — the model of a
// send buffer draining into a capped link), stamps each chunk with its
// arrival time (clock + propagation + jitter), and a delivery goroutine
// writes chunks out when their stamps come due. EOF half-closes dst so
// protocol shutdown sequences propagate.
func shape(wg *sync.WaitGroup, dst, src net.Conn, cfg Config, rng *stats.RNG) {
	defer wg.Done()
	chunk := cfg.chunkSize()
	penalty := cfg.lossPenalty()
	parcels := make(chan parcel, 256)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for pc := range parcels {
			wait(pc.deliverAt)
			_, err := dst.Write(*pc.buf)
			chunkPool.Put(pc.buf)
			if err != nil {
				// Deliveries still drain (recycling buffers); writes stop.
				for pc := range parcels {
					chunkPool.Put(pc.buf)
				}
				return
			}
		}
	}()
	var clock time.Time
	for {
		bp := chunkPool.Get().(*[]byte)
		buf := *bp
		if cap(buf) < chunk {
			buf = make([]byte, chunk)
		}
		buf = buf[:chunk]
		n, err := src.Read(buf)
		if n > 0 {
			*bp = buf[:n]
			now := time.Now()
			if clock.Before(now) {
				clock = now
			}
			if cfg.Bandwidth > 0 {
				clock = clock.Add(time.Duration(float64(n) / float64(cfg.Bandwidth) * float64(time.Second)))
			}
			if cfg.Loss > 0 && penalty > 0 && rng.Float64() < cfg.Loss {
				clock = clock.Add(penalty)
			}
			// Pace the reader at the link clock: a sender can only push as
			// fast as the link drains.
			wait(clock)
			at := clock.Add(cfg.RTT / 2)
			if cfg.Jitter > 0 {
				at = at.Add(time.Duration(rng.Int63n(int64(cfg.Jitter))))
			}
			parcels <- parcel{buf: bp, deliverAt: at}
		} else {
			*bp = buf
			chunkPool.Put(bp)
		}
		if err != nil {
			break
		}
	}
	close(parcels)
	<-done
	// Propagate EOF as a half-close where the transport supports it, so
	// request/response protocols see shutdown in the right order.
	if tc, ok := dst.(interface{ CloseWrite() error }); ok {
		_ = tc.CloseWrite()
	} else {
		_ = dst.Close()
	}
}

// wait sleeps until t (no-op if t has passed).
func wait(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
