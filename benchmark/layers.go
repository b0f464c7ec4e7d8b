package main

// layers.go turns what a traced run collected — spans, seam counters, direct
// timings and the replays of sut.go — into the per-layer metrics.

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// layerCounts are sizes read off the hive when traffic ended.
type layerCounts struct {
	live, frozen     int
	nodes, frontiers int64
}

// fsCounts is a reading of the countingFS counters.
type fsCounts struct{ writes, bytes, syncs int64 }

func (c fsCounts) minus(o fsCounts) fsCounts {
	return fsCounts{c.writes - o.writes, c.bytes - o.bytes, c.syncs - o.syncs}
}

func (rc *runCtx) layerMetrics(m *measurements, fx *fixture, tm *trafficMeasure, st *stateTimes, lr *layerReplays, lc layerCounts) {
	tr := rc.tr
	win := tm.win
	traces := float64(win.traces)

	// Server-side spans find their client-side parents.
	byWorker := func(s *span) int32 { return s.worker }
	byProg := func(s *span) int32 { return s.prog }
	tr.adopt(spanHiveSubmit, spanWireSubmit, byWorker)
	tr.adopt(spanHiveGuidance, spanWireGuidance, byProg)
	tr.adopt(spanHiveFixes, spanWireFixes, byProg)
	tr.adopt(spanFSWrite, spanHiveSubmit, byProg)
	tr.adopt(spanFSSync, spanHiveSubmit, byProg)

	ack := sortedCopy(win.ackMS)
	gd := sortedCopy(win.guidanceMS)
	m.set("ack_p99_ms", tail(ack, 99), len(ack))
	m.set("guidance_p99_ms", tail(gd, 99), len(gd))
	m.set("rehome_s", median(st.rehome), len(st.rehome))
	m.set("archive_sync_s", median(st.sync), len(st.sync))
	m.set("cold_standby_s", median(st.cold), len(st.cold))

	// pod
	m.set("pod.run_us", ratio(float64(win.runNS)/1e3, float64(win.runs)), int(win.runs))
	var sealNS, sealTraces, sealFrames, seals int64
	tr.each(spanSeal, func(s *span) {
		sealNS += s.dur()
		sealTraces += int64(s.traces)
		sealFrames += int64(s.frames)
		seals++
	})
	m.set("pod.seal_ns_per_trace", ratio(float64(sealNS), float64(sealTraces)), int(seals))
	m.set("pod.frames_per_drain", ratio(float64(sealFrames), float64(seals)), int(seals))
	covered, total, drains := tr.cover(spanDrain, spanSeal, spanWireSubmit)
	m.set("pod.drain_cover_ratio", ratio(float64(covered), float64(total)), drains)

	// trace
	var payload, sealed, unaccepted int64
	for _, tc := range tm.timed {
		payload += tc.payloadBytes
		sealed += tc.sealedTraces
		unaccepted += tc.unaccepted
	}
	m.set("trace.frame_b_per_trace", ratio(float64(payload), float64(sealed)), 1)
	m.set("trace.encode_ns_per_trace", lr.encodeNS, lr.traces)
	m.set("trace.decode_ns_per_trace", lr.decodeNS, lr.traces)
	m.set("trace.compress_ratio", lr.compressRatio, lr.traces)
	m.set("trace.compress_ns_per_trace", lr.compressNS, lr.traces)

	// wire
	var submitNS, submitFrames, submits int64
	tr.each(spanWireSubmit, func(s *span) {
		submitNS += s.dur()
		submitFrames += int64(s.frames)
		submits++
	})
	hiveCover, _, _ := tr.cover(spanWireSubmit, spanHiveSubmit)
	m.set("wire.submit_us_per_frame", ratio(float64(submitNS)/1e3, float64(submitFrames)), int(submits))
	m.set("wire.self_us_per_frame", ratio(float64(submitNS-hiveCover)/1e3, float64(submitFrames)), int(submits))
	m.set("wire.b_per_trace", ratio(float64(tm.relayBytes), traces), 1)
	m.set("wire.hello_us", mean(win.helloUS), len(win.helloUS))
	readCover, readTotal, reads := tr.cover(spanWireGuidance, spanHiveGuidance)
	m.set("wire.read_rtt_us", ratio(float64(readTotal-readCover)/1e3, float64(reads)), reads)
	m.set("wire.unaccepted_frames", float64(unaccepted), 1)

	// hive
	var hiveNS, hiveTraces, hiveFrames int64
	tr.each(spanHiveSubmit, func(s *span) {
		hiveNS += s.dur()
		hiveTraces += int64(s.traces)
		hiveFrames++
	})
	submitPerTrace := ratio(float64(hiveNS), float64(hiveTraces))
	m.set("hive.submit_ns_per_trace", submitPerTrace, int(hiveFrames))
	m.set("hive.submit_us_per_frame", ratio(float64(hiveNS)/1e3, float64(hiveFrames)), int(hiveFrames))
	m.set("hive.self_ns_per_trace",
		submitPerTrace-lr.appendUS*1e3/float64(lr.frameTraces)-lr.remergeNS-lr.reconstructNS*lr.externalShare, int(hiveFrames))
	spanMeanUS := func(name spanName) (float64, int) {
		var ns, n int64
		tr.each(name, func(s *span) { ns += s.dur(); n++ })
		return ratio(float64(ns)/1e3, float64(n)), int(n)
	}
	us, n := spanMeanUS(spanHiveGuidance)
	m.set("hive.guidance_us", us, n)
	us, n = spanMeanUS(spanHiveFixes)
	m.set("hive.fixes_us", us, n)
	ck := sortedCopy(tm.ckptMS)
	m.set("hive.checkpoint_ms_p50", percentile(ck, 50), len(ck))
	m.set("hive.checkpoint_ms_max", percentile(ck, 100), len(ck))
	var held int64
	if fx.grown != nil && rc.sp.stateFirst {
		held = fx.grown.traces
	} else {
		held = tm.ackedEver
		if fx.grown != nil {
			held += fx.grown.traces
		}
	}
	m.set("hive.replay_traces_per_s", ratio(float64(held), median(st.recover)), len(st.recover))
	m.set("hive.export_ms_per_program", mean(st.exportMS), len(st.exportMS))
	m.set("hive.import_ms_per_program", mean(st.importMS), len(st.importMS))
	m.set("hive.sessions_live", float64(lc.live), 1)
	m.set("hive.sessions_frozen", float64(lc.frozen), 1)

	// exectree, guidance
	m.set("exectree.merge_ns_per_trace", lr.mergeNS, lr.traces)
	m.set("exectree.remerge_ns_per_trace", lr.remergeNS, lr.traces)
	m.set("exectree.new_path_ratio", lr.newPathRatio, lr.traces)
	m.set("exectree.reconstruct_ns_per_trace", lr.reconstructNS, lr.reconstructed)
	m.set("exectree.frontiers_us", lr.frontiersUS, lr.reads)
	m.set("exectree.nodes_end", float64(lc.nodes), 1)
	m.set("exectree.frontiers_end", float64(lc.frontiers), 1)
	m.set("exectree.encode_ms", lr.encodeTreeMS, len(fx.corpus))
	m.set("exectree.decode_chain_ms", lr.decodeChainMS, len(fx.corpus))
	m.set("guidance.generate_us", lr.generateUS, lr.reads)
	m.set("guidance.yield", ratio(float64(win.returned), float64(win.asked)), int(win.asked))

	// journal
	fsd := tm.fs
	m.set("journal.append_us_per_batch", lr.appendUS, lr.appends)
	m.set("journal.fs_write_b_per_trace", ratio(float64(fsd.bytes), traces), 1)
	m.set("journal.fs_writes_per_ktrace", ratio(float64(fsd.writes)*1e3, traces), 1)
	m.set("journal.fsyncs_per_ktrace", ratio(float64(fsd.syncs)*1e3, traces), 1)
	m.set("journal.records_per_fsync", ratio(float64(win.frames), float64(fsd.syncs)), 1)
	var syncMS []float64
	var busyNS int64
	tr.each(spanFSSync, func(s *span) { syncMS = append(syncMS, float64(s.dur())/1e6); busyNS += s.dur() })
	tr.each(spanFSWrite, func(s *span) { busyNS += s.dur() })
	syncMS = sortedCopy(syncMS)
	m.set("journal.fsync_ms_p50", percentile(syncMS, 50), len(syncMS))
	m.set("journal.fsync_ms_p99", tail(syncMS, 99), len(syncMS))
	m.set("journal.fs_busy_share", ratio(float64(busyNS), float64(tm.wall.Nanoseconds())), 1)
	m.set("journal.disk_mib_end", tm.peakMiB, 1)
	m.set("journal.load_chain_ms", lr.loadChainMS, len(fx.corpus))

	// archive
	cycles := float64(st.cycles)
	m.set("archive.put_b_per_state_b", ratio(float64(st.putBytes), float64(st.stateBytes)), int(st.cycles))
	m.set("archive.puts", ratio(float64(st.puts), cycles), int(st.cycles))
	m.set("archive.gets", ratio(float64(st.gets), cycles), int(st.cycles))
	m.set("archive.lists", ratio(float64(st.lists), cycles), int(st.cycles))
	m.set("archive.resync_s", median(st.resync), len(st.resync))
	m.set("archive.materialize_s", median(st.materialize), len(st.materialize))

	// process
	m.set("proc.heap_peak_mib", tm.proc.heapPeakMiB, tm.proc.samples)
	m.set("proc.gc_cycles", float64(tm.proc.gcCycles), 1)
	m.set("proc.gc_pause_total_ms", tm.proc.gcPauseMS, 1)
	// Overhead of tracing: lost throughput where traffic is the workload,
	// added recovery time where cycling over state is.
	overhead := 0.0
	if rc.sp.stateFirst {
		if ref := median(st.untracedRecover); ref > 0 {
			overhead = (median(st.recover) - ref) / ref * 100
		}
	} else if tm.refTracesPerS > 0 {
		overhead = (tm.refTracesPerS - ratio(traces, tm.wall.Seconds())) / tm.refTracesPerS * 100
	}
	m.set("proc.trace_overhead_pct", overhead, 1)
	if d := tr.dropped.Load(); d > 0 {
		rc.logf("span buffer full: %d spans dropped", d)
	}
}

// checkCover holds the span tree to what README.md says of it: on the two
// workloads whose drains are all client work, seal and submit account for
// the drain.
func (rc *runCtx) checkCover() error {
	if rc.sp.name != "ingest_bulk" && rc.sp.name != "pod_loop" {
		return nil
	}
	covered, total, drains := rc.tr.cover(spanDrain, spanSeal, spanWireSubmit)
	if drains >= 100 && ratio(float64(covered), float64(total)) < 0.95 {
		return fmt.Errorf("pod.seal and wire.submit cover %.1f%% of pod.drain, want at least 95%%", 100*ratio(float64(covered), float64(total)))
	}
	return nil
}

// procSample is what the process sampler saw over the traced window.
type procSample struct {
	heapPeakMiB float64
	gcCycles    uint32
	gcPauseMS   float64
	samples     int
}

// procSampler reads runtime.MemStats every 100 ms. ReadMemStats stops the
// world for a moment, which is why only the traced run samples.
type procSampler struct {
	stopc chan struct{}
	done  chan procSample
}

func startProcSampler() *procSampler {
	s := &procSampler{stopc: make(chan struct{}), done: make(chan procSample, 1)}
	go func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		gc0, pause0 := ms.NumGC, ms.PauseTotalNs
		out := procSample{}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
			case <-s.stopc:
				runtime.ReadMemStats(&ms)
				out.gcCycles = ms.NumGC - gc0
				out.gcPauseMS = float64(ms.PauseTotalNs-pause0) / 1e6
				s.done <- out
				return
			}
			runtime.ReadMemStats(&ms)
			if mib := float64(ms.HeapAlloc) / (1 << 20); mib > out.heapPeakMiB {
				out.heapPeakMiB = mib
			}
			out.samples++
		}
	}()
	return s
}

func (s *procSampler) stop() procSample {
	close(s.stopc)
	return <-s.done
}

// relay is a loopback TCP relay that counts the bytes crossing it in both
// directions: the traced run's seam between a client and the server (or the
// shaped link in front of it).
type relay struct {
	addr   string
	target string
	ln     net.Listener
	bytes  atomic.Int64

	mu     sync.Mutex
	closed bool
	conns  []net.Conn
	wg     sync.WaitGroup
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{addr: ln.Addr().String(), target: target, ln: ln}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		in, err := r.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", r.target)
		if err != nil {
			in.Close()
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			in.Close()
			out.Close()
			return
		}
		r.conns = append(r.conns, in, out)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(in, out)
		go r.pipe(out, in)
	}
}

// pipe copies src to dst until either side closes, then closes both so the
// opposite pipe ends too.
func (r *relay) pipe(dst, src net.Conn) {
	defer r.wg.Done()
	_, _ = io.Copy(dst, countingReader{src, &r.bytes})
	dst.Close()
	src.Close()
}

type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// close stops accepting, closes every relayed connection and waits for the
// pipes to end.
func (r *relay) close() error {
	err := r.ln.Close()
	r.mu.Lock()
	r.closed = true
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	return err
}
