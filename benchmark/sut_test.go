package main

import (
	"reflect"
	"testing"
)

// TestTimedBackendKeepsSubmitRoute sends the same sealed frame stream to a
// bare hive and to one behind the traced run's seam, and requires the same
// acknowledgements and the same resulting state. The seam records a span
// only in SubmitColumnarSession and fails SubmitTraces outright, so equal
// state plus one hive.submit span per frame means the server stayed on the
// columnar session route with the seam installed.
func TestTimedBackendKeepsSubmitRoute(t *testing.T) {
	rc := &runCtx{seed: 3, sz: smokeSizes, root: t.TempDir()}
	const framesPerProgram = 2

	stream := func(traced bool) (map[string]programState, *tracer) {
		fx, err := setupBulk(rc)
		if err != nil {
			t.Fatal(err)
		}
		defer fx.discard()
		tr := newTracer(1024)
		tr.on.Store(true)
		var wrap func(*hiveT) backendT
		if traced {
			wrap = timedBackendFor(tr, fx.corpus)
		}
		n, err := boot(fx.dir, fx.corpus, false, nil, wrap)
		if err != nil {
			t.Fatal(err)
		}
		defer n.close()
		c := dial(n.addr)
		cn := &conn{client: c, raw: c}
		defer cn.close()
		for pi, p := range fx.corpus {
			if _, _, err := cn.drain(p.ID, fx.pools[0][pi][:framesPerProgram]); err != nil {
				t.Fatalf("traced=%v: %v", traced, err)
			}
		}
		state, err := snapshotState(n.hive, fx.corpus)
		if err != nil {
			t.Fatal(err)
		}
		return state, tr
	}

	bare, _ := stream(false)
	timed, tr := stream(true)
	if !reflect.DeepEqual(bare, timed) {
		t.Errorf("state differs behind the seam:\nbare  %+v\ntimed %+v", bare, timed)
	}
	for id, st := range bare {
		if st.Ingested != framesPerProgram*frameTraces {
			t.Errorf("program %s ingested %d traces, sent %d", id, st.Ingested, framesPerProgram*frameTraces)
		}
	}
	submits := 0
	tr.each(spanHiveSubmit, func(s *span) {
		submits++
		if s.traces != frameTraces || s.worker != 0 {
			t.Errorf("hive.submit span carries %d traces for worker %d", s.traces, s.worker)
		}
	})
	if want := framesPerProgram * len(bare); submits != want {
		t.Errorf("%d hive.submit spans for %d frames: some frames took another route", submits, want)
	}
}

func TestWorkerOf(t *testing.T) {
	for id, want := range map[string]int32{"w0-bulk": 0, "w1-g3-p12": 1, "w12-x": 12, "pod-3": -1, "": -1} {
		if got := workerOf(id); got != want {
			t.Errorf("workerOf(%q) = %d, want %d", id, got, want)
		}
	}
}
