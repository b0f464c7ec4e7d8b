package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metric declares one named number the benchmark emits. BENCHMARK.json at
// the root of the repo repeats these declarations; smoke_test.go fails when
// the two drift apart.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the numbers a user of the pod→hive pipeline sees. Every
// workload emits every one of them in an untraced run: a workload is a
// traffic mix followed by a pass over the state it left behind, so each
// metric has a value under every mix. README.md defines each.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"traces_per_s", "1/s", "higher"},
	{"ack_p50_ms", "ms", "lower"},
	{"guidance_p50_ms", "ms", "lower"},
	{"cpu_us_per_trace", "us", "lower"},
	{"alloc_b_per_trace", "B", "lower"},
	{"recover_s", "s", "lower"},
}

// perLayer are the numbers of single layers, taken only with -trace 1 from
// the seams, direct timings and replays of sut.go (see layers.go). A metric
// that does not apply to a workload reads 0 there.
var perLayer = []metric{
	// Demoted from the end-to-end list (README.md, "Demoted"): a p99 needs
	// a thousand samples, which wan_drain and recover cannot supply in one
	// run, and it moves with the checkpoint ticker's phase; the three later
	// steps of the state cycle are fsync-bound and spread by 20-60 % between
	// runs of the same code.
	{"ack_p99_ms", "ms", "lower"},
	{"guidance_p99_ms", "ms", "lower"},
	{"rehome_s", "s", "lower"},
	{"archive_sync_s", "s", "lower"},
	{"cold_standby_s", "s", "lower"},

	{"pod.run_us", "us", "lower"},
	{"pod.seal_ns_per_trace", "ns", "lower"},
	{"pod.frames_per_drain", "count", "lower"},
	{"pod.drain_cover_ratio", "ratio", "higher"},

	{"trace.encode_ns_per_trace", "ns", "lower"},
	{"trace.decode_ns_per_trace", "ns", "lower"},
	{"trace.frame_b_per_trace", "B", "lower"},
	{"trace.compress_ratio", "ratio", "higher"},
	{"trace.compress_ns_per_trace", "ns", "lower"},

	{"wire.submit_us_per_frame", "us", "lower"},
	{"wire.self_us_per_frame", "us", "lower"},
	{"wire.b_per_trace", "B", "lower"},
	{"wire.hello_us", "us", "lower"},
	{"wire.read_rtt_us", "us", "lower"},
	{"wire.unaccepted_frames", "count", "lower"},

	{"hive.submit_ns_per_trace", "ns", "lower"},
	{"hive.submit_us_per_frame", "us", "lower"},
	{"hive.self_ns_per_trace", "ns", "lower"},
	{"hive.guidance_us", "us", "lower"},
	{"hive.fixes_us", "us", "lower"},
	{"hive.checkpoint_ms_p50", "ms", "lower"},
	{"hive.checkpoint_ms_max", "ms", "lower"},
	{"hive.replay_traces_per_s", "1/s", "higher"},
	{"hive.export_ms_per_program", "ms", "lower"},
	{"hive.import_ms_per_program", "ms", "lower"},
	{"hive.sessions_live", "count", "lower"},
	{"hive.sessions_frozen", "count", "lower"},

	{"exectree.merge_ns_per_trace", "ns", "lower"},
	{"exectree.remerge_ns_per_trace", "ns", "lower"},
	{"exectree.new_path_ratio", "ratio", "lower"},
	{"exectree.reconstruct_ns_per_trace", "ns", "lower"},
	{"exectree.frontiers_us", "us", "lower"},
	{"exectree.nodes_end", "count", "lower"},
	{"exectree.frontiers_end", "count", "lower"},
	{"exectree.encode_ms", "ms", "lower"},
	{"exectree.decode_chain_ms", "ms", "lower"},

	{"guidance.generate_us", "us", "lower"},
	{"guidance.yield", "ratio", "higher"},

	{"journal.append_us_per_batch", "us", "lower"},
	{"journal.fs_write_b_per_trace", "B", "lower"},
	{"journal.fs_writes_per_ktrace", "count", "lower"},
	{"journal.fsyncs_per_ktrace", "count", "lower"},
	{"journal.records_per_fsync", "ratio", "higher"},
	{"journal.fsync_ms_p50", "ms", "lower"},
	{"journal.fsync_ms_p99", "ms", "lower"},
	{"journal.fs_busy_share", "ratio", "lower"},
	{"journal.disk_mib_end", "MiB", "lower"},
	{"journal.load_chain_ms", "ms", "lower"},

	{"archive.put_b_per_state_b", "ratio", "lower"},
	{"archive.puts", "count", "lower"},
	{"archive.gets", "count", "lower"},
	{"archive.lists", "count", "lower"},
	{"archive.resync_s", "s", "lower"},
	{"archive.materialize_s", "s", "lower"},

	{"proc.heap_peak_mib", "MiB", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_total_ms", "ms", "lower"},
	{"proc.trace_overhead_pct", "%", "lower"},
}

// measurement is one emitted value. Samples is the number of observations
// behind it: timed operations for a percentile or a mean, 1 for a count or a
// ratio of totals.
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// measurements collects the values of one run by name; set panics on a name
// set twice or not declared, so a metric cannot be emitted under two
// definitions.
type measurements struct {
	decl   []metric
	values map[string]measurement
}

func newMeasurements(decl []metric) *measurements {
	return &measurements{decl: decl, values: make(map[string]measurement, len(decl))}
}

func (m *measurements) set(name string, value float64, samples int) {
	if _, dup := m.values[name]; dup {
		panic("benchmark: metric emitted twice: " + name)
	}
	for _, d := range m.decl {
		if d.Name == name {
			if math.IsNaN(value) || math.IsInf(value, 0) {
				value = 0
			}
			m.values[name] = measurement{Value: value, Unit: d.Unit, Samples: samples}
			return
		}
	}
	panic("benchmark: undeclared metric: " + name)
}

// fill gives every declared metric that the workload did not set the value
// 0: it does not apply there.
func (m *measurements) fill() {
	for _, d := range m.decl {
		if _, ok := m.values[d.Name]; !ok {
			m.values[d.Name] = measurement{Unit: d.Unit}
		}
	}
}

// print writes "name value unit n=samples", one metric a line, in
// declaration order.
func (m *measurements) print(w io.Writer, prefix string) {
	for _, d := range m.decl {
		if v, ok := m.values[d.Name]; ok {
			fmt.Fprintf(w, "%s%s %.6g %s n=%d\n", prefix, d.Name, v.Value, v.Unit, v.Samples)
		}
	}
}

// percentile is the p-th percentile (0..100) of an ascending sample, linear
// between closest ranks; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median is the middle of xs, which it leaves as it found it.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

// sortedCopy returns xs ascending without disturbing the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is the p-th percentile of an ascending sample when at least ten
// samples lie beyond it, else 0: a percentile resting on fewer is the
// sample's maximum under another name.
func tail(sorted []float64, p float64) float64 {
	if float64(len(sorted))*(100-p)/100 < 10 {
		return 0
	}
	return percentile(sorted, p)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles are the first, second and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method); the
// driver judges the benchmark's spread with that function. Fewer than two
// values have no quartiles: all three read as the single value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(q2))
}
