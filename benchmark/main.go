// Command benchmark is the one benchmark of the pod→hive pipeline: five
// workloads against the real stack (TCP, journal on disk, hive), every
// end-to-end metric by name with its unit, outputs checked. README.md in
// this directory defines the workloads and metrics.
//
//	go run ./benchmark                         # all five workloads, untraced
//	go run ./benchmark -trace 1 -spans s.jsonl # per-layer metrics and spans
//	go run ./benchmark -workload pod_loop -seed 7 -seconds 20 -trace 0
//	go run ./benchmark -repeat 5 -out aa.json  # spread of every metric
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	spans    string
	out      string
	tmp      string
	repeat   int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var traced, compare bool
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input; the program corpus is fixed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload: traffic and recoveries together, over every round")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	fs.BoolVar(&traced, "traced", false, "same as -trace 1")
	fs.StringVar(&o.spans, "spans", "", "traced run: write the spans as JSON lines to this file (with several workloads, <file>.<workload>)")
	fs.StringVar(&o.out, "out", "", "write the full result (environment, every run) as JSON to this file")
	fs.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "directory for the run's data; a fresh sub-directory is made and removed")
	fs.IntVar(&o.repeat, "repeat", 1, "run the set this many times back to back and print median, quartiles and spread per metric")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	o.traced = traced || trace == 1
	if trace != 0 && trace != 1 || o.seconds <= 0 || o.repeat < 1 {
		fmt.Fprintln(stderr, "benchmark: -trace is 0 or 1, -seconds and -repeat are positive")
		return 2
	}
	if err := execute(o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// report is the file -out writes and -compare reads: the environment and
// every set run, each set a result per workload.
type report struct {
	Env  environment          `json:"env"`
	Runs []map[string]*result `json:"runs"`
}

// environment says where the numbers were taken.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Filesystem string  `json:"filesystem"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func describe(o options, root string) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Filesystem: fsType(root),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.traced,
	}
	// A checkout that is not a repository has no commit; git must not go
	// looking for one above it.
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// execute runs the chosen workloads o.repeat times, prints every metric of
// every run, and ends with the line the driver reads: for one workload its
// result alone, for the set a result per workload.
func execute(o options, stdout, stderr io.Writer) error {
	chosen := specs
	if o.workload != "" {
		sp, ok := specByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		chosen = []spec{sp}
	}
	root, err := tmpRoot(o.tmp)
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	// An interrupt must not leave data behind either. The servers and
	// workers die with the process.
	sig := make(chan os.Signal, 1)
	defer close(sig)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if _, ok := <-sig; ok {
			_ = os.RemoveAll(root)
			os.Exit(130)
		}
	}()

	rep := report{Env: describe(o, root)}
	failed := false
	for r := 0; r < o.repeat; r++ {
		set := make(map[string]*result, len(chosen))
		for _, sp := range chosen {
			rc := &runCtx{sp: sp, seed: o.seed, seconds: o.seconds, traced: o.traced, sz: fullSizes, root: root, log: stderr}
			if o.spans != "" && o.traced {
				rc.spans = o.spans
				if len(chosen) > 1 || o.repeat > 1 {
					rc.spans = fmt.Sprintf("%s.%s", o.spans, sp.name)
				}
			}
			res := runWorkload(rc)
			set[sp.name] = res
			printResult(stdout, sp.name, res, rc.traced)
			if !res.Correct {
				failed = true
				fmt.Fprintf(stderr, "benchmark: %s: FAILED: %s (%d of %d operations failed)\n", sp.name, res.Error, res.Failed, res.Attempted)
			}
		}
		rep.Runs = append(rep.Runs, set)
	}
	if o.repeat > 1 {
		printSpread(stdout, rep, o.traced)
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("a correctness check or an operation failed; no result line printed")
	}
	last := rep.Runs[len(rep.Runs)-1]
	var line []byte
	if o.workload != "" {
		line, err = json.Marshal(driverResult(last[o.workload]))
	} else {
		all := make(map[string]any, len(last))
		for name, res := range last {
			all[name] = driverResult(res)
		}
		line, err = json.Marshal(all)
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// driverResult is a result in exactly the shape the driver's contract gives:
// four keys, and a value and a unit per metric.
func driverResult(res *result) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.Metrics))
	for name, m := range res.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics}
}

// printResult writes one workload's metrics as "workload name value unit
// n=samples" lines in declaration order.
func printResult(w io.Writer, workload string, res *result, traced bool) {
	decl := endToEnd
	if traced {
		decl = perLayer
	}
	m := &measurements{decl: decl, values: res.Metrics}
	m.print(w, workload+" ")
	fmt.Fprintf(w, "%s operations attempted=%d failed=%d correct=%v\n", workload, res.Attempted, res.Failed, res.Correct)
}
