// Command pod runs a fleet of SoftBorg pods against a remote hive or a
// sharded hive fleet (see cmd/hive): each pod executes its assigned
// generated program on simulated user inputs, streams traces over TCP,
// and syncs fixes. -hive takes a comma-separated list of fleet members;
// submissions route to each program's ring owner and chase redirects
// when a rebalance moves it.
//
// Uploads buffer locally and drain through the pipelined sequenced
// streaming path: every frame carries the client's session ID and a
// sequence number, so a drain interrupted by a dropped link resubmits its
// unacknowledged suffix with the original tags and the hive — including a
// durable hive that crashed and recovered in between (cmd/hive -data-dir)
// — ingests each batch exactly once. A drain whose retry also fails
// parks its sealed remainder and resubmits it, tags intact, on the next
// drain. The hello names one protocol version and a hive that speaks another
// refuses it; frames travel coalesced sixteen to a mega-frame, compressed
// when the hello's round trip looks like a WAN (-compress on forces it).
//
//	pod -hive 127.0.0.1:7070 -pods 8 -programs 4 -seed 1 -runs 200
//	pod -hive 127.0.0.1:7070,127.0.0.1:7071 -pods 8 -programs 4 -seed 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/pod"
	"repro/internal/population"
	"repro/internal/proggen"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pod:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pod", flag.ContinueOnError)
	hiveAddr := fs.String("hive", "127.0.0.1:7070", "hive address, or a comma-separated fleet of them")
	pods := fs.Int("pods", 8, "number of pods to run")
	programs := fs.Int("programs", 4, "program-corpus size (must match hive)")
	seed := fs.Uint64("seed", 1, "program-corpus seed (must match hive)")
	runs := fs.Int("runs", 200, "executions per pod")
	syncEvery := fs.Int("sync", 25, "sync fixes every N runs")
	drainEvery := fs.Int("drain", 50, "drain buffered traces every N runs (0 drains only at the end)")
	compress := fs.String("compress", "auto", "batch compression over the wire: auto (engage when the hello round trip looks like a WAN) or on")
	retryBase := fs.Duration("retry-base", 0, "first busy-retry backoff step; doubles per attempt with jitter (0 uses the built-in default)")
	retryCap := fs.Duration("retry-cap", 0, "ceiling on the busy-retry backoff schedule (0 uses the built-in default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compress != "auto" && *compress != "on" {
		return fmt.Errorf("-compress %q: want auto or on", *compress)
	}

	pop, err := population.New(population.Config{Seed: *seed, Users: *pods})
	if err != nil {
		return err
	}

	var wg sync.WaitGroup
	errs := make(chan error, *pods)
	for i := 0; i < *pods; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- runPod(i, *hiveAddr, *seed, i%*programs, *runs, *syncEvery, *drainEvery, *compress, *retryBase, *retryCap, pop)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	fmt.Println("fleet done")
	return nil
}

func runPod(idx int, hiveAddr string, seed uint64, programIdx, runs, syncEvery, drainEvery int, compress string, retryBase, retryCap time.Duration, pop *population.Population) error {
	p, _, err := proggen.Generate(proggen.CorpusSpec(seed, programIdx))
	if err != nil {
		return err
	}
	// A Router over the fleet addresses: against a single unsharded hive
	// it degenerates to a plain client; against a sharded fleet every
	// frame goes to its program's owner.
	client := wire.NewRouter(strings.Split(hiveAddr, ",")...)
	defer client.Close()
	client.ForceCompress = compress == "on"
	// Busy-retry pacing: a hive answering busy-retry (admission control or
	// deferred low-rarity work) is waited out with jittered exponential
	// backoff rather than hammered.
	client.RetryBase = retryBase
	client.RetryCap = retryCap
	// The buffer is bound to the pod's program, so drains stream pipelined
	// sequenced frames — exactly-once across reconnects and hive restarts.
	buffer := pod.NewBufferedFor(client, p.ID)

	user := pop.Users()[idx]
	pd, err := pod.New(pod.Config{
		Program:  p,
		ID:       fmt.Sprintf("pod-%d", idx),
		Hive:     buffer,
		Salt:     "fleet",
		Seed:     uint64(idx) + 1,
		Syscalls: user.Syscalls(),
	})
	if err != nil {
		return err
	}
	for r := 0; r < runs; r++ {
		input := user.NextInput(p.NumInputs, pop.Domain())
		if _, err := pd.RunOnce(input); err != nil {
			return fmt.Errorf("pod %d: %w", idx, err)
		}
		if syncEvery > 0 && r%syncEvery == syncEvery-1 {
			if err := pd.SyncFixes(); err != nil {
				return err
			}
		}
		if drainEvery > 0 && r%drainEvery == drainEvery-1 {
			if err := pd.Flush(); err != nil {
				return err
			}
			if err := buffer.Drain(); err != nil {
				return err
			}
		}
	}
	if err := pd.Flush(); err != nil {
		return err
	}
	if err := buffer.Drain(); err != nil {
		return err
	}
	st := pd.Stats()
	fmt.Printf("pod %d: runs=%d failures=%d averted=%d uploaded=%d fixver=%d\n",
		idx, st.Runs, st.Failures, st.FailuresAverted, st.TracesUploaded, st.FixVersion)
	return nil
}
