// Command perfbench is the repository benchmark: one single-process driver
// that runs a named workload from a seed, checks the program's outputs and
// prints every metric by name with its unit. It drives the program only
// through its public entry points (harness.Run, the cluster and workload
// loaders, serve.OpenBank/New/RegisterBank and serve/client), timing them
// from outside and reading the counters they already export.
//
//	perfbench --workload tpcc-det --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 re-runs the workload
// with tracing on and prints the per-layer metrics instead. README.md
// documents every workload and metric.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	measure time.Duration
	trace   bool
}

// workload runs one measurement; a returned error is a failed output check.
type workload func(cfg runConfig, r *report) error

var workloads = map[string]workload{
	"tpcc-det":      tpccDet.run,
	"smallbank-ro":  smallbankRO.run,
	"serve-bank-r3": runServeBank,
}

func main() {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	name := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 25, "measured wall seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(names, ","))
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, measure: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	r := newReport()
	if err := run(cfg, r); err != nil {
		emitFailure(os.Stdout, r.attempted, r.failed, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		for _, d := range perLayer {
			if _, ok := r.values[d.name]; !ok {
				r.set(d.name, 0) // the layer does no work on this workload
			}
		}
	}
	if err := r.emit(os.Stdout, defs); err != nil {
		emitFailure(os.Stdout, r.attempted, r.failed, err)
		os.Exit(1)
	}
}

// subSeed derives the seed of one repetition inside a run, so a run's
// repetitions differ from each other and from other runs' (splitmix64).
func subSeed(seed uint64, rep int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(rep+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1 // harness treats seed 0 as "default"
	}
	return z
}
