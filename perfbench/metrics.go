package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"drtmr/internal/txn"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json (TestCatalogMatchesBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd is printed by every untraced run, on every workload. The user_*
// metrics are on the clock the workload's user waits on: virtual time for
// the in-process simulated cluster, wall time for drtmr-serve clients.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_mb", "MiB"},
	{"user_tps", "1/s"},
	{"user_p50_us", "us"},
	{"user_tail_us", "us"},
	{"wall_tps", "1/s"},
	{"ok_frac", "frac"},
}

// reportedPhases are the commit-pipeline phases broken out per commit.
var reportedPhases = []txn.CommitPhase{
	txn.PhaseLock, txn.PhaseValidate, txn.PhaseLog, txn.PhaseWriteBack,
	txn.PhaseUnlock, txn.PhaseROValidate, txn.PhaseFallback,
}

// perLayer is printed by every traced run, on every workload. A layer that
// does no work on a workload reports 0 there (README.md lists which).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"cluster.new_s", "s"},
		{"memstore.load_s", "s"},
		{"memstore.rows_loaded", "count"},
		{"memstore.load_ns_per_row", "ns"},
	}
	for _, p := range reportedPhases {
		defs = append(defs,
			metricDef{"txn.phase." + p.String() + ".verbs", "1/commit"},
			metricDef{"txn.phase." + p.String() + ".doorbells", "1/commit"},
			metricDef{"txn.phase." + p.String() + ".virt_ns", "ns/commit"},
		)
	}
	return append(defs, []metricDef{
		{"txn.exec.self_virt_ns", "ns/commit"},
		{"txn.phase.self_virt_ns", "ns/commit"},
		{"txn.abort_frac", "frac"},
		{"txn.fallbacks_per_1k", "1/1000commit"},
		{"txn.gate.queue_waits", "count"},
		{"txn.gate.wait_tail_virt_us", "us"},
		{"txn.gate.wait_tail_q", "quantile"},
		{"txn.ro_verbs_per_100", "1/100commit"},
		{"sched.yields_per_commit", "1/commit"},
		{"sched.overlap_frac", "frac"},
		{"sched.stall_virt_ns", "ns/commit"},
		{"sched.parked_virt_ns", "ns/commit"},
		{"htm.regions_per_commit", "1/commit"},
		{"htm.abort_frac", "frac"},
		{"htm.self_virt_ns", "ns/commit"},
		{"htm.conflicts_per_call", "1/call"},
		{"rdma.doorbells_per_commit", "1/commit"},
		{"rdma.verbs_per_doorbell", "1/doorbell"},
		{"rdma.doorbell_virt_ns", "ns/commit"},
		{"rdma.reads_per_call", "1/call"},
		{"rdma.writes_per_call", "1/call"},
		{"rdma.atomics_per_call", "1/call"},
		{"rdma.bytes_out_per_call", "B/call"},
		{"harness.wall_us_per_txn", "us"},
		{"serve.rtt_p50_us", "us"},
		{"serve.rtt_p99_us", "us"},
		{"serve.svc.payment.p50_us", "us"},
		{"serve.svc.payment.p99_us", "us"},
		{"serve.svc.deposit.p50_us", "us"},
		{"serve.svc.deposit.p99_us", "us"},
		{"serve.svc.balance.p50_us", "us"},
		{"serve.svc.balance.p99_us", "us"},
		{"serve.wire_queue_p50_us", "us"},
		{"serve.admission.admitted", "count"},
		{"serve.admission.shed_busy", "count"},
		{"serve.admission.queue_depth_max", "count"},
		{"serve.open_p99_us", "us"},
		{"serve.open_p999_us", "us"},
		{"gen.late_p50_us", "us"},
		{"gen.late_p99_us", "us"},
		{"fail_frac", "frac"},
		{"lat.samples", "count"},
		{"det.repeat_identical", "bool"},
		{"det.virt_tps_spread_frac", "frac"},
		{"trace.dropped_events", "count"},
		{"trace.events", "count"},
		{"trace.overhead_frac", "frac"},
		{"trace.virt_tps_diff_frac", "frac"},
	}...)
}()

// report collects one run's metrics by name.
type report struct {
	attempted, failed uint64
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// jsonMetric is one entry of the result line's "metrics" object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the notes and every metric of defs as a readable table, then
// the result object as the last line. Metrics the run measured but defs
// does not name are dropped; a missing or non-finite one is an error.
func (r *report) emit(w io.Writer, defs []metricDef) error {
	out := jsonResult{Correct: true, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// emitFailure prints a failed check instead of numbers.
func emitFailure(w io.Writer, attempted, failed uint64, cause error) {
	fmt.Fprintln(w, "check failed:", cause)
	b, _ := json.Marshal(jsonResult{Correct: false, Attempted: max(attempted, 1), Failed: failed,
		Metrics: map[string]jsonMetric{}})
	fmt.Fprintln(w, string(b))
}
