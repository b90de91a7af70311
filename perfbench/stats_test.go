package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"drtmr/internal/obs"
	"drtmr/internal/serve/client"
	"drtmr/internal/txn"
)

func TestFoldSelfSubtractsDeeperSpans(t *testing.T) {
	// One attempt [0,100): a commit phase [20,60) holding a doorbell
	// [30,50), parked [45,55) while the doorbell completes, and an HTM
	// region [70,80).
	spans := []span{
		{kindTxn, 0, 100},
		{kindPhase, 20, 60},
		{kindDoorbell, 30, 50},
		{kindYield, 45, 55},
		{kindHTM, 70, 80},
	}
	got := foldSelf(spans)
	want := [numKinds]int64{
		kindTxn:      50, // 100 - [20,60) - [70,80)
		kindPhase:    15, // 40 - [30,55)
		kindDoorbell: 15, // 20 - [45,50)
		kindHTM:      10,
		kindYield:    10,
	}
	if got != want {
		t.Fatalf("self times %v, want %v", got, want)
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != 100 {
		t.Fatalf("self times sum to %d, want the attempt's 100", sum)
	}
}

func TestFoldSelfCountsOverlapOnce(t *testing.T) {
	// Two overlapping doorbells inside one attempt cover [10,40) once.
	got := foldSelf([]span{{kindTxn, 0, 50}, {kindDoorbell, 10, 30}, {kindDoorbell, 20, 40}})
	if got[kindTxn] != 20 {
		t.Fatalf("attempt self %d, want 20", got[kindTxn])
	}
	if got[kindDoorbell] != 40 {
		t.Fatalf("doorbell self %d, want each doorbell's full 20", got[kindDoorbell])
	}
}

func TestCoroutineSlots(t *testing.T) {
	ev := func(k obs.Kind, id uint64, arg uint32) obs.Event { return obs.Event{Kind: k, ID: id, Arg: arg} }
	evs := []obs.Event{
		ev(obs.EvTxnBegin, 1, 0),  // slot 0 starts
		ev(obs.EvDoorbell, 0, 1),  // slot 0 posts, parks
		ev(obs.EvTxnBegin, 2, 0),  // slot 1's first run: no resume event
		ev(obs.EvDoorbell, 0, 1),  // slot 1 posts, parks
		ev(obs.EvYield, 0, 0),     // slot 0 resumes
		ev(obs.EvTxnCommit, 1, 0), //
		ev(obs.EvYield, 0, 1),     // slot 1 resumes
		ev(obs.EvPhase, 2, 0),     //
		ev(obs.EvTxnCommit, 2, 0), //
	}
	got := coroutineSlots(evs)
	want := []int{0, 0, 1, 0, 0, 0, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slots %v, want %v", got, want)
		}
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		q    float64
		err  bool
	}{
		{24000, 0.99, 0.99, false},
		{1000, 0.99, 0.99, false},
		{500, 0.99, 0.98, false},
		{20, 0.99, 0.5, false},
		{19, 0.99, 0, true},
		{0, 0.99, 0, true},
	}
	for _, c := range cases {
		q, err := tailQuantile(c.n, c.want)
		if (err != nil) != c.err || math.Abs(q-c.q) > 1e-12 {
			t.Errorf("tailQuantile(%d, %v) = %v, %v; want %v (error %v)", c.n, c.want, q, err, c.q, c.err)
		}
		if err == nil && float64(c.n)*(1-q) < minBeyond-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than %d samples beyond", c.n, q, minBeyond)
		}
	}
	if err := checkTail(1000, 0.99); err != nil {
		t.Errorf("p99 of 1000 samples has 10 beyond: %v", err)
	}
	if err := checkTail(999, 0.99); err == nil {
		t.Error("p99 of 999 samples accepted with fewer than 10 beyond")
	}
}

func TestSampleQuantile(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if got := sampleQuantile(xs, 0.5); got != 50.5 {
		t.Errorf("p50 of 1..100 = %v, want 50.5", got)
	}
	if got := sampleQuantile(xs, 0.99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 of 1..100 = %v, want 99.01", got)
	}
	if got := sampleQuantile(xs, 1); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
}

func TestHistQuantileInterpolatesInsideBuckets(t *testing.T) {
	var h obs.Histogram
	for v := int64(1000); v < 2000; v++ {
		h.Record(v)
	}
	if got := histQuantile(&h, 0.5); math.Abs(got-1500)/1500 > 0.01 {
		t.Errorf("p50 of uniform 1000..1999 = %v, want about 1500", got)
	}
	// A shift smaller than a bucket must move the estimate; the bucket
	// lower bound obs.Histogram.Quantile reports does not see it.
	var shifted obs.Histogram
	for v := int64(1010); v < 2010; v++ {
		shifted.Record(v)
	}
	if histQuantile(&shifted, 0.5) <= histQuantile(&h, 0.5) {
		t.Error("a 10ns shift left the interpolated p50 unchanged")
	}
	// Exact single-value buckets stay exact.
	var small obs.Histogram
	for i := 0; i < 10; i++ {
		small.Record(7)
	}
	if got := histQuantile(&small, 0.99); got != 7 {
		t.Errorf("p99 of ten 7s = %v, want 7", got)
	}
	prev := 0.0
	for q := 0.0; q <= 1; q += 0.05 {
		v := histQuantile(&h, q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestFailFrac(t *testing.T) {
	if got := failFrac(100, 97); math.Abs(got-0.03) > 1e-12 {
		t.Errorf("failFrac(100, 97) = %v, want 0.03", got)
	}
	if got := failFrac(100, 100); got != 0 {
		t.Errorf("failFrac(100, 100) = %v, want 0", got)
	}
	if got := failFrac(0, 0); got != 1 {
		t.Errorf("failFrac with nothing attempted = %v, want 1", got)
	}
}

func TestLateness(t *testing.T) {
	got := lateness([]int64{0, 100, 200}, []int64{50, 90, 400})
	want := []int64{0, 50, 200}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lateness %v, want %v (early sends count as on time)", got, want)
		}
	}
}

func TestCheckMoneyCatchesBrokenTotal(t *testing.T) {
	if err := checkMoney(600_001_234, 600_000_000, 1_234); err != nil {
		t.Fatalf("conserved total rejected: %v", err)
	}
	err := checkMoney(600_001_233, 600_000_000, 1_234)
	if err == nil || !strings.Contains(err.Error(), "not conserved") {
		t.Fatalf("broken total accepted: %v", err)
	}
}

func TestOutcomesBucketEveryCall(t *testing.T) {
	var o outcomes
	o.record(call{proc: procDeposit, amount: 7}, nil)
	o.record(call{proc: procPayment}, nil)
	o.record(call{proc: procDeposit, amount: 5}, &client.AbortError{Reason: txn.AbortServerBusy})
	o.record(call{proc: procBalance}, &client.AbortError{Reason: txn.AbortDeadline})
	o.record(call{proc: procBalance}, &client.RequestError{Detail: "x"})
	o.record(call{proc: procBalance}, errors.New("connection reset"))
	if o.offered != 6 || o.ok != 2 || o.busy != 1 || o.deadline != 1 || o.badRequest != 1 || o.errs != 1 {
		t.Fatalf("buckets %+v", o)
	}
	if o.deposited != 7 {
		t.Fatalf("acknowledged deposits %d, want 7 (the shed deposit never executed)", o.deposited)
	}
	if o.dropped() != 0 {
		t.Fatalf("dropped %d", o.dropped())
	}
	o.offered++
	if o.dropped() != 1 {
		t.Fatal("an unbucketed call was not reported as dropped")
	}
}

func TestSubSeedsDiffer(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(1); seed <= 20; seed++ {
		for rep := -8; rep < 8; rep++ {
			s := subSeed(seed, rep)
			if s == 0 || seen[s] {
				t.Fatalf("subSeed(%d, %d) = %d repeats or is zero", seed, rep, s)
			}
			seen[s] = true
		}
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the driver prints %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the driver prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the driver runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the driver", w.Name)
		}
	}
}
