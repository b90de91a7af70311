package main

import (
	"fmt"
	"runtime"
	"time"

	"drtmr/internal/bench/harness"
	"drtmr/internal/bench/smallbank"
	"drtmr/internal/bench/tpcc"
	"drtmr/internal/cluster"
	"drtmr/internal/obs"
	"drtmr/internal/rdma"
	"drtmr/internal/txn"
)

// inproc is a workload that runs the simulated cluster in this process
// through harness.Run under the deterministic step gate.
type inproc struct {
	name string
	opts harness.Options // everything but Seed
	// memBytes mirrors the per-machine arena size harness.Run picks for
	// this workload, so the setup pass allocates what the run does.
	memBytes int
	// repeats says whether the workload must replay bit for bit from its
	// seed; tpcc-det does not yet (README.md, determinism defect).
	repeats bool
	// eventsPerTxn sizes the traced run's per-worker rings with headroom
	// over the measured event rate, so no event is overwritten.
	eventsPerTxn int
	// load creates the tables on every machine and loads them; it returns
	// the number of rows inserted.
	load func(c *cluster.Cluster, o harness.Options) int
}

// setupPasses is how many times a run builds and loads the cluster to
// time set-up; the median is reported.
const setupPasses = 11

// maxFailFrac is the ceiling on workload transactions that never commit.
// It is 0: Worker.Run retries every abort until commit, this TPC-C draws
// no rolled-back new-orders, and SmallBank commits insufficient funds as a
// no-op.
const maxFailFrac = 0.0

// minReps is the fewest measured repetitions a run makes, however short
// --seconds is.
const minReps = 3

var tpccDet = &inproc{
	name: "tpcc-det",
	opts: harness.Options{
		System: harness.SysDrTMR, Workload: harness.WLTPCC,
		Nodes: 3, ThreadsPerNode: 2, TxPerWorker: 3000,
		WarehousesPerNode: 2, CrossWarehouseNO: 0.01, CrossWarehousePay: 0.15,
		Deterministic: true,
	},
	memBytes:     64 << 20,
	repeats:      false,
	eventsPerTxn: 64,
	load: func(c *cluster.Cluster, o harness.Options) int {
		wcfg := tpcc.Config{
			Nodes: o.Nodes, WarehousesPerNode: o.WarehousesPerNode,
			RemoteNewOrderProb: o.CrossWarehouseNO, RemotePaymentProb: o.CrossWarehousePay,
		}
		for _, m := range c.Machines {
			tpcc.CreateTables(m.Store, wcfg)
		}
		for n := 0; n < o.Nodes; n++ {
			if err := tpcc.Load(c.Machines[n].Store, wcfg, n, o.Seed+uint64(n)); err != nil {
				panic(err)
			}
		}
		perWarehouse := 1 + tpcc.DistrictsPerWarehouse*(1+2*tpcc.CustomersPerDistrict) + tpcc.StockPerWarehouse
		return o.Nodes * (tpcc.ItemCount + o.WarehousesPerNode*perWarehouse)
	},
}

var smallbankRO = &inproc{
	name: "smallbank-ro",
	opts: harness.Options{
		System: harness.SysDrTMR, Workload: harness.WLSmallBank,
		Nodes: 3, ThreadsPerNode: 2, TxPerWorker: 40000,
		SBAccountsPerNode: 10000, SBRemoteProb: 0.10, SBReadOnlyFrac: 0.5,
		Deterministic: true,
	},
	memBytes:     32 << 20,
	repeats:      true,
	eventsPerTxn: 12,
	load: func(c *cluster.Cluster, o harness.Options) int {
		wcfg := smallbank.Config{
			AccountsPerNode: o.SBAccountsPerNode, Nodes: o.Nodes, RemoteProb: o.SBRemoteProb,
			HotFraction: 0.04, ReadOnlyFrac: o.SBReadOnlyFrac, InitialBalance: 10000,
		}
		for _, m := range c.Machines {
			smallbank.CreateTables(m.Store, wcfg)
		}
		cfg0 := c.Coord.Current()
		for s := 0; s < o.Nodes; s++ {
			shard := cluster.ShardID(s)
			if err := smallbank.Load(c.Machines[cfg0.PrimaryOf(shard)].Store, wcfg, shard); err != nil {
				panic(err)
			}
		}
		return o.Nodes * o.SBAccountsPerNode * 2
	},
}

// setupStats is what the set-up passes measured (medians).
type setupStats struct {
	newS, loadS, totalS, memMiB float64
	rows                        int
	passes                      []float64 // each pass's total, seconds
}

// setup times cluster.New and the workload loader the way harness.Run
// calls them, setupPasses times, and reads the live heap after each load.
func (w *inproc) setup(seed uint64) setupStats {
	var news, loads, totals, mems []float64
	var rows int
	for i := 0; i < setupPasses; i++ {
		o := w.opts
		o.Seed = subSeed(seed, -1-i)
		runtime.GC()
		t0 := time.Now()
		c := cluster.New(cluster.Spec{
			Nodes: o.Nodes, Replicas: 1, MemBytes: w.memBytes, HTM: o.HTM,
			RDMA:  rdma.Config{NICBytesPerSec: rdma.NICBandwidth56G},
			Lease: time.Hour, HeartbeatEvery: time.Hour,
		})
		t1 := time.Now()
		rows = w.load(c, o)
		t2 := time.Now()
		news = append(news, t1.Sub(t0).Seconds())
		loads = append(loads, t2.Sub(t1).Seconds())
		totals = append(totals, t2.Sub(t0).Seconds())
		mems = append(mems, liveHeapMiB())
		runtime.KeepAlive(c)
		c.Stop()
	}
	return setupStats{newS: median(news), loadS: median(loads), totalS: median(totals),
		memMiB: median(mems), rows: rows, passes: totals}
}

// liveHeapMiB is the Go heap in use after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timedRun is one harness.Run with its wall time.
type timedRun struct {
	res  harness.Result
	wall float64 // seconds, set-up included
}

func (w *inproc) runOnce(o harness.Options) timedRun {
	runtime.GC()
	t0 := time.Now()
	res := harness.Run(o)
	return timedRun{res: res, wall: time.Since(t0).Seconds()}
}

// attempted is the transaction count one harness.Run is asked for.
func (w *inproc) attempted() uint64 {
	return uint64(w.opts.Nodes * w.opts.ThreadsPerNode * w.opts.TxPerWorker)
}

// check validates one run's outputs and returns its fail fraction.
func (w *inproc) check(tr timedRun) (float64, error) {
	r := tr.res
	if r.Committed == 0 {
		return 1, fmt.Errorf("%s: no transaction committed", w.name)
	}
	// Lat holds one sample per workload transaction that committed;
	// Committed counts engine transactions (TPC-C Delivery runs several).
	ok := r.Lat.All().Count()
	if ok > w.attempted() || ok > r.Committed {
		return 1, fmt.Errorf("%s: %d latency samples for %d attempts and %d commits", w.name, ok, w.attempted(), r.Committed)
	}
	ff := failFrac(w.attempted(), ok)
	if ff > maxFailFrac {
		return ff, fmt.Errorf("%s: fail_frac %.4f above its ceiling %g", w.name, ff, maxFailFrac)
	}
	if r.ROWakeups != 0 {
		return ff, fmt.Errorf("%s: %d CPU wakeups at read-only participants (protocol promises 0)", w.name, r.ROWakeups)
	}
	if err := checkTail(int(ok), 0.99); err != nil {
		return ff, err
	}
	return ff, nil
}

func (w *inproc) run(cfg runConfig, rep *report) error {
	st := w.setup(cfg.seed)
	rep.note("set-up passes (s): %.3f", st.passes)
	if cfg.trace {
		return w.traced(cfg, st, rep)
	}
	// Virtual figures pool every repetition (commits over virtual seconds,
	// one merged latency histogram): they are a function of the seeds, so
	// pooling only adds samples. Wall figures take the median repetition,
	// which a noisy neighbour on the host moves least.
	var commits, virtSec float64
	var okFrac, wallTPS []float64
	var lat obs.Histogram
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < cfg.measure; i++ {
		o := w.opts
		o.Seed = subSeed(cfg.seed, i)
		tr := w.runOnce(o)
		rep.attempted += w.attempted()
		rep.failed += w.attempted() - tr.res.Lat.All().Count()
		ff, err := w.check(tr)
		if err != nil {
			return err
		}
		all := tr.res.Lat.All()
		commits += float64(tr.res.Committed)
		virtSec += tr.res.VirtualSec
		lat.Merge(all)
		wallTPS = append(wallTPS, float64(tr.res.Committed)/(tr.wall-st.totalS))
		okFrac = append(okFrac, 1-ff)
		rep.note("rep %d seed %d: %d commits of %d, %.0f virt txn/s, p50 %.2fus p99 %.2fus over %d samples, wall %.3fs",
			i, o.Seed, tr.res.Committed, w.attempted(), tr.res.TotalTPS,
			histQuantile(all, 0.50)/1e3, histQuantile(all, 0.99)/1e3, all.Count(), tr.wall)
	}
	rep.set("setup_s", st.totalS)
	rep.set("mem_mb", st.memMiB)
	rep.set("user_tps", commits/virtSec)
	rep.set("user_p50_us", histQuantile(&lat, 0.50)/1e3)
	rep.set("user_tail_us", histQuantile(&lat, 0.99)/1e3)
	rep.set("wall_tps", median(wallTPS))
	rep.set("ok_frac", median(okFrac))
	rep.note("%d repetitions; user_* are virtual time, user_tail_us is p99 over %d samples", len(wallTPS), lat.Count())
	return nil
}

// traced measures the per-layer metrics. Each repetition runs one seed
// untraced and then traced, and the first also repeats the untraced run to
// probe determinism.
func (w *inproc) traced(cfg runConfig, st setupStats, rep *report) error {
	rep.set("cluster.new_s", st.newS)
	rep.set("memstore.load_s", st.loadS)
	rep.set("memstore.rows_loaded", float64(st.rows))
	rep.set("memstore.load_ns_per_row", st.loadS*1e9/float64(st.rows))

	vals := map[string][]float64{}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.measure; i++ {
		o := w.opts
		o.Seed = subSeed(cfg.seed, i)
		plain := w.runOnce(o)
		if _, err := w.check(plain); err != nil {
			return err
		}
		base := plain // the untraced twin the traced run's wall time is compared with
		if i == 0 {
			again := w.runOnce(o)
			if _, err := w.check(again); err != nil {
				return err
			}
			rep.attempted += w.attempted()
			rep.failed += w.attempted() - again.res.Lat.All().Count()
			a, b := plain.res, again.res
			same := a.Fingerprint() == b.Fingerprint()
			if w.repeats && !same {
				return fmt.Errorf("%s: seed %d did not replay: fingerprints %s vs %s", w.name, o.Seed, a.Fingerprint(), b.Fingerprint())
			}
			rep.set("det.repeat_identical", b2f(same))
			rep.set("det.virt_tps_spread_frac", relDiff(a.TotalTPS, b.TotalTPS))
			base = again // plain was the process's first run, which pays for heap growth
			rep.note("determinism probe seed %d: fingerprints %s vs %s; virt txn/s %.0f vs %.0f; abort rate %.4f vs %.4f",
				o.Seed, a.Fingerprint(), b.Fingerprint(), a.TotalTPS, b.TotalTPS, a.AbortRate, b.AbortRate)
		}
		to := o
		to.Trace = true
		to.TraceEventsPerWorker = o.TxPerWorker * w.eventsPerTxn
		traced := w.runOnce(to)
		if _, err := w.check(traced); err != nil {
			return err
		}
		if w.repeats && traced.res.Fingerprint() != plain.res.Fingerprint() {
			return fmt.Errorf("%s: tracing moved virtual time on seed %d", w.name, o.Seed)
		}
		rep.attempted += 2 * w.attempted()
		rep.failed += 2*w.attempted() - plain.res.Lat.All().Count() - traced.res.Lat.All().Count()

		r := traced.res
		commits := float64(r.Committed)
		var dropped, events uint64
		var self [numKinds]int64
		var htmRegions, htmAborts, doorbells, doorbellVerbs float64
		for _, rec := range r.Trace {
			dropped += rec.Dropped()
			evs := rec.Events()
			events += uint64(len(evs))
			slots := coroutineSlots(evs)
			bySlot := map[int][]span{}
			for i, e := range evs {
				k := -1
				switch e.Kind {
				case obs.EvTxnCommit, obs.EvTxnAbort:
					k = kindTxn
				case obs.EvPhase:
					// Hot-key gate waits happen before an attempt
					// begins; the txn.gate.* metrics cover them.
					if e.Detail != txn.StageQueue {
						k = kindPhase
					}
				case obs.EvHTM:
					k = kindHTM
					htmRegions++
					if e.Detail != 0 {
						htmAborts++
					}
				case obs.EvDoorbell:
					k = kindDoorbell
					doorbells++
					doorbellVerbs += float64(e.Arg)
				case obs.EvYield:
					k = kindYield
				}
				if k >= 0 {
					bySlot[slots[i]] = append(bySlot[slots[i]], span{kind: k, start: e.Start, end: e.End})
				}
			}
			for _, spans := range bySlot {
				s := foldSelf(spans)
				for k := range self {
					self[k] += s[k]
				}
			}
		}
		add("trace.dropped_events", float64(dropped))
		add("trace.events", float64(events))
		add("trace.overhead_frac", traced.wall/base.wall-1)
		add("trace.virt_tps_diff_frac", relDiff(plain.res.TotalTPS, r.TotalTPS))
		add("txn.exec.self_virt_ns", float64(self[kindTxn])/commits)
		add("txn.phase.self_virt_ns", float64(self[kindPhase])/commits)
		add("htm.self_virt_ns", float64(self[kindHTM])/commits)
		add("rdma.doorbell_virt_ns", float64(self[kindDoorbell])/commits)
		add("sched.parked_virt_ns", float64(self[kindYield])/commits)
		add("htm.regions_per_commit", htmRegions/commits)
		add("htm.abort_frac", ratio(htmAborts, htmRegions))
		add("rdma.doorbells_per_commit", doorbells/commits)
		add("rdma.verbs_per_doorbell", ratio(doorbellVerbs, doorbells))
		for _, p := range reportedPhases {
			ps := r.Phases[p]
			add("txn.phase."+p.String()+".verbs", float64(ps.Verbs)/commits)
			add("txn.phase."+p.String()+".doorbells", float64(ps.Batches)/commits)
			add("txn.phase."+p.String()+".virt_ns", float64(ps.Nanos)/commits)
		}
		add("txn.abort_frac", r.AbortRate)
		add("txn.fallbacks_per_1k", float64(r.Fallbacks)/commits*1e3)
		add("txn.gate.queue_waits", float64(r.QueueWaits))
		if n := int(r.QueueWait.Count()); n > 0 {
			if q, err := tailQuantile(n, 0.99); err == nil {
				add("txn.gate.wait_tail_virt_us", histQuantile(&r.QueueWait, q)/1e3)
				add("txn.gate.wait_tail_q", q)
			}
		}
		add("txn.ro_verbs_per_100", float64(r.ROVerbs)/commits*100)
		add("sched.yields_per_commit", float64(r.Yields)/commits)
		add("sched.overlap_frac", ratio(float64(r.OverlapNanos), float64(r.OverlapNanos+r.StallNanos)))
		add("sched.stall_virt_ns", float64(r.StallNanos)/commits)
		add("harness.wall_us_per_txn", (plain.wall-st.totalS)/float64(plain.res.Committed)*1e6)
		add("fail_frac", failFrac(w.attempted(), r.Lat.All().Count()))
		add("lat.samples", float64(r.Lat.All().Count()))
		rep.note("traced rep %d seed %d: %d events, %d dropped; virt txn/s untraced %.0f traced %.0f; wall %.3fs vs %.3fs; abort %s",
			i, o.Seed, events, dropped, plain.res.TotalTPS, r.TotalTPS, plain.wall, traced.wall, r.AbortSummary(3))
		rep.note("traced rep %d: %s", i, r.CommitBreakdown())
	}
	for name, xs := range vals {
		rep.set(name, median(xs))
	}
	if d := rep.values["trace.dropped_events"]; d != 0 {
		return fmt.Errorf("%s: trace rings overwrote %.0f events; per-layer numbers would be partial", w.name, d)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// relDiff is |a-b| relative to their mean.
func relDiff(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return 2 * d / (a + b)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
