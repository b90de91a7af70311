// Package harness drives the paper's experiments: it builds a simulated
// cluster for a chosen system (DrTM+R with or without replication, DrTM,
// Calvin, Silo), loads a workload (TPC-C or SmallBank), runs worker threads
// for a fixed transaction count, and reports throughput in virtual time —
// committed transactions divided by the slowest worker's virtual elapsed
// time (see internal/sim for why virtual time, not wall-clock, is the right
// denominator for a simulated cluster).
package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"drtmr/internal/bench/smallbank"
	"drtmr/internal/bench/tpcc"
	"drtmr/internal/cluster"
	"drtmr/internal/htm"
	"drtmr/internal/obs"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// System selects the system under test.
type System int

// Systems.
const (
	SysDrTMR  System = iota // DrTM+R, no replication
	SysDrTMR3               // DrTM+R with 3-way replication
	SysDrTM                 // DrTM baseline (HTM+2PL, a-priori sets)
	SysCalvin               // Calvin baseline (deterministic, IPoIB)
	SysSilo                 // Silo baseline (single machine)
)

func (s System) String() string {
	switch s {
	case SysDrTMR:
		return "DrTM+R"
	case SysDrTMR3:
		return "DrTM+R/r=3"
	case SysDrTM:
		return "DrTM"
	case SysCalvin:
		return "Calvin"
	case SysSilo:
		return "Silo"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Workload selects the benchmark.
type Workload int

// Workloads.
const (
	WLTPCC Workload = iota
	WLSmallBank
)

// Options configures one experiment run.
type Options struct {
	System   System
	Workload Workload

	Nodes          int
	ThreadsPerNode int
	TxPerWorker    int

	// TPC-C knobs.
	WarehousesPerNode int
	CrossWarehouseNO  float64 // new-order remote supply probability
	CrossWarehousePay float64 // payment remote customer probability

	// SmallBank knobs.
	SBAccountsPerNode int
	SBRemoteProb      float64
	// SBHotFraction overrides the hot-set fraction of the account space
	// (0 keeps the workload default 0.04). FigContentionTail sweeps it as
	// the skew knob: smaller fraction = hotter records.
	SBHotFraction float64
	// SBReadOnlyFrac overrides the read-only (Balance) share of the
	// SmallBank mix (0 keeps the default mix). FigProtocolMatrix sweeps it:
	// read-only share is exactly where the commit protocols differ most.
	SBReadOnlyFrac float64

	// Protocol selects the commit protocol by registry name for DrTM+R
	// systems ("" = txn.DefaultProtocol, the DrTM+R HTM pipeline; "farm" =
	// the one-sided log-append pipeline). Baseline systems ignore it.
	Protocol string

	// CoroutinesPerWorker overrides txn.Engine.CoroutinesPerWorker for
	// DrTM+R systems: the number of in-flight transaction contexts each
	// worker multiplexes (doorbells become yield points, round-trips
	// overlap). 0 keeps the engine default; 1 is the no-overlap ablation.
	CoroutinesPerWorker int

	// Trace enables per-worker event tracing (DrTM+R systems): each worker
	// records txn/phase/HTM/doorbell/yield events into a preallocated ring
	// and Result.Trace carries the recorders for obs.WriteTrace export.
	Trace bool
	// TraceEventsPerWorker sizes each worker's ring (0 = obs.DefaultCapacity).
	// Rings overwrite oldest-first, so an undersized ring keeps the tail of
	// the run rather than failing.
	TraceEventsPerWorker int

	// DisableVerbBatching forwards the engine's sequential-verb ablation
	// knob (one full round-trip per verb instead of doorbell batches).
	DisableVerbBatching bool

	// ContentionMode forwards txn.Engine.ContentionMode (DrTM+R systems).
	// The zero value is ON — hot-key FIFO gates plus the commutative-delta
	// write path; txn.ContentionOff is the pure-OCC-retry ablation (under
	// which workload Adds degrade to read-modify-writes).
	ContentionMode txn.ContentionMode

	// History records every committed transaction's versioned read/write
	// sets (DrTM+R systems): Result.History carries one recorder per worker
	// and Result.HistoryTxns() the merged history for internal/check.
	History bool

	// Deterministic serializes every worker through a seeded schedule gate:
	// exactly one worker runs between scheduling points (transaction start,
	// doorbell, backoff), and the gate's seeded RNG picks who runs next. The
	// run's interleaving — and therefore its entire Result — becomes a pure
	// function of Options, which is what lets a torture-harness violation be
	// replayed from its seed. Requires an unreplicated system, no kill
	// injection, and the default (quiescent) failure-detector timing; Run
	// panics otherwise.
	Deterministic bool

	// Mutations forwards the protocol-breaking mutation-test switches to
	// every engine (internal/check's mutation mode; all-false = correct
	// protocol).
	Mutations txn.Mutations

	// KillAfter, when >0, kills machine KillNode after that wall-clock delay
	// mid-run (torture cells exercising recovery under load). Lease and
	// HeartbeatEvery then override the cluster's failure-detector timing so
	// the survivors actually detect the death within the run (0 keeps the
	// harness default: effectively never suspect).
	KillAfter      time.Duration
	KillNode       int
	Lease          time.Duration
	HeartbeatEvery time.Duration

	HTM  htm.Config
	Seed uint64
}

// Defaults fills unset fields with the paper's defaults.
func (o Options) Defaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 6
	}
	if o.ThreadsPerNode == 0 {
		o.ThreadsPerNode = 8
	}
	if o.TxPerWorker == 0 {
		o.TxPerWorker = 400
	}
	if o.WarehousesPerNode == 0 {
		o.WarehousesPerNode = o.ThreadsPerNode
	}
	if o.CrossWarehouseNO == 0 {
		o.CrossWarehouseNO = 0.01
	}
	if o.CrossWarehousePay == 0 {
		o.CrossWarehousePay = 0.15
	}
	if o.SBAccountsPerNode == 0 {
		o.SBAccountsPerNode = 10000
	}
	if o.SBRemoteProb == 0 {
		o.SBRemoteProb = 0.01
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Result is one experiment measurement.
type Result struct {
	System   System
	Workload Workload

	Committed uint64
	NewOrders uint64 // TPC-C only: the paper's headline metric

	VirtualSec   float64
	TotalTPS     float64
	NewOrderTPS  float64
	AbortRate    float64
	Fallbacks    uint64
	AvgLatencyUs float64

	// Virtual commit-latency percentiles from Lat (DrTM+R systems; zero
	// when the run recorded no histogram). AvgLatencyUs is the histogram
	// mean when Lat is present, the workers/throughput back-computation
	// otherwise.
	P50Us  float64
	P90Us  float64
	P99Us  float64
	P999Us float64

	// Lat holds the per-transaction-type virtual commit-latency histograms
	// (including retries; successful transactions only), merged across all
	// workers. Nil for baseline systems without the instrumented engine.
	Lat *obs.TypedHist

	// AbortMatrix attributes every abort to (reason, pipeline stage,
	// responsible site) — the structured replacement for the flat abort
	// counter. Always populated for DrTM+R systems, even without Trace.
	AbortMatrix obs.AbortMatrix

	// Trace carries each worker's event recorder when Options.Trace was
	// set; export with obs.WriteTrace(w, r.Trace, TraceNames()).
	Trace []*obs.Recorder

	// Phases aggregates the commit pipeline's per-phase verb / doorbell /
	// virtual-latency counters across all workers (DrTM+R systems only;
	// see txn.CommitPhase). CommitBreakdown renders it.
	Phases [txn.NumPhases]txn.PhaseStat

	// History carries each worker's transaction-history recorder when
	// Options.History was set; HistoryTxns() merges them for internal/check.
	History []*obs.HistoryRecorder

	// Coroutine overlap aggregates (DrTM+R with CoroutinesPerWorker > 1):
	// scheduling yields taken, virtual time of fabric round-trips hidden
	// behind other in-flight transactions vs. still stalling the worker,
	// and the peak in-flight transaction count seen on any single worker.
	Yields       uint64
	OverlapNanos uint64
	StallNanos   uint64
	MaxInFlight  uint64

	// Read-only footprint aggregates (DrTM+R systems; see txn.Stats). ROVerbs
	// counts one-sided commit verbs spent on records read but not written —
	// the per-protocol cost of a read-only record. ROWakeups counts CPU
	// deliveries (RPCs, log appends) to machines participating only as
	// read sources; both shipped protocols keep it at zero by construction,
	// and the figure reports the measured value rather than assuming it.
	ROVerbs   uint64
	ROWakeups uint64

	// Contention-manager aggregates (DrTM+R systems). HotKeys ranks records
	// by attributed abort count, worst first — the per-key complement of
	// AbortMatrix. QueueWaits counts hot-key FIFO admissions that polled
	// behind a holder; QueueWait is the merged histogram of their positive
	// virtual wait times (it can count fewer than QueueWaits: a worker with
	// no sibling coroutines waits at zero virtual cost).
	HotKeys    []KeyAborts
	QueueWaits uint64
	QueueWait  obs.Histogram
}

// KeyAborts is one record's attributed abort count (Result.HotKeys).
type KeyAborts struct {
	Key    txn.HotKey
	Aborts uint64
}

// CommitBreakdown renders the per-phase commit-latency breakdown: average
// one-sided verbs, doorbell batches and virtual microseconds per committed
// transaction. Empty for systems without the instrumented pipeline.
func (r Result) CommitBreakdown() string {
	if r.Committed == 0 {
		return ""
	}
	var parts []string
	for p := txn.CommitPhase(0); p < txn.NumPhases; p++ {
		ps := r.Phases[p]
		if ps.Batches == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.2f verbs in %.2f doorbells, %.2fus",
			p,
			float64(ps.Verbs)/float64(r.Committed),
			float64(ps.Batches)/float64(r.Committed),
			float64(ps.Nanos)/float64(r.Committed)/1e3))
	}
	if len(parts) == 0 {
		return ""
	}
	if r.Yields > 0 {
		parts = append(parts, fmt.Sprintf("coroutine overlap %.1f yields, %.2fus hidden, %.2fus stalled, peak %d in-flight/worker",
			float64(r.Yields)/float64(r.Committed),
			float64(r.OverlapNanos)/float64(r.Committed)/1e3,
			float64(r.StallNanos)/float64(r.Committed)/1e3,
			r.MaxInFlight))
	}
	return "commit breakdown per txn: " + strings.Join(parts, "; ")
}

func (r Result) String() string {
	lat := fmt.Sprintf("lat=%6.1fus", r.AvgLatencyUs)
	if r.Lat != nil && r.Lat.All().Count() > 0 {
		lat = fmt.Sprintf("lat=%6.1fus p50=%6.1fus p99=%6.1fus", r.AvgLatencyUs, r.P50Us, r.P99Us)
	}
	if r.Workload == WLTPCC {
		return fmt.Sprintf("%-10s total=%9.0f txns/s  new-order=%9.0f txns/s  abort=%5.1f%%  %s",
			r.System, r.TotalTPS, r.NewOrderTPS, r.AbortRate*100, lat)
	}
	return fmt.Sprintf("%-10s total=%9.0f txns/s  abort=%5.1f%%  %s",
		r.System, r.TotalTPS, r.AbortRate*100, lat)
}

// AbortSummary renders the top abort-attribution cells as
// "reason@stage→nSITE:count" terms, worst first, followed by the top-K hot
// keys ("tTABLE/kKEY:count") so table notes show WHICH records drive the
// tail, not just reason×stage×site. Empty when nothing aborted.
func (r Result) AbortSummary(topN int) string {
	s := r.AbortMatrix.Summary(topN, abortReasonName, txn.StageName)
	if len(r.HotKeys) == 0 {
		return s
	}
	terms := make([]string, 0, topN)
	for i, hk := range r.HotKeys {
		if topN > 0 && i >= topN {
			break
		}
		terms = append(terms, fmt.Sprintf("t%d/k%d:%d", hk.Key.Table, hk.Key.Key, hk.Aborts))
	}
	hot := "hot keys " + strings.Join(terms, " ")
	if s == "" {
		return hot
	}
	return s + "; " + hot
}

// rankHotKeys flattens the merged per-key abort counters, worst first
// (ties break on table then key so the ordering is deterministic).
func rankHotKeys(agg map[txn.HotKey]uint64) []KeyAborts {
	if len(agg) == 0 {
		return nil
	}
	out := make([]KeyAborts, 0, len(agg))
	for k, v := range agg {
		out = append(out, KeyAborts{Key: k, Aborts: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Aborts != out[j].Aborts {
			return out[i].Aborts > out[j].Aborts
		}
		if out[i].Key.Table != out[j].Key.Table {
			return out[i].Key.Table < out[j].Key.Table
		}
		return out[i].Key.Key < out[j].Key.Key
	})
	return out
}

func abortReasonName(c uint8) string { return txn.AbortReason(c).String() }

// TraceNames wires the transaction engine's stage/reason/HTM-cause namers
// into the trace exporter; pass it to obs.WriteTrace for Result.Trace.
func TraceNames() obs.TraceNames {
	return obs.TraceNames{
		Stage:  txn.StageName,
		Reason: abortReasonName,
		Cause:  func(c uint8) string { return htm.AbortCause(c).String() },
	}
}

// typeNamesFor returns the workload's transaction-type names in TxType order.
func typeNamesFor(w Workload) []string {
	if w == WLTPCC {
		return tpcc.TypeNames()
	}
	return smallbank.TypeNames()
}

// replicasFor maps the system to its replication degree.
func replicasFor(s System) int {
	if s == SysDrTMR3 {
		return 3
	}
	return 1
}

// Run executes one experiment.
func Run(o Options) Result {
	o = o.Defaults()
	switch o.System {
	case SysDrTMR, SysDrTMR3:
		return runDrTMR(o)
	case SysDrTM, SysCalvin, SysSilo:
		return runBaseline(o)
	default:
		panic("harness: unknown system")
	}
}

// buildCluster creates a cluster, per-machine stores and loads the workload
// (primaries and backups).
func buildCluster(o Options, replicas int) (*cluster.Cluster, interface{}) {
	// Throughput experiments never kill machines; an effectively infinite
	// lease prevents false suspicions while the host oversubscribes its
	// cores running worker goroutines. Kill-injection runs override both
	// timings so the survivors detect the death within the run, and
	// deterministic runs stretch the heartbeat period so detector aux-QP
	// traffic never perturbs the NIC queues mid-schedule.
	lease, heartbeat := time.Hour, time.Duration(0)
	if o.Lease > 0 {
		lease = o.Lease
	}
	if o.HeartbeatEvery > 0 {
		heartbeat = o.HeartbeatEvery
	}
	if o.Deterministic {
		heartbeat = time.Hour
	}
	c := cluster.New(cluster.Spec{
		Nodes:          o.Nodes,
		Replicas:       replicas,
		MemBytes:       memFor(o),
		HTM:            o.HTM,
		RDMA:           rdma.Config{NICBytesPerSec: rdma.NICBandwidth56G},
		Lease:          lease,
		HeartbeatEvery: heartbeat,
	})
	cfg0 := c.Coord.Current()
	switch o.Workload {
	case WLTPCC:
		wcfg := tpccConfig(o)
		for _, m := range c.Machines {
			tpcc.CreateTables(m.Store, wcfg)
		}
		for n := 0; n < o.Nodes; n++ {
			if err := tpcc.Load(c.Machines[n].Store, wcfg, n, o.Seed+uint64(n)); err != nil {
				panic(err)
			}
			for _, b := range cfg0.BackupsOf(cluster.ShardID(n)) {
				for _, w := range wcfg.WarehousesOf(n) {
					if err := tpcc.LoadWarehouse(c.Machines[b].Store, w, sim.NewRand(o.Seed+uint64(n)*31+uint64(b))); err != nil {
						panic(err)
					}
				}
			}
		}
		return c, wcfg
	case WLSmallBank:
		hot := o.SBHotFraction
		if hot == 0 {
			hot = 0.04
		}
		wcfg := smallbank.Config{
			AccountsPerNode: o.SBAccountsPerNode,
			Nodes:           o.Nodes,
			RemoteProb:      o.SBRemoteProb,
			HotFraction:     hot,
			ReadOnlyFrac:    o.SBReadOnlyFrac,
			InitialBalance:  10000,
		}
		for _, m := range c.Machines {
			smallbank.CreateTables(m.Store, wcfg)
		}
		for s := 0; s < o.Nodes; s++ {
			shard := cluster.ShardID(s)
			nodes := append([]rdma.NodeID{cfg0.PrimaryOf(shard)}, cfg0.BackupsOf(shard)...)
			for _, nd := range nodes {
				if err := smallbank.Load(c.Machines[nd].Store, wcfg, shard); err != nil {
					panic(err)
				}
			}
		}
		return c, wcfg
	default:
		panic("harness: unknown workload")
	}
}

// tpccConfig is the TPC-C deployment o describes.
func tpccConfig(o Options) tpcc.Config {
	return tpcc.Config{
		Nodes:              o.Nodes,
		WarehousesPerNode:  o.WarehousesPerNode,
		RemoteNewOrderProb: o.CrossWarehouseNO,
		RemotePaymentProb:  o.CrossWarehousePay,
	}
}

func memFor(o Options) int {
	if o.Workload == WLTPCC {
		// ~3MB per warehouse (stock dominates) x copies + slack.
		per := 4 << 20
		need := o.WarehousesPerNode * per * 3
		if need < 64<<20 {
			need = 64 << 20
		}
		return need
	}
	need := o.SBAccountsPerNode * 2 * 128 * 3
	if need < 32<<20 {
		need = 32 << 20
	}
	return need
}

// runDrTMR measures DrTM+R (with or without replication).
func runDrTMR(o Options) Result {
	replicas := replicasFor(o.System)
	c, wcfgAny := buildCluster(o, replicas)
	defer c.Stop()

	var engines []*txn.Engine
	switch o.Workload {
	case WLTPCC:
		wcfg := wcfgAny.(tpcc.Config)
		for _, m := range c.Machines {
			engines = append(engines, txn.NewEngine(m, wcfg.Partitioner(m.ID), txn.DefaultCosts()))
		}
	case WLSmallBank:
		wcfg := wcfgAny.(smallbank.Config)
		for _, m := range c.Machines {
			engines = append(engines, txn.NewEngine(m, wcfg.Partitioner(), txn.DefaultCosts()))
		}
	}
	if o.CoroutinesPerWorker > 0 {
		for _, e := range engines {
			e.CoroutinesPerWorker = o.CoroutinesPerWorker
		}
	}
	for _, e := range engines {
		e.DisableVerbBatching = o.DisableVerbBatching
		e.ContentionMode = o.ContentionMode
		e.Mut = o.Mutations
		e.Protocol = o.Protocol
	}
	c.Start()

	var gate *stepGate
	if o.Deterministic {
		if replicas != 1 {
			panic("harness: Deterministic requires an unreplicated system")
		}
		if o.KillAfter > 0 {
			panic("harness: Deterministic requires no kill injection")
		}
		gate = newStepGate(o.Seed^0x9E3779B97F4A7C15, o.Nodes*o.ThreadsPerNode)
	}
	var ticks *obs.TickSource
	if o.History {
		ticks = obs.NewTickSource()
	}
	if o.KillAfter > 0 {
		victim := rdma.NodeID(o.KillNode)
		//drtmr:allow virtualtime the fault-injection instant is harness wall time, outside the replayed schedule
		killTimer := time.AfterFunc(o.KillAfter, func() { c.Kill(victim) })
		defer killTimer.Stop()
	}

	typeNames := typeNamesFor(o.Workload)
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		newOrders  uint64
		maxVirtual int64
		agg        txn.Stats
		latAgg     = obs.NewTypedHist(typeNames...)
		recorders  []*obs.Recorder
		histories  []*obs.HistoryRecorder
	)
	for n := 0; n < o.Nodes; n++ {
		for t := 0; t < o.ThreadsPerNode; t++ {
			wg.Add(1)
			go func(node, tid int) {
				defer wg.Done()
				w := engines[node].NewWorker(tid)
				if gate != nil {
					gid := node*o.ThreadsPerNode + tid
					w.SetGate(gate.stepFn(gid))
					defer gate.finish(gid)
				}
				if ticks != nil {
					w.EnableHistory(ticks)
				}
				if o.Trace {
					w.EnableTrace(o.TraceEventsPerWorker)
				}
				// Per-worker histogram of virtual commit latency (measured
				// around each successful transaction, retries included),
				// merged under the lock after the run.
				lat := obs.NewTypedHist(typeNames...)
				var localNO uint64
				// The worker multiplexes its TxPerWorker budget over N
				// coroutines (strict handoff keeps the shared countdown and
				// generator state single-threaded); N=1 runs the classic
				// sequential loop.
				ncoro := engines[node].CoroutinesPerWorker
				remaining := o.TxPerWorker
				switch o.Workload {
				case WLTPCC:
					wcfg := wcfgAny.(tpcc.Config)
					whs := wcfg.WarehousesOf(node)
					home := whs[tid%len(whs)]
					ex := tpcc.NewExecutor(w, tpcc.NewGen(wcfg, home, o.Seed+uint64(node*100+tid)))
					w.RunCoroutines(ncoro, func(int) {
						for remaining > 0 && !engines[node].M.Dead() {
							remaining--
							s := w.Clk.Now()
							ty, err := ex.RunOne()
							if err != nil {
								continue
							}
							lat.Record(int(ty), w.Clk.Now()-s)
							if ty == tpcc.TxNewOrder {
								localNO++
							}
						}
					})
				case WLSmallBank:
					wcfg := wcfgAny.(smallbank.Config)
					g := smallbank.NewGen(wcfg, cluster.ShardID(node), o.Seed+uint64(node*100+tid))
					w.RunCoroutines(ncoro, func(int) {
						for remaining > 0 && !engines[node].M.Dead() {
							remaining--
							p := g.Next()
							s := w.Clk.Now()
							if smallbank.Execute(w, p) == nil {
								lat.Record(int(p.Type), w.Clk.Now()-s)
							}
						}
					})
				}
				mu.Lock()
				agg.Merge(&w.Stats)
				newOrders += localNO
				latAgg.Merge(lat)
				if w.Rec != nil {
					recorders = append(recorders, w.Rec)
				}
				if w.Hist != nil {
					histories = append(histories, w.Hist)
				}
				if v := w.Clk.Now(); v > maxVirtual {
					maxVirtual = v
				}
				mu.Unlock()
			}(n, t)
		}
	}
	wg.Wait()
	r := summarize(o, agg.Committed, newOrders, agg.AbortsTotal(), agg.Fallbacks, maxVirtual)
	r.Phases = agg.Phases
	r.Yields = agg.CoYields
	r.OverlapNanos = agg.CoOverlapNanos
	r.StallNanos = agg.CoStallNanos
	r.MaxInFlight = agg.CoMaxInFlight
	r.Lat = latAgg
	r.AbortMatrix = agg.AbortCells
	r.HotKeys = rankHotKeys(agg.KeyAborts)
	r.ROVerbs = agg.ROVerbs
	r.ROWakeups = agg.ROWakeups
	r.QueueWaits = agg.QueueWaits
	r.QueueWait = agg.QueueWaitHist
	r.Trace = recorders
	r.History = histories
	r.applyHistogram()
	return r
}

// HistoryTxns merges every worker's recorded transactions into one history,
// ordered by invocation tick (globally unique, so the order is total and
// independent of the goroutine-completion order the recorders were
// collected in).
func (r Result) HistoryTxns() []obs.HistTxn {
	var out []obs.HistTxn
	for _, h := range r.History {
		out = append(out, h.Txns()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Invoke < out[j].Invoke })
	return out
}

// applyHistogram derives the latency summary fields from Lat. The mean
// REPLACES summarize's workers/throughput back-computation: the two agree
// only when each worker runs one transaction at a time (CoroutinesPerWorker
// = 1; see TestAvgLatencyAgreesWithHistogram) — with N in-flight contexts a
// transaction's latency includes the virtual time peers consume while it is
// parked, which the back-computation divides away.
func (r *Result) applyHistogram() {
	all := r.Lat.All()
	if all.Count() == 0 {
		return
	}
	r.AvgLatencyUs = all.Mean() / 1e3
	r.P50Us = all.Quantile(0.50) / 1e3
	r.P90Us = all.Quantile(0.90) / 1e3
	r.P99Us = all.Quantile(0.99) / 1e3
	r.P999Us = all.Quantile(0.999) / 1e3
}

func summarize(o Options, committed, newOrders, aborts, fallbacks uint64, maxVirtual int64) Result {
	vs := float64(maxVirtual) / 1e9
	if vs <= 0 {
		vs = 1e-9
	}
	r := Result{
		System:     o.System,
		Workload:   o.Workload,
		Committed:  committed,
		NewOrders:  newOrders,
		VirtualSec: vs,
		Fallbacks:  fallbacks,
	}
	r.TotalTPS = float64(committed) / vs
	r.NewOrderTPS = float64(newOrders) / vs
	if committed+aborts > 0 {
		r.AbortRate = float64(aborts) / float64(committed+aborts)
	}
	if committed > 0 {
		workers := float64(o.Nodes * o.ThreadsPerNode)
		r.AvgLatencyUs = vs / (float64(committed) / workers) * 1e6
	}
	return r
}
