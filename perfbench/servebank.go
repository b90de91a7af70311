package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drtmr"
	"drtmr/internal/bench/smallbank"
	"drtmr/internal/cluster"
	"drtmr/internal/htm"
	"drtmr/internal/rdma"
	"drtmr/internal/serve"
	"drtmr/internal/serve/client"
	"drtmr/internal/sim"
)

// serve-bank-r3: drtmr-serve over loopback TCP in front of a 3-node,
// 3-way-replicated SmallBank cluster. A closed-loop phase measures
// capacity, then an open-loop Poisson phase at a fixed rate measures the
// latency a client waits for, from each call's scheduled send time.
const (
	bankNodes       = 3
	bankReplicas    = 3
	bankAccounts    = 10000 // per node
	bankExecutors   = 2     // per node
	bankConns       = 2     // client connections, closed and open loop alike
	bankOpenRate    = 16000 // open-loop calls/s, about half the closed-loop capacity
	bankSkew        = 0.9   // Zipf theta over all accounts
	bankBalanceFrac = 0.30
	bankDepositFrac = 0.20 // the remaining 50% are payments
	bankWarmup      = 500 * time.Millisecond
	bankChunk       = 500 // accounts per read-only transaction in the money check
	// sampleEvery is the traced run's admission-queue sampling period.
	sampleEvery = 2 * time.Millisecond
)

// Procedures, in the order of procNames.
const (
	procBalance = iota
	procDeposit
	procPayment
	numProcs
)

var procNames = [numProcs]string{"balance", "deposit", "payment"}

// call is one generated stored-procedure invocation.
type call struct {
	proc         uint8
	acct1, acct2 uint32
	amount       uint32
}

func (c call) args() []byte {
	switch c.proc {
	case procBalance:
		return serve.EncBalanceReq(uint64(c.acct1))
	case procDeposit:
		return serve.EncDeposit(uint64(c.acct1), uint64(c.amount))
	default:
		return serve.EncPayment(uint64(c.acct1), uint64(c.acct2), uint64(c.amount))
	}
}

// genCalls draws n calls of the bank mix.
func genCalls(rng *sim.Rand, n int) []call {
	accounts := bankNodes * bankAccounts
	out := make([]call, n)
	for i := range out {
		c := call{acct1: uint32(rng.Zipf(accounts, bankSkew)), amount: uint32(1 + rng.Intn(100))}
		switch p := rng.Float64(); {
		case p < bankBalanceFrac:
			c.proc = procBalance
		case p < bankBalanceFrac+bankDepositFrac:
			c.proc = procDeposit
		default:
			c.proc = procPayment
			c.acct2 = uint32(rng.Zipf(accounts, bankSkew))
			if c.acct2 == c.acct1 {
				c.acct2 = (c.acct1 + 1) % uint32(accounts)
			}
		}
		out[i] = c
	}
	return out
}

func bankConfig() smallbank.Config {
	cfg := smallbank.DefaultConfig(bankNodes)
	cfg.AccountsPerNode = bankAccounts
	return cfg
}

// outcomes counts every offered call into exactly one bucket.
type outcomes struct {
	offered, ok, busy, deadline, badRequest, errs uint64
	deposited                                     uint64 // acknowledged deposit amounts
}

func (o *outcomes) record(c call, err error) {
	o.offered++
	var re *client.RequestError
	switch {
	case err == nil:
		o.ok++
		if c.proc == procDeposit {
			o.deposited += uint64(c.amount)
		}
	case client.IsBusy(err):
		o.busy++
	case client.IsDeadline(err):
		o.deadline++
	case errors.As(err, &re):
		o.badRequest++
	default:
		o.errs++
	}
}

func (o *outcomes) add(p outcomes) {
	o.offered += p.offered
	o.ok += p.ok
	o.busy += p.busy
	o.deadline += p.deadline
	o.badRequest += p.badRequest
	o.errs += p.errs
	o.deposited += p.deposited
}

// since returns the calls counted after the snapshot p of o.
func (o outcomes) since(p outcomes) outcomes {
	return outcomes{
		offered: o.offered - p.offered, ok: o.ok - p.ok, busy: o.busy - p.busy,
		deadline: o.deadline - p.deadline, badRequest: o.badRequest - p.badRequest,
		errs: o.errs - p.errs, deposited: o.deposited - p.deposited,
	}
}

// dropped is the number of offered calls that landed in no bucket.
func (o *outcomes) dropped() uint64 {
	return o.offered - (o.ok + o.busy + o.deadline + o.badRequest + o.errs)
}

// bankSetup times the public calls serve.OpenBank makes (drtmr.Open, then
// the SmallBank loader on every shard's primary and backups).
func bankSetup() setupStats {
	cfg := bankConfig()
	var news, loads, totals, mems []float64
	for i := 0; i < setupPasses; i++ {
		runtime.GC()
		t0 := time.Now()
		db, err := drtmr.Open(drtmr.Options{Nodes: cfg.Nodes, Replicas: bankReplicas, Partitioner: cfg.Partitioner()})
		if err != nil {
			panic(err)
		}
		t1 := time.Now()
		c := db.Cluster()
		for _, m := range c.Machines {
			smallbank.CreateTables(m.Store, cfg)
		}
		cfg0 := c.Coord.Current()
		for s := 0; s < cfg.Nodes; s++ {
			shard := cluster.ShardID(s)
			for _, nd := range append([]rdma.NodeID{cfg0.PrimaryOf(shard)}, cfg0.BackupsOf(shard)...) {
				if err := smallbank.Load(c.Machines[nd].Store, cfg, shard); err != nil {
					panic(err)
				}
			}
		}
		t2 := time.Now()
		news = append(news, t1.Sub(t0).Seconds())
		loads = append(loads, t2.Sub(t1).Seconds())
		totals = append(totals, t2.Sub(t0).Seconds())
		mems = append(mems, liveHeapMiB())
		runtime.KeepAlive(db)
		db.Close()
	}
	return setupStats{newS: median(news), loadS: median(loads), totalS: median(totals),
		memMiB: median(mems), rows: cfg.Nodes * cfg.AccountsPerNode * 2 * bankReplicas, passes: totals}
}

// bankInstances is how many server lifetimes one run measures. The run
// reports medians across them, so one unlucky process layout does not set
// its figures.
const bankInstances = 4

// bankRun accumulates one run's measurements over its server instances.
type bankRun struct {
	mu  sync.Mutex
	out outcomes
	// rtt holds traced calls' round trips (actual send to reply, ns), by
	// procedure; spans beyond rttCap count as dropped.
	rtt      [numProcs][]int64
	rttCap   int
	rttDrops uint64
	fromDue  []int64 // open loop, OK calls: completion minus scheduled send, ns
	late     []int64 // open loop, traced: actual minus scheduled send, ns
	// Per-instance open-loop p50 and p90 of fromDue, us.
	openP50, openP90 []float64

	// Closed-loop calls/s per instance: satTPS is the measured loop (timed
	// per call in a traced run), plainTPS a traced run's untimed baseline.
	satTPS, plainTPS []float64

	// Traced phases only: calls offered, summed counter deltas, per-instance
	// service-time percentiles and the deepest admission queue sampled.
	calls          float64
	committed      float64
	aborts         float64
	fallbacks      float64
	admitted       float64
	shedBusy       float64
	htmD           htm.StatsSnapshot
	nicD           rdma.StatsSnapshot
	svcP50, svcP99 [numProcs][]float64
	depthMax       int64
}

// instance drives one live server through its client pool.
type instance struct {
	b  *bankRun
	cl *client.Client
}

func (b *bankRun) merge(out outcomes, rtt *[numProcs][]int64, drops uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.out.add(out)
	for p := range rtt {
		b.rtt[p] = append(b.rtt[p], rtt[p]...)
	}
	b.rttDrops += drops
}

func (b *bankRun) keepRTT(per *[numProcs][]int64, drops *uint64, proc uint8, d time.Duration) {
	if len(per[proc]) < b.rttCap {
		per[proc] = append(per[proc], int64(d))
	} else {
		*drops++
	}
}

// closedLoop has bankConns clients call back to back for d, drawing calls
// in order from calls, and returns the calls completed OK per second.
func (in *instance) closedLoop(calls []call, d time.Duration, traced bool) float64 {
	var next atomic.Uint64
	var okTotal atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for u := 0; u < bankConns; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out outcomes
			var rtt [numProcs][]int64
			var drops uint64
			for time.Since(start) < d {
				c := calls[next.Add(1)%uint64(len(calls))]
				t0 := time.Now()
				_, err := in.cl.Call(procNames[c.proc], c.args())
				if traced && err == nil {
					in.b.keepRTT(&rtt, &drops, c.proc, time.Since(t0))
				}
				out.record(c, err)
			}
			okTotal.Add(out.ok)
			in.b.merge(out, &rtt, drops)
		}()
	}
	wg.Wait()
	return float64(okTotal.Load()) / time.Since(start).Seconds()
}

// openLoop sends calls on a Poisson schedule at bankOpenRate for d, from
// bankConns senders. A sender sleeps until its next call is due and sends
// at once when it is already late, so a stall delays later calls and the
// latency clock starts at the scheduled time.
func (in *instance) openLoop(rng *sim.Rand, d time.Duration, traced bool) error {
	n := int(bankOpenRate * d.Seconds())
	calls := genCalls(rng, n)
	due := make([]int64, n)
	var at float64
	for i := range due {
		at += -math.Log(1-rng.Float64()) / bankOpenRate
		due[i] = int64(at * float64(time.Second))
	}
	done := make([]int64, n)
	sent := make([]int64, n)
	okCall := make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for u := 0; u < bankConns; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out outcomes
			var rtt [numProcs][]int64
			var drops uint64
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				c := calls[i]
				if wait := time.Duration(due[i]) - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				var t0 time.Time
				if traced {
					t0 = time.Now()
					sent[i] = int64(t0.Sub(start))
				}
				_, err := in.cl.Call(procNames[c.proc], c.args())
				done[i] = int64(time.Since(start))
				if err == nil {
					okCall[i] = true
					if traced {
						in.b.keepRTT(&rtt, &drops, c.proc, time.Since(t0))
					}
				}
				out.record(c, err)
			}
			in.b.merge(out, &rtt, drops)
		}()
	}
	wg.Wait()
	var fromDue []int64
	for i := range due {
		if okCall[i] {
			fromDue = append(fromDue, done[i]-due[i])
		}
	}
	if err := checkTail(len(fromDue), 0.90); err != nil {
		return err
	}
	sort.Slice(fromDue, func(i, j int) bool { return fromDue[i] < fromDue[j] })
	in.b.openP50 = append(in.b.openP50, sampleQuantile(fromDue, 0.50)/1e3)
	in.b.openP90 = append(in.b.openP90, sampleQuantile(fromDue, 0.90)/1e3)
	in.b.fromDue = append(in.b.fromDue, fromDue...)
	if traced {
		in.b.late = append(in.b.late, lateness(due, sent)...)
	}
	return nil
}

// readTotal sums every checking and savings balance through a drtmr
// session, a chunk of accounts per read-only transaction.
func readTotal(db *drtmr.DB) (uint64, error) {
	sess := db.Session(0)
	accounts := uint64(bankNodes * bankAccounts)
	var total uint64
	for lo := uint64(0); lo < accounts; lo += bankChunk {
		hi := min(lo+bankChunk, accounts)
		var sum uint64
		err := sess.View(func(tx *drtmr.Tx) error {
			sum = 0
			for a := lo; a < hi; a++ {
				for _, t := range []drtmr.TableID{smallbank.TableChecking, smallbank.TableSavings} {
					v, err := tx.Read(t, a)
					if err != nil {
						return err
					}
					sum += smallbank.DecBalance(v)
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		total += sum
	}
	return total, nil
}

// engineTotals sums the HTM engines' and NICs' counters over the cluster.
func engineTotals(db *drtmr.DB) (htm.StatsSnapshot, rdma.StatsSnapshot) {
	var h htm.StatsSnapshot
	var n rdma.StatsSnapshot
	c := db.Cluster()
	for _, m := range c.Machines {
		s := m.Eng.Snapshot()
		h.Begins += s.Begins
		h.Commits += s.Commits
		h.Conflicts += s.Conflicts
		ns := c.Net.NIC(m.ID).Snapshot()
		n.Reads += ns.Reads
		n.Writes += ns.Writes
		n.Atomics += ns.Atomics
		n.BytesOut += ns.BytesOut
	}
	return h, n
}

// instance opens a server, drives it for d and checks its outputs.
func (b *bankRun) instance(rng *sim.Rand, d time.Duration, traced bool) error {
	cfg := bankConfig()
	db, err := serve.OpenBank(cfg, bankReplicas)
	if err != nil {
		return err
	}
	srv := serve.New(db, serve.Options{WorkersPerNode: bankExecutors})
	if err := serve.RegisterBank(srv, cfg, serve.BankProcs{}); err != nil {
		db.Close()
		return err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		db.Close()
		return err
	}
	in := &instance{b: b, cl: client.New(client.Options{Addr: addr.String(), MaxConns: bankConns})}
	defer func() {
		in.cl.Close()
		srv.Close()
	}()
	prior := b.out

	calls := genCalls(rng, 1<<18)
	in.closedLoop(calls, bankWarmup, false)
	if !traced {
		b.satTPS = append(b.satTPS, in.closedLoop(calls, d/2, false))
		if err := in.openLoop(rng, d/2, false); err != nil {
			return err
		}
	} else {
		b.plainTPS = append(b.plainTPS, in.closedLoop(calls, d/4, false))
		s0 := srv.Snapshot()
		h0, n0 := engineTotals(db)
		offered := b.out.offered
		stop, sampled := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(sampled)
			t := time.NewTicker(sampleEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if q := srv.Snapshot().Admission.QueueDepth; q > b.depthMax {
						b.depthMax = q
					}
				}
			}
		}()
		b.satTPS = append(b.satTPS, in.closedLoop(calls, d/4, true))
		err := in.openLoop(rng, d/2, true)
		close(stop)
		<-sampled
		if err != nil {
			return err
		}
		s1 := srv.Snapshot()
		h1, n1 := engineTotals(db)
		b.calls += float64(b.out.offered - offered)
		b.committed += float64(s1.Committed - s0.Committed)
		b.aborts += float64(s1.Aborts - s0.Aborts)
		b.fallbacks += float64(s1.Fallbacks - s0.Fallbacks)
		b.admitted += float64(s1.Admission.Admitted - s0.Admission.Admitted)
		b.shedBusy += float64(s1.Admission.ShedBusy - s0.Admission.ShedBusy)
		b.htmD.Begins += h1.Begins - h0.Begins
		b.htmD.Commits += h1.Commits - h0.Commits
		b.htmD.Conflicts += h1.Conflicts - h0.Conflicts
		b.nicD.Reads += n1.Reads - n0.Reads
		b.nicD.Writes += n1.Writes - n0.Writes
		b.nicD.Atomics += n1.Atomics - n0.Atomics
		b.nicD.BytesOut += n1.BytesOut - n0.BytesOut
		for _, ps := range s1.Procs {
			for p, name := range procNames {
				if name == ps.Name {
					b.svcP50[p] = append(b.svcP50[p], ps.P50Us)
					b.svcP99[p] = append(b.svcP99[p], ps.P99Us)
				}
			}
		}
	}

	// Output checks: every call lands in one outcome bucket, none failed,
	// and the bank's money is conserved.
	mine := b.out.since(prior)
	if n := mine.dropped(); n != 0 {
		return fmt.Errorf("%d of %d offered calls landed in no outcome bucket", n, mine.offered)
	}
	if mine.ok != mine.offered {
		return fmt.Errorf("%d of %d calls failed (busy %d, deadline %d, bad request %d, errors %d)",
			mine.offered-mine.ok, mine.offered, mine.busy, mine.deadline, mine.badRequest, mine.errs)
	}
	total, err := readTotal(db)
	if err != nil {
		return fmt.Errorf("reading balances: %w", err)
	}
	return checkMoney(total, uint64(bankNodes*bankAccounts)*2*cfg.InitialBalance, mine.deposited)
}

func runServeBank(cfg runConfig, rep *report) error {
	st := bankSetup()
	rep.note("set-up passes (s): %.3f", st.passes)
	b := &bankRun{rttCap: int(cfg.measure.Seconds() * 40000)}
	defer func() { rep.attempted, rep.failed = b.out.offered, b.out.offered-b.out.ok }()
	rng := sim.NewRand(cfg.seed)
	for i := 0; i < bankInstances; i++ {
		if err := b.instance(rng, cfg.measure/bankInstances, cfg.trace); err != nil {
			return fmt.Errorf("serve-bank-r3 instance %d: %w", i, err)
		}
	}
	sort.Slice(b.fromDue, func(i, j int) bool { return b.fromDue[i] < b.fromDue[j] })
	rep.note("%d calls over %d server instances, all OK, money conserved in each", b.out.offered, bankInstances)
	rep.note("closed loop calls/s per instance %.0f on %d connections; open loop %d calls at %d/s",
		b.satTPS, bankConns, len(b.fromDue), bankOpenRate)
	if !cfg.trace {
		rep.set("setup_s", st.totalS)
		rep.set("mem_mb", st.memMiB)
		rep.set("user_tps", median(b.satTPS))
		rep.set("wall_tps", median(b.satTPS))
		rep.set("user_p50_us", median(b.openP50))
		rep.set("user_tail_us", median(b.openP90))
		rep.set("ok_frac", 1-failFrac(b.out.offered, b.out.ok))
		rep.note("open-loop p50 per instance %.0fus, p90 %.0fus (user_* take the median); p99 over all %d samples %.0fus",
			b.openP50, b.openP90, len(b.fromDue), sampleQuantile(b.fromDue, 0.99)/1e3)
		return nil
	}

	rep.set("cluster.new_s", st.newS)
	rep.set("memstore.load_s", st.loadS)
	rep.set("memstore.rows_loaded", float64(st.rows))
	rep.set("memstore.load_ns_per_row", st.loadS*1e9/float64(st.rows))
	rep.set("txn.abort_frac", ratio(b.aborts, b.committed+b.aborts))
	rep.set("txn.fallbacks_per_1k", ratio(b.fallbacks, b.committed)*1e3)
	begins := float64(b.htmD.Begins)
	rep.set("htm.regions_per_commit", ratio(begins, b.committed))
	rep.set("htm.abort_frac", ratio(begins-float64(b.htmD.Commits), begins))
	rep.set("htm.conflicts_per_call", float64(b.htmD.Conflicts)/b.calls)
	rep.set("rdma.reads_per_call", float64(b.nicD.Reads)/b.calls)
	rep.set("rdma.writes_per_call", float64(b.nicD.Writes)/b.calls)
	rep.set("rdma.atomics_per_call", float64(b.nicD.Atomics)/b.calls)
	rep.set("rdma.bytes_out_per_call", float64(b.nicD.BytesOut)/b.calls)
	rep.set("serve.admission.admitted", b.admitted)
	rep.set("serve.admission.shed_busy", b.shedBusy)
	rep.set("serve.admission.queue_depth_max", float64(b.depthMax))

	var all []int64
	for p := range b.rtt {
		sort.Slice(b.rtt[p], func(i, j int) bool { return b.rtt[p][i] < b.rtt[p][j] })
		all = append(all, b.rtt[p]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var wireQueue float64
	for p, name := range procNames {
		svc50 := median(b.svcP50[p])
		rep.set("serve.svc."+name+".p50_us", svc50)
		rep.set("serve.svc."+name+".p99_us", median(b.svcP99[p]))
		share := float64(len(b.rtt[p])) / float64(len(all))
		wireQueue += share * (sampleQuantile(b.rtt[p], 0.50)/1e3 - svc50)
	}
	sort.Slice(b.late, func(i, j int) bool { return b.late[i] < b.late[j] })
	rep.set("serve.rtt_p50_us", sampleQuantile(all, 0.50)/1e3)
	rep.set("serve.rtt_p99_us", sampleQuantile(all, 0.99)/1e3)
	rep.set("serve.wire_queue_p50_us", wireQueue)
	rep.set("serve.open_p99_us", sampleQuantile(b.fromDue, 0.99)/1e3)
	rep.set("serve.open_p999_us", sampleQuantile(b.fromDue, 0.999)/1e3)
	rep.set("gen.late_p50_us", sampleQuantile(b.late, 0.50)/1e3)
	rep.set("gen.late_p99_us", sampleQuantile(b.late, 0.99)/1e3)
	rep.set("fail_frac", failFrac(b.out.offered, b.out.ok))
	rep.set("lat.samples", float64(len(b.fromDue)))
	rep.set("trace.dropped_events", float64(b.rttDrops))
	rep.set("trace.events", float64(len(all)))
	rep.set("trace.overhead_frac", median(b.plainTPS)/median(b.satTPS)-1)
	if b.rttDrops != 0 {
		return fmt.Errorf("serve-bank-r3: %d round-trip spans did not fit the trace buffer", b.rttDrops)
	}
	return nil
}
