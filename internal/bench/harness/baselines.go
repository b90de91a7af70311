package harness

import (
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"drtmr/internal/baseline/calvin"
	"drtmr/internal/baseline/drtm"
	"drtmr/internal/baseline/silo"
	"drtmr/internal/bench/tpcc"
	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// The comparison baselines run TPC-C only, matching the figures they appear
// in (Figs 10, 11, 17, 18 and the Silo paragraph of §7.2). They run the same
// transaction bodies as DrTM+R (package tpcc); only the tpcc.System under
// the bodies differs.

// runBaseline measures DrTM, Calvin or Silo.
func runBaseline(o Options) Result {
	if o.Workload != WLTPCC {
		panic("harness: the baselines implement TPC-C only")
	}
	if o.System == SysSilo {
		return runSilo(o)
	}
	c, wcfgAny := buildCluster(o, 1)
	defer c.Stop()
	wcfg := wcfgAny.(tpcc.Config)
	newWorker := BaselineTPCC(o.System, c, wcfg)
	c.Start()
	return driveBaseline(o, wcfg, func(node, tid int, g *tpcc.Gen) baselineWorker {
		w := newWorker(node, tid)
		w.ex = tpcc.NewExecutorOn(w, g)
		return w
	})
}

// baselineWorker is one baseline worker thread as driveBaseline sees it.
type baselineWorker interface {
	// runOne runs the next transaction of the worker's stream.
	runOne() (tpcc.TxType, error)
	totals() workerTotals
}

// workerTotals is what one worker contributes to the Result.
type workerTotals struct {
	committed, aborts, fallbacks uint64
	virtual                      int64 // the worker's clock at the end
}

// driveBaseline runs o.TxPerWorker transactions on each worker newWorker
// builds. Worker (node, tid) draws the transaction stream the DrTM+R worker
// in the same position draws.
func driveBaseline(o Options, wcfg tpcc.Config, newWorker func(node, tid int, g *tpcc.Gen) baselineWorker) Result {
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		sum       workerTotals
		newOrders uint64
	)
	for n := 0; n < o.Nodes; n++ {
		for t := 0; t < o.ThreadsPerNode; t++ {
			wg.Add(1)
			go func(node, tid int) {
				defer wg.Done()
				whs := wcfg.WarehousesOf(node)
				w := newWorker(node, tid, tpcc.NewGen(wcfg, whs[tid%len(whs)], o.Seed+uint64(node*100+tid)))
				var localNO uint64
				for i := 0; i < o.TxPerWorker; i++ {
					if ty, err := w.runOne(); err == nil && ty == tpcc.TxNewOrder {
						localNO++
					}
				}
				tot := w.totals()
				mu.Lock()
				sum.committed += tot.committed
				sum.aborts += tot.aborts
				sum.fallbacks += tot.fallbacks
				sum.virtual = max(sum.virtual, tot.virtual)
				newOrders += localNO
				mu.Unlock()
			}(n, t)
		}
	}
	wg.Wait()
	return summarize(o, sum.committed, newOrders, sum.aborts, sum.fallbacks, sum.virtual)
}

// ------------------------------------------------------- DrTM, Calvin ----

// BaselineTPCC deploys DrTM or Calvin on cluster c, which holds wcfg's TPC-C
// database, and returns the constructor of its workers. Call it before
// c.Start and the constructor after.
func BaselineTPCC(sys System, c *cluster.Cluster, wcfg tpcc.Config) func(node, tid int) *DeclaredWorker {
	cost := txn.DefaultCosts()
	switch sys {
	case SysDrTM:
		var engines []*drtm.Engine
		for _, m := range c.Machines {
			engines = append(engines, drtm.NewEngine(m, wcfg.Partitioner(m.ID), cost))
		}
		return func(node, tid int) *DeclaredWorker {
			e := engines[node]
			return &DeclaredWorker{c: c, node: e.M.ID, part: e.Part, eng: drtmEngine{w: e.NewWorker(tid), c: c}}
		}
	case SysCalvin:
		// Calvin runs one global plan, so its partitioner cannot be
		// machine-relative: ITEM, replicated on every machine, is routed
		// to machine 0.
		part := wcfg.Partitioner(0)
		s := calvin.New(c, part, cost)
		return func(node, tid int) *DeclaredWorker {
			w := s.NewWorker(rdma.NodeID(node), tid)
			return &DeclaredWorker{c: c, node: w.Node, part: part, eng: calvinEngine{w: w, c: c}}
		}
	default:
		panic("harness: " + sys.String() + " takes no declared read/write sets")
	}
}

// DeclaredWorker is one worker of a baseline that must know a transaction's
// read/write set before running it (DrTM, Calvin). Run finds the set with a
// footprint pre-pass: the body runs once against committed rows, outside
// any transaction and charging no virtual time, and every record it touches
// is declared, as written if the body ever writes it. The engine then runs
// the body over the declared set. Inserts and deletes are not declared:
// they are buffered and applied once the transaction commits. If the real
// run strays outside the declared set, or a declared record has vanished,
// the footprint was stale, and Run counts an abort, redoes the pre-pass and
// retries. This is Calvin's OLLP; it stands in for the transaction chopping
// DrTM used.
type DeclaredWorker struct {
	c     *cluster.Cluster
	node  rdma.NodeID
	part  txn.Partitioner
	eng   declaredEngine
	stale uint64 // footprint retries

	ex *tpcc.Executor // the driver's executor over this worker
}

// declaredEngine is the DrTM or Calvin worker under a DeclaredWorker.
type declaredEngine interface {
	// run executes body as one transaction over the declared refs.
	run(refs []ref, body func(declaredCtx) error) error
	// apply installs a committed transaction's inserts and deletes.
	apply(muts []mutation, owner func(memstore.TableID, uint64) rdma.NodeID)
	totals() workerTotals
}

// declaredCtx is the record access drtm.Ctx and calvin.Ctx both offer.
type declaredCtx interface {
	Get(table memstore.TableID, key uint64) ([]byte, error)
	Put(table memstore.TableID, key uint64, value []byte) error
}

// ref declares one record; it converts to drtm.Ref and calvin.Ref.
type ref struct {
	Table memstore.TableID
	Key   uint64
	Write bool
}

type recKey struct {
	table memstore.TableID
	key   uint64
}

// mutation is an insert (or, with del, a delete) applied after commit.
type mutation struct {
	del   bool
	table memstore.TableID
	key   uint64
	value []byte
}

// errStale reports a real-run access outside the declared footprint.
var errStale = errors.New("harness: access outside the declared footprint")

// Run implements tpcc.System. DrTM and Calvin have no read-only mode.
func (w *DeclaredWorker) Run(_ bool, body func(tpcc.Tx) error) error {
	for {
		fp := &footprint{at: make(map[recKey]int)}
		// The pre-pass only collects the footprint; the real run decides
		// the outcome.
		_ = body(w.newTx(fp, nil))
		var tx *declaredTx
		err := w.eng.run(fp.refs, func(c declaredCtx) error {
			// DrTM re-runs the body inside its big-HTM retry loop: each run
			// starts with empty buffers.
			tx = w.newTx(fp, c)
			if err := body(tx); err != nil {
				return err
			}
			return tx.flush()
		})
		switch {
		case err == nil:
			w.eng.apply(tx.muts, w.owner)
			return nil
		case errors.Is(err, errStale), errors.Is(err, drtm.ErrMissing), errors.Is(err, calvin.ErrMissing):
			w.stale++
		default:
			return err
		}
	}
}

// Store implements tpcc.System.
func (w *DeclaredWorker) Store() *memstore.Store { return w.c.Machines[w.node].Store }

func (w *DeclaredWorker) owner(table memstore.TableID, key uint64) rdma.NodeID {
	return w.c.Coord.Current().PrimaryOf(w.part(table, key))
}

func (w *DeclaredWorker) runOne() (tpcc.TxType, error) { return w.ex.RunOne() }

func (w *DeclaredWorker) totals() workerTotals {
	t := w.eng.totals()
	t.aborts += w.stale
	return t
}

func (w *DeclaredWorker) newTx(fp *footprint, ctx declaredCtx) *declaredTx {
	return &declaredTx{w: w, fp: fp, ctx: ctx, writes: make(map[recKey][]byte)}
}

// footprint is the declared read/write set: each record the pre-pass
// touched, once.
type footprint struct {
	refs []ref
	at   map[recKey]int // index into refs; -1 for a record found absent
}

func (f *footprint) declare(k recKey, write bool) {
	if i, ok := f.at[k]; ok && i >= 0 {
		f.refs[i].Write = f.refs[i].Write || write
		return
	}
	f.at[k] = len(f.refs)
	f.refs = append(f.refs, ref{Table: k.table, Key: k.key, Write: write})
}

// declaredTx is the tpcc.Tx of both passes. The pre-pass (ctx nil) reads
// committed rows from their owners and declares what it touches; the real
// run reads through ctx and rejects undeclared accesses. Both buffer their
// writes; the real run Puts each written record once, when the body
// returns, because DrTM's Put aborts its own HTM region when the record was
// already written in it.
type declaredTx struct {
	w      *DeclaredWorker
	fp     *footprint
	ctx    declaredCtx
	writes map[recKey][]byte
	order  []recKey // written records, first write first
	muts   []mutation
}

func (t *declaredTx) Read(table memstore.TableID, key uint64) ([]byte, error) {
	k := recKey{table, key}
	if v, ok := t.writes[k]; ok {
		return append([]byte(nil), v...), nil
	}
	i, seen := t.fp.at[k]
	switch {
	case seen && i < 0:
		return nil, txn.ErrNotFound
	case t.ctx != nil && !seen:
		return nil, errStale
	case t.ctx != nil:
		return t.ctx.Get(table, key)
	}
	tbl := t.w.c.Machines[t.w.owner(table, key)].Store.Table(table)
	off, ok := tbl.Lookup(key)
	if !ok {
		if !seen {
			t.fp.at[k] = -1
		}
		return nil, txn.ErrNotFound
	}
	t.fp.declare(k, false)
	return tbl.ReadValueNonTx(off), nil
}

func (t *declaredTx) ReadStable(table memstore.TableID, key uint64) ([]byte, error) {
	return t.Read(table, key)
}

func (t *declaredTx) Write(table memstore.TableID, key uint64, value []byte) error {
	k := recKey{table, key}
	if t.ctx == nil {
		t.fp.declare(k, true)
	} else if i, ok := t.fp.at[k]; !ok || i < 0 || !t.fp.refs[i].Write {
		return errStale
	}
	if _, ok := t.writes[k]; !ok {
		t.order = append(t.order, k)
	}
	t.writes[k] = append([]byte(nil), value...)
	return nil
}

func (t *declaredTx) Add(table memstore.TableID, key uint64, fieldOff int, delta uint64) error {
	v, err := t.Read(table, key)
	if err != nil {
		return err
	}
	v = append([]byte(nil), v...)
	addField(v, fieldOff, delta)
	return t.Write(table, key, v)
}

func (t *declaredTx) Insert(table memstore.TableID, key uint64, value []byte) error {
	t.muts = append(t.muts, mutation{table: table, key: key, value: append([]byte(nil), value...)})
	return nil
}

func (t *declaredTx) Delete(table memstore.TableID, key uint64) error {
	t.muts = append(t.muts, mutation{del: true, table: table, key: key})
	return nil
}

// flush Puts the real run's buffered writes.
func (t *declaredTx) flush() error {
	for _, k := range t.order {
		if err := t.ctx.Put(k.table, k.key, t.writes[k]); err != nil {
			return err
		}
	}
	return nil
}

// addField adds delta to the little-endian u64 at off, as txn.Txn.Add does
// at commit.
func addField(v []byte, off int, delta uint64) {
	binary.LittleEndian.PutUint64(v[off:], binary.LittleEndian.Uint64(v[off:])+delta)
}

// directMutate applies inserts and deletes straight to machine node's
// store, charging the worker clock for one message from self the way the
// baseline's messaging would (DrTM ships index mutations to the host like
// DrTM+R; Calvin folds deletes into its deterministic plan). Errors are
// dropped: the baselines apply index mutations after the transaction
// commits, so a racing Delivery may already have removed the row, and
// there is nothing left to undo.
func directMutate(c *cluster.Cluster, clk *sim.Clock, self, node rdma.NodeID, cost txn.CostModel, muts []mutation) {
	clk.Advance(cost.LocalAccess)
	if node != self {
		clk.Advance(5 * time.Microsecond)
	}
	st := c.Machines[node].Store
	for _, m := range muts {
		if m.del {
			_ = st.Table(m.table).Delete(m.key)
		} else {
			_, _ = st.Table(m.table).Insert(m.key, m.value)
		}
	}
}

type drtmEngine struct {
	w *drtm.Worker
	c *cluster.Cluster
}

func (e drtmEngine) run(refs []ref, body func(declaredCtx) error) error {
	rs := make([]drtm.Ref, len(refs))
	for i, r := range refs {
		rs[i] = drtm.Ref(r)
	}
	return e.w.Run(rs, func(c *drtm.Ctx) error { return body(c) })
}

// apply ships each machine's mutations to it in one message.
func (e drtmEngine) apply(muts []mutation, owner func(memstore.TableID, uint64) rdma.NodeID) {
	for len(muts) > 0 {
		node := owner(muts[0].table, muts[0].key)
		var here, rest []mutation
		for _, m := range muts {
			if owner(m.table, m.key) == node {
				here = append(here, m)
			} else {
				rest = append(rest, m)
			}
		}
		directMutate(e.c, &e.w.Clk, e.w.E.M.ID, node, e.w.E.Cost, here)
		muts = rest
	}
}

func (e drtmEngine) totals() workerTotals {
	return workerTotals{e.w.Stats.Committed, e.w.Stats.Aborts, e.w.Stats.Fallbacks, e.w.Clk.Now()}
}

type calvinEngine struct {
	w *calvin.Worker
	c *cluster.Cluster
}

func (e calvinEngine) run(refs []ref, body func(declaredCtx) error) error {
	rs := make([]calvin.Ref, len(refs))
	for i, r := range refs {
		rs[i] = calvin.Ref(r)
	}
	return e.w.Run(rs, func(c *calvin.Ctx) error { return body(c) })
}

// apply schedules each insert through Calvin's sequencer and ships each
// delete to its owner.
func (e calvinEngine) apply(muts []mutation, owner func(memstore.TableID, uint64) rdma.NodeID) {
	for _, m := range muts {
		if !m.del {
			_ = e.w.Insert(m.table, m.key, m.value)
			continue
		}
		directMutate(e.c, &e.w.Clk, e.w.Node, owner(m.table, m.key), txn.DefaultCosts(), []mutation{m})
	}
}

func (e calvinEngine) totals() workerTotals {
	return workerTotals{committed: e.w.Stats.Committed, virtual: e.w.Clk.Now()}
}

// ---------------------------------------------------------------- Silo ----

// runSilo measures Silo: one machine, one database holding the rows
// DrTM+R's machine 0 holds.
func runSilo(o Options) Result {
	o.Nodes = 1
	wcfg := tpccConfig(o)
	var tables []uint8
	for t := tpcc.TableWarehouse; t <= tpcc.TableCustLastOrder; t++ {
		tables = append(tables, uint8(t))
	}
	db := silo.NewDB(tables, txn.DefaultCosts())
	defer db.Close()
	if err := tpcc.LoadRows(wcfg, 0, o.Seed, func(table memstore.TableID, key uint64, value []byte) error {
		return db.Insert(uint8(table), key, value)
	}); err != nil {
		panic(err)
	}
	return driveBaseline(o, wcfg, func(_, tid int, g *tpcc.Gen) baselineWorker {
		s := &siloWorker{w: db.NewWorker(tid)}
		s.ex = tpcc.NewExecutorOn(s, g)
		return s
	})
}

// siloWorker runs NewOrder, Payment and OrderStatus through the shared
// bodies. Silo's tables are unordered maps with no delete, so Delivery's
// oldest-new-order probe and StockLevel's order-line scan have nothing to
// run on: a single customer read stands in for each.
type siloWorker struct {
	w  *silo.Worker
	ex *tpcc.Executor
	n  int // transactions begun; spreads the stand-in reads over customers
}

// Run implements tpcc.System.
func (s *siloWorker) Run(_ bool, body func(tpcc.Tx) error) error {
	return s.w.Run(func(tx *silo.Txn) error { return body(siloTx{tx}) })
}

// Store implements tpcc.System. It is nil: only Delivery and StockLevel
// probe the store, and Silo runs neither.
func (s *siloWorker) Store() *memstore.Store { return nil }

func (s *siloWorker) runOne() (tpcc.TxType, error) {
	i := s.n
	s.n++
	g := s.ex.Gen
	t := g.NextType()
	// The stand-ins still draw their transaction's parameters, keeping the
	// stream aligned with the other systems'.
	var w int
	switch t {
	case tpcc.TxDelivery:
		w = g.GenDelivery().W
	case tpcc.TxStockLevel:
		w = g.GenStockLevel().W
	default:
		return t, s.ex.Run(t)
	}
	return t, s.w.Run(func(tx *silo.Txn) error {
		_, err := tx.Read(uint8(tpcc.TableCustomer), tpcc.CKey(w, 1+i%10, 1+i%tpcc.CustomersPerDistrict))
		return err
	})
}

func (s *siloWorker) totals() workerTotals {
	return workerTotals{committed: s.w.Stats.Committed, aborts: s.w.Stats.Aborts, virtual: s.w.Clk.Now()}
}

// siloTx adapts a Silo transaction to tpcc.Tx. Silo has neither untracked
// reads nor commutative adds: ReadStable is a tracked read and Add a
// read-modify-write.
type siloTx struct{ tx *silo.Txn }

func (s siloTx) Read(table memstore.TableID, key uint64) ([]byte, error) {
	v, err := s.tx.Read(uint8(table), key)
	if errors.Is(err, silo.ErrNotFound) {
		return nil, txn.ErrNotFound
	}
	return v, err
}

func (s siloTx) ReadStable(table memstore.TableID, key uint64) ([]byte, error) {
	return s.Read(table, key)
}

func (s siloTx) Write(table memstore.TableID, key uint64, value []byte) error {
	err := s.tx.Write(uint8(table), key, value)
	if errors.Is(err, silo.ErrNotFound) {
		return txn.ErrNotFound
	}
	return err
}

func (s siloTx) Add(table memstore.TableID, key uint64, fieldOff int, delta uint64) error {
	v, err := s.Read(table, key)
	if err != nil {
		return err
	}
	addField(v, fieldOff, delta)
	return s.Write(table, key, v)
}

func (s siloTx) Insert(table memstore.TableID, key uint64, value []byte) error {
	return s.tx.Insert(uint8(table), key, value)
}

func (s siloTx) Delete(memstore.TableID, uint64) error {
	return errors.New("harness: Silo's tables have no delete")
}
