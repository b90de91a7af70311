package tpcc

import (
	"errors"
	"fmt"

	"drtmr/internal/memstore"
	"drtmr/internal/sim"
	"drtmr/internal/txn"
)

// TxType enumerates the five TPC-C transactions.
type TxType int

// Transaction types in standard-mix order.
const (
	TxNewOrder TxType = iota
	TxPayment
	TxOrderStatus
	TxDelivery
	TxStockLevel
	numTxTypes
)

func (t TxType) String() string {
	switch t {
	case TxNewOrder:
		return "new-order"
	case TxPayment:
		return "payment"
	case TxOrderStatus:
		return "order-status"
	case TxDelivery:
		return "delivery"
	case TxStockLevel:
		return "stock-level"
	default:
		return fmt.Sprintf("TxType(%d)", int(t))
	}
}

// Mix is the standard mix (percent): 45/43/4/4/4.
var Mix = [numTxTypes]int{45, 43, 4, 4, 4}

// TypeNames returns the transaction type names in TxType order, for indexing
// per-type latency histograms (obs.TypedHist).
func TypeNames() []string {
	names := make([]string, numTxTypes)
	for t := TxType(0); t < numTxTypes; t++ {
		names[t] = t.String()
	}
	return names
}

// Gen draws TPC-C transactions for one worker bound to a home warehouse.
type Gen struct {
	cfg  Config
	home int // home warehouse (1-based)
	node int
	rng  *sim.Rand
	hseq uint64
	// cNURandC is the per-generator NURand C constant.
	cNURandC int
}

// NewGen creates a generator for a worker whose home warehouse is home.
func NewGen(cfg Config, home int, seed uint64) *Gen {
	rng := sim.NewRand(seed)
	return &Gen{
		cfg:      cfg,
		home:     home,
		node:     cfg.NodeOfWarehouse(home),
		rng:      rng,
		cNURandC: rng.Intn(256),
	}
}

// NextType draws from the standard mix.
func (g *Gen) NextType() TxType {
	p := g.rng.Intn(100)
	acc := 0
	for t := 0; t < int(numTxTypes); t++ {
		acc += Mix[t]
		if p < acc {
			return TxType(t)
		}
	}
	return TxStockLevel
}

func (g *Gen) customer() int {
	return g.rng.NURand(1023, 1, CustomersPerDistrict, g.cNURandC) // NURand(1023,1,3000) scaled
}

func (g *Gen) item() int {
	return g.rng.NURand(8191, 1, ItemCount, g.cNURandC)
}

func (g *Gen) otherWarehouse() int {
	total := g.cfg.Warehouses()
	if total <= 1 {
		return g.home
	}
	w := 1 + g.rng.Intn(total-1)
	if w >= g.home {
		w++
	}
	return w
}

// NewOrderParams is one generated new-order.
type NewOrderParams struct {
	W, D, C int
	Items   []NewOrderItem
	// Distributed reports whether any supply warehouse is remote to W's
	// machine (the paper's distributed-transaction criterion).
	Distributed bool
}

// NewOrderItem is one order line request.
type NewOrderItem struct {
	Item    int
	SupplyW int
	Qty     int
}

// GenNewOrder draws a new-order (5-15 items; each supplies remotely with
// RemoteNewOrderProb — the knob Fig 17 sweeps).
func (g *Gen) GenNewOrder() NewOrderParams {
	p := NewOrderParams{
		W: g.home,
		D: 1 + g.rng.Intn(DistrictsPerWarehouse),
		C: g.customer(),
	}
	n := 5 + g.rng.Intn(11)
	seen := map[int]bool{}
	for len(p.Items) < n {
		it := g.item()
		if seen[it] {
			continue
		}
		seen[it] = true
		supply := g.home
		if g.rng.Bool(g.cfg.RemoteNewOrderProb) {
			supply = g.otherWarehouse()
		}
		if g.cfg.NodeOfWarehouse(supply) != g.node {
			p.Distributed = true
		}
		p.Items = append(p.Items, NewOrderItem{Item: it, SupplyW: supply, Qty: 1 + g.rng.Intn(10)})
	}
	return p
}

// PaymentParams is one generated payment.
type PaymentParams struct {
	W, D   int
	CW, CD int // customer's warehouse/district (remote with RemotePaymentProb)
	C      int
	Amount uint64
	// Distributed reports whether CW is on another machine.
	Distributed bool
}

// GenPayment draws a payment.
func (g *Gen) GenPayment() PaymentParams {
	p := PaymentParams{
		W: g.home, D: 1 + g.rng.Intn(DistrictsPerWarehouse),
		Amount: uint64(1 + g.rng.Intn(5000)),
	}
	p.CW, p.CD = p.W, p.D
	if g.rng.Bool(g.cfg.RemotePaymentProb) {
		p.CW = g.otherWarehouse()
		p.CD = 1 + g.rng.Intn(DistrictsPerWarehouse)
	}
	p.C = g.customer()
	p.Distributed = g.cfg.NodeOfWarehouse(p.CW) != g.node
	return p
}

// nextHistory returns a unique history sequence for this generator.
func (g *Gen) nextHistory() uint64 {
	g.hseq++
	return uint64(g.node)<<32 | g.hseq
}

// OrderStatusParams is one generated order-status: a home-warehouse
// customer.
type OrderStatusParams struct{ W, D, C int }

// GenOrderStatus draws an order-status.
func (g *Gen) GenOrderStatus() OrderStatusParams {
	p := OrderStatusParams{W: g.home, D: 1 + g.rng.Intn(DistrictsPerWarehouse)}
	p.C = g.customer()
	return p
}

// DeliveryParams is one generated delivery of the home warehouse.
type DeliveryParams struct {
	W       int
	Carrier uint64
}

// GenDelivery draws a delivery.
func (g *Gen) GenDelivery() DeliveryParams {
	return DeliveryParams{W: g.home, Carrier: uint64(1 + g.rng.Intn(10))}
}

// StockLevelParams is one generated stock-level of a home district.
type StockLevelParams struct {
	W, D      int
	Threshold uint64
}

// GenStockLevel draws a stock-level.
func (g *Gen) GenStockLevel() StockLevelParams {
	p := StockLevelParams{W: g.home, D: 1 + g.rng.Intn(DistrictsPerWarehouse)}
	p.Threshold = uint64(10 + g.rng.Intn(11))
	return p
}

// Tx is the record access a transaction body makes. *txn.Txn satisfies it;
// the baseline systems supply adapters. A missing record reads as
// txn.ErrNotFound on every system.
type Tx interface {
	Read(table memstore.TableID, key uint64) ([]byte, error)
	ReadStable(table memstore.TableID, key uint64) ([]byte, error)
	Write(table memstore.TableID, key uint64, value []byte) error
	Add(table memstore.TableID, key uint64, fieldOff int, delta uint64) error
	Insert(table memstore.TableID, key uint64, value []byte) error
	Delete(table memstore.TableID, key uint64) error
}

// System is what the transactions run on: a runner that executes a body as
// one transaction, retrying until it commits or fails, and the worker's home
// machine store. Delivery's oldest-new-order probe and StockLevel's
// order-line scan go through that store's ordered index directly; both are
// machine-local and untracked on every system.
type System interface {
	Run(readOnly bool, body func(Tx) error) error
	Store() *memstore.Store
}

// worker runs the transactions on a DrTM+R worker.
type worker struct{ w *txn.Worker }

func (s worker) Run(readOnly bool, body func(Tx) error) error {
	fn := func(tx *txn.Txn) error { return body(tx) }
	if readOnly {
		return s.w.RunReadOnly(fn)
	}
	return s.w.Run(fn)
}

func (s worker) Store() *memstore.Store { return s.w.E.M.Store }

// Executor runs TPC-C transactions on one worker of a System.
type Executor struct {
	Sys System
	Gen *Gen

	// Committed per type (new-order throughput is the paper's metric).
	Counts [numTxTypes]uint64
}

// NewExecutor pairs a DrTM+R worker with a generator.
func NewExecutor(w *txn.Worker, g *Gen) *Executor { return NewExecutorOn(worker{w}, g) }

// NewExecutorOn pairs a worker of any System with a generator.
func NewExecutorOn(sys System, g *Gen) *Executor { return &Executor{Sys: sys, Gen: g} }

// RunOne executes one standard-mix transaction; returns its type.
func (e *Executor) RunOne() (TxType, error) {
	t := e.Gen.NextType()
	return t, e.Run(t)
}

// Run draws the parameters of a type-t transaction and executes it.
func (e *Executor) Run(t TxType) error {
	var err error
	switch t {
	case TxNewOrder:
		err = e.NewOrder(e.Gen.GenNewOrder())
	case TxPayment:
		err = e.Payment(e.Gen.GenPayment())
	case TxOrderStatus:
		err = e.OrderStatus(e.Gen.GenOrderStatus())
	case TxDelivery:
		err = e.Delivery(e.Gen.GenDelivery())
	case TxStockLevel:
		err = e.StockLevel(e.Gen.GenStockLevel())
	}
	if err == nil {
		e.Counts[t]++
	}
	return err
}

// NewOrder: read warehouse/district/customer/items, update district next-o,
// update stocks (possibly remote — the distributed case), insert order,
// new-order and order lines.
func (e *Executor) NewOrder(p NewOrderParams) error {
	return e.Sys.Run(false, func(tx Tx) error {
		// Only the load-time-immutable tax is used, so a stable (untracked)
		// read: a tracked read here false-shares the row with Payment's YTD
		// deltas and validate-aborts for nothing.
		wrow, err := tx.ReadStable(TableWarehouse, WKey(p.W))
		if err != nil {
			return err
		}
		_ = WarehouseTax(wrow)
		// Customer is consulted for immutable fields only (discount, last
		// name); a tracked read would false-share with Payment's balance
		// deltas on the same row.
		if _, err := tx.ReadStable(TableCustomer, CKey(p.W, p.D, p.C)); err != nil {
			return err
		}
		var total uint64
		amounts := make([]uint64, len(p.Items))
		for i, it := range p.Items {
			irow, err := tx.Read(TableItem, IKey(it.Item))
			if err != nil {
				return err
			}
			price := ItemPrice(irow)
			srow, err := tx.Read(TableStock, SKey(it.SupplyW, it.Item))
			if err != nil {
				return err
			}
			s2 := append([]byte(nil), srow...)
			ApplyStockOrder(s2, uint64(it.Qty), it.SupplyW != p.W)
			if err := tx.Write(TableStock, SKey(it.SupplyW, it.Item), s2); err != nil {
				return err
			}
			amounts[i] = price * uint64(it.Qty)
			total += amounts[i]
		}
		// The district sequencer (next_o_id) is the one genuinely contended
		// read-modify-write in this transaction: every home NewOrder
		// serializes on it. It is read LAST, after the slow item/stock leg
		// with its doorbell round-trips, so the window in which a concurrent
		// NewOrder can invalidate the read is the commit protocol itself,
		// not the whole execution phase.
		drow, err := tx.Read(TableDistrict, DKey(p.W, p.D))
		if err != nil {
			return err
		}
		oid := DistrictNextOID(drow)
		d2 := append([]byte(nil), drow...)
		SetDistrictNextOID(d2, oid+1)
		if err := tx.Write(TableDistrict, DKey(p.W, p.D), d2); err != nil {
			return err
		}
		okey := OKey(p.W, p.D, int(oid))
		if err := tx.Insert(TableOrder, okey, OrderRow(uint64(p.C), 1, 0, uint64(len(p.Items)))); err != nil {
			return err
		}
		no := make([]byte, newOrderSize)
		putU64(no, 0, oid)
		if err := tx.Insert(TableNewOrder, okey, no); err != nil {
			return err
		}
		for l, it := range p.Items {
			row := OrderLineRow(uint64(it.Item), uint64(it.SupplyW), uint64(it.Qty), amounts[l])
			if err := tx.Insert(TableOrderLine, OLKey(p.W, p.D, int(oid), l+1), row); err != nil {
				return err
			}
		}
		lo := make([]byte, lastOrderSize)
		putU64(lo, 0, oid)
		return tx.Write(TableCustLastOrder, CKey(p.W, p.D, p.C), lo)
	})
}

// Payment: update warehouse.ytd, district.ytd, customer balance (possibly
// remote), insert a history row. Every update is a pure accumulator bump on
// the workload's hottest records (warehouse and district rows are shared by
// every home transaction), so all three go through the commutative-delta
// path: on DrTM+R the transaction carries no read set at all and cannot
// validate-abort — concurrent Payments commute instead of retrying. With
// ContentionOff the Adds degrade inside the engine to the read-modify-write
// shape this function had before (the pure-OCC ablation).
func (e *Executor) Payment(p PaymentParams) error {
	return e.Sys.Run(false, func(tx Tx) error {
		if err := tx.Add(TableWarehouse, WKey(p.W), WarehouseYTDOff, p.Amount); err != nil {
			return err
		}
		if err := tx.Add(TableDistrict, DKey(p.W, p.D), DistrictYTDOff, p.Amount); err != nil {
			return err
		}
		ck := CKey(p.CW, p.CD, p.C)
		if err := tx.Add(TableCustomer, ck, CustomerBalanceOff, uint64(-int64(p.Amount))); err != nil {
			return err
		}
		if err := tx.Add(TableCustomer, ck, CustomerYTDOff, p.Amount); err != nil {
			return err
		}
		if err := tx.Add(TableCustomer, ck, CustomerPayCntOff, 1); err != nil {
			return err
		}
		h := make([]byte, historySize)
		putU64(h, 0, uint64(p.C))
		putU64(h, 8, p.Amount)
		return tx.Insert(TableHistory, HKey(p.W, e.Gen.nextHistory()), h)
	})
}

// OrderStatus (read-only): customer, their last order and its lines.
func (e *Executor) OrderStatus(p OrderStatusParams) error {
	w, d, c := p.W, p.D, p.C
	return e.Sys.Run(true, func(tx Tx) error {
		if _, err := tx.Read(TableCustomer, CKey(w, d, c)); err != nil {
			return err
		}
		lo, err := tx.Read(TableCustLastOrder, CKey(w, d, c))
		if err != nil {
			return err
		}
		oid := getU64(lo, 0)
		if oid == 0 {
			return nil // customer has never ordered
		}
		orow, err := tx.Read(TableOrder, OKey(w, d, int(oid)))
		if err != nil {
			if errors.Is(err, txn.ErrNotFound) {
				return nil
			}
			return err
		}
		cnt := int(OrderOLCnt(orow))
		for l := 1; l <= cnt; l++ {
			if _, err := tx.Read(TableOrderLine, OLKey(w, d, int(oid), l)); err != nil &&
				!errors.Is(err, txn.ErrNotFound) {
				return err
			}
		}
		return nil
	})
}

// Delivery: for each district of the home warehouse, consume the oldest
// NEW-ORDER row, stamp the order's carrier and its lines' delivery dates,
// and credit the customer. Entirely machine-local by construction. The
// oldest-row probe goes through the local ordered index; the row itself is
// then read through the protocol, so two racing deliveries of the same row
// serialize on its incarnation (one aborts and retries onto the next row).
func (e *Executor) Delivery(p DeliveryParams) error {
	w := p.W
	store := e.Sys.Store()
	for d := 1; d <= DistrictsPerWarehouse; d++ {
		lo, hi := OKey(w, d, 0), OKey(w, d, 1<<24-1)
		key, _, ok := store.Table(TableNewOrder).Ordered().MinGE(lo)
		if !ok || key > hi {
			continue // no undelivered order in this district
		}
		err := e.Sys.Run(false, func(tx Tx) error {
			if _, err := tx.Read(TableNewOrder, key); err != nil {
				if errors.Is(err, txn.ErrNotFound) {
					return nil // another delivery raced us; skip
				}
				return err
			}
			if err := tx.Delete(TableNewOrder, key); err != nil {
				return err
			}
			orow, err := tx.Read(TableOrder, key)
			if err != nil {
				if errors.Is(err, txn.ErrNotFound) {
					return nil
				}
				return err
			}
			o2 := append([]byte(nil), orow...)
			SetOrderCarrier(o2, p.Carrier)
			if err := tx.Write(TableOrder, key, o2); err != nil {
				return err
			}
			cid := OrderCustomer(orow)
			cnt := int(OrderOLCnt(orow))
			oid := int(key & 0xFFFFFF)
			var total uint64
			for l := 1; l <= cnt; l++ {
				olk := OLKey(w, d, oid, l)
				ol, err := tx.Read(TableOrderLine, olk)
				if err != nil {
					if errors.Is(err, txn.ErrNotFound) {
						continue
					}
					return err
				}
				total += OrderLineAmount(ol)
				ol2 := append([]byte(nil), ol...)
				SetOrderLineDelivery(ol2, 1)
				if err := tx.Write(TableOrderLine, olk, ol2); err != nil {
					return err
				}
			}
			crow, err := tx.Read(TableCustomer, CKey(w, d, int(cid)))
			if err != nil {
				return err
			}
			c2 := append([]byte(nil), crow...)
			CustomerAddDelivery(c2, total)
			return tx.Write(TableCustomer, CKey(w, d, int(cid)), c2)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// StockLevel (read-only): count stock rows below a threshold among the items
// of the district's last 20 orders. Machine-local.
func (e *Executor) StockLevel(p StockLevelParams) error {
	w, d := p.W, p.D
	store := e.Sys.Store()
	return e.Sys.Run(true, func(tx Tx) error {
		drow, err := tx.Read(TableDistrict, DKey(w, d))
		if err != nil {
			return err
		}
		next := int(DistrictNextOID(drow))
		loO := next - 20
		if loO < 1 {
			loO = 1
		}
		// Probe order-line keys through the local ordered index, then
		// read each row through the protocol. The scan yields each key
		// once, in key order, so the reads run in a deterministic order.
		var keys []uint64
		store.Table(TableOrderLine).Ordered().Scan(
			OLKey(w, d, loO, 0), OLKey(w, d, next, 15),
			func(key, _ uint64) bool {
				keys = append(keys, key)
				return len(keys) < 200
			})
		low := 0
		for _, key := range keys {
			ol, err := tx.Read(TableOrderLine, key)
			if err != nil {
				if errors.Is(err, txn.ErrNotFound) {
					continue
				}
				return err
			}
			srow, err := tx.Read(TableStock, SKey(w, int(OrderLineItem(ol))))
			if err != nil {
				if errors.Is(err, txn.ErrNotFound) {
					continue
				}
				return err
			}
			if StockQuantity(srow) < p.Threshold {
				low++
			}
		}
		return nil
	})
}
