package tpcc_test

import (
	"testing"

	"drtmr/internal/bench/harness"
	"drtmr/internal/bench/tpcc"
	"drtmr/internal/cluster"
	"drtmr/internal/memstore"
	"drtmr/internal/txn"
)

// systems are the systems the consistency tests run the shared transaction
// bodies on: DrTM+R directly, DrTM and Calvin through the footprint
// pre-pass.
var systems = []harness.System{harness.SysDrTMR, harness.SysDrTM, harness.SysCalvin}

// executor loads a one-machine, one-warehouse TPC-C database and returns an
// executor on worker 0 of sys, with the machine's store.
func executor(t *testing.T, sys harness.System, seed uint64) (*tpcc.Executor, *memstore.Store) {
	t.Helper()
	cfg := tpcc.DefaultConfig(1, 1)
	c := cluster.New(cluster.Spec{Nodes: 1, Replicas: 1, MemBytes: 96 << 20, RingBytes: 1 << 18})
	tpcc.CreateTables(c.Machines[0].Store, cfg)
	if err := tpcc.Load(c.Machines[0].Store, cfg, 0, 0); err != nil {
		t.Fatal(err)
	}
	g := tpcc.NewGen(cfg, 1, seed)
	var ex *tpcc.Executor
	if sys == harness.SysDrTMR {
		e := txn.NewEngine(c.Machines[0], cfg.Partitioner(0), txn.DefaultCosts())
		c.Start()
		ex = tpcc.NewExecutor(e.NewWorker(0), g)
	} else {
		newWorker := harness.BaselineTPCC(sys, c, cfg)
		c.Start()
		ex = tpcc.NewExecutorOn(newWorker(0, 0), g)
	}
	t.Cleanup(c.Stop)
	return ex, c.Machines[0].Store
}

func value(t *testing.T, store *memstore.Store, table memstore.TableID, key uint64) []byte {
	t.Helper()
	off, ok := store.Table(table).Lookup(key)
	if !ok {
		t.Fatalf("table %d key %d missing", table, key)
	}
	return store.Table(table).ReadValueNonTx(off)
}

func TestNewOrderAndConsistency(t *testing.T) {
	for _, sys := range systems {
		t.Run(sys.String(), func(t *testing.T) {
			ex, store := executor(t, sys, 3)
			for i := 0; i < 30; i++ {
				if err := ex.NewOrder(ex.Gen.GenNewOrder()); err != nil {
					t.Fatalf("new-order %d: %v", i, err)
				}
			}
			// Consistency: sum over districts of (nextOID-1) == orders inserted.
			var orders uint64
			for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
				orders += tpcc.DistrictNextOID(value(t, store, tpcc.TableDistrict, tpcc.DKey(1, d))) - tpcc.InitialNextOrder
			}
			if orders != 30 {
				t.Fatalf("district counters: %d orders, want 30", orders)
			}
			if got := store.Table(tpcc.TableOrder).Ordered().Len(); got != 30 {
				t.Fatalf("order rows: %d", got)
			}
			if got := store.Table(tpcc.TableNewOrder).Ordered().Len(); got != 30 {
				t.Fatalf("new-order rows: %d", got)
			}
		})
	}
}

func TestPaymentYTDConsistency(t *testing.T) {
	for _, sys := range systems {
		t.Run(sys.String(), func(t *testing.T) {
			ex, store := executor(t, sys, 4)
			var want uint64
			for i := 0; i < 40; i++ {
				p := ex.Gen.GenPayment()
				if err := ex.Payment(p); err != nil {
					t.Fatalf("payment: %v", err)
				}
				want += p.Amount
			}
			if got := tpcc.WarehouseYTD(value(t, store, tpcc.TableWarehouse, tpcc.WKey(1))); got != want {
				t.Fatalf("warehouse ytd %d want %d", got, want)
			}
			var dytd uint64
			for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
				dytd += tpcc.DistrictYTD(value(t, store, tpcc.TableDistrict, tpcc.DKey(1, d)))
			}
			if dytd != want {
				t.Fatalf("district ytd sum %d want %d", dytd, want)
			}
		})
	}
}

func TestDeliveryConsumesNewOrders(t *testing.T) {
	for _, sys := range systems {
		t.Run(sys.String(), func(t *testing.T) {
			ex, store := executor(t, sys, 8)
			for i := 0; i < 15; i++ {
				if err := ex.NewOrder(ex.Gen.GenNewOrder()); err != nil {
					t.Fatal(err)
				}
			}
			before := store.Table(tpcc.TableNewOrder).Ordered().Len()
			if err := ex.Delivery(ex.Gen.GenDelivery()); err != nil {
				t.Fatalf("delivery: %v", err)
			}
			after := store.Table(tpcc.TableNewOrder).Ordered().Len()
			if after >= before {
				t.Fatalf("delivery consumed nothing: %d -> %d", before, after)
			}
		})
	}
}
