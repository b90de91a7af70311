package rdma

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"drtmr/internal/htm"
	"drtmr/internal/sim"
)

func newFabric(t *testing.T, nodes int, cfg Config) (*Network, []*htm.Engine) {
	t.Helper()
	net := NewNetwork(nodes, cfg)
	engs := make([]*htm.Engine, nodes)
	for i := range engs {
		engs[i] = htm.NewEngine(make([]byte, 1<<16), htm.Config{})
		net.Attach(NodeID(i), engs[i])
	}
	return net, engs
}

func TestReadWriteRemote(t *testing.T) {
	net, engs := newFabric(t, 2, Config{})
	var clk sim.Clock
	qp := net.NewQP(0, 1, &clk)
	data := []byte("the quick brown fox jumps over!!")
	if err := qp.Write(128, data); err != nil {
		t.Fatal(err)
	}
	got, err := qp.Read(128, len(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("roundtrip: %q", got)
	}
	// The write really landed in node 1's memory.
	if !bytes.Equal(engs[1].ReadNonTx(128, len(data), nil), data) {
		t.Fatal("data not in target memory")
	}
	if clk.Now() == 0 {
		t.Fatal("verbs must charge virtual time")
	}
}

func TestVirtualTimeCharging(t *testing.T) {
	net, _ := newFabric(t, 2, Config{})
	var clk sim.Clock
	qp := net.NewQP(0, 1, &clk)
	before := clk.Now()
	if _, err := qp.Read64(0); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Duration(clk.Now() - before)
	if elapsed < net.Profile().Read {
		t.Fatalf("READ charged %v, want >= %v", elapsed, net.Profile().Read)
	}
}

func TestBandwidthQueueing(t *testing.T) {
	// With a tiny NIC bandwidth, bulk writes must stretch virtual time by
	// ~bytes/bandwidth.
	cfg := Config{NICBytesPerSec: 1 << 20} // 1 MiB/s
	net, _ := newFabric(t, 2, cfg)
	var clk sim.Clock
	qp := net.NewQP(0, 1, &clk)
	payload := make([]byte, 4096)
	start := clk.Now()
	for i := 0; i < 16; i++ {
		if err := qp.Write(0, payload); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Duration(clk.Now() - start)
	// 16 * (4096+64) bytes at 1 MiB/s ≈ 63ms of virtual time.
	if elapsed < 50*time.Millisecond {
		t.Fatalf("bandwidth not modelled: %v", elapsed)
	}
}

func TestCASAtomicityAcrossQPs(t *testing.T) {
	net, engs := newFabric(t, 3, Config{})
	const off = 256
	const workers = 4
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(src NodeID) {
			defer wg.Done()
			var clk sim.Clock
			qp := net.NewQP(src%3, 2, &clk)
			for i := 0; i < iters; i++ {
				for {
					cur, _ := qp.Read64(off)
					if _, ok, err := qp.CAS(off, cur, cur+1); err != nil {
						t.Error(err)
						return
					} else if ok {
						break
					}
				}
			}
		}(NodeID(w))
	}
	wg.Wait()
	if got := engs[2].Load64NonTx(off); got != workers*iters {
		t.Fatalf("CAS increments lost: %d want %d", got, workers*iters)
	}
}

func TestRDMAWriteAbortsConflictingHTM(t *testing.T) {
	net, engs := newFabric(t, 2, Config{})
	tx := engs[1].Begin()
	if _, err := tx.Load64(512); err != nil {
		t.Fatal(err)
	}
	var clk sim.Clock
	qp := net.NewQP(0, 1, &clk)
	if err := qp.Write64(512, 9); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("RDMA WRITE must abort conflicting HTM txn (strong consistency)")
	}
}

func TestRDMAReadDoesNotAbortHTMReader(t *testing.T) {
	net, engs := newFabric(t, 2, Config{})
	tx := engs[1].Begin()
	if _, err := tx.Load64(512); err != nil {
		t.Fatal(err)
	}
	var clk sim.Clock
	qp := net.NewQP(0, 1, &clk)
	if _, err := qp.Read64(512); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("read-read should not conflict: %v", err)
	}
}

func TestMultiLineWriteIsTornPerLine(t *testing.T) {
	// The defining RDMA hazard (§4.3): a WRITE spanning lines is atomic
	// per line only. We can't easily force the interleaving, but we can
	// verify the implementation writes line by line by checking a
	// concurrent HTM read of 3 lines never commits a mixed view (HTM
	// aborts) while a plain racing byte inspection can see mixes.
	net, engs := newFabric(t, 2, Config{})
	var clk sim.Clock
	qp := net.NewQP(0, 1, &clk)
	buf0 := make([]byte, 192)
	buf1 := make([]byte, 192)
	for i := range buf1 {
		buf1[i] = 0xFF
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			if i%2 == 0 {
				qp.Write(0, buf1)
			} else {
				qp.Write(0, buf0)
			}
		}
	}()
	for i := 0; i < 300; i++ {
		tx := engs[1].Begin()
		b, err := tx.Read(0, 192, nil)
		if err != nil {
			continue
		}
		if tx.Commit() != nil {
			continue
		}
		first := b[0]
		for _, c := range b {
			if c != first {
				t.Fatal("committed HTM read saw torn RDMA write")
			}
		}
	}
	<-done
}

func TestSendRecv(t *testing.T) {
	net, _ := newFabric(t, 2, Config{})
	var clk sim.Clock
	qp := net.NewQP(0, 1, &clk)
	if err := qp.Send([]byte("insert k=5")); err != nil {
		t.Fatal(err)
	}
	msg, err := net.NIC(1).Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 0 || string(msg.Payload) != "insert k=5" {
		t.Fatalf("msg: %+v", msg)
	}
	if _, err := net.NIC(1).Recv(time.Millisecond); err != ErrRecvTimeout {
		t.Fatalf("recv on empty queue: %v, want ErrRecvTimeout", err)
	}
}

func TestDeadNodeFailsVerbs(t *testing.T) {
	net, _ := newFabric(t, 2, Config{})
	var clk sim.Clock
	qp := net.NewQP(0, 1, &clk)
	net.NIC(1).Kill()
	if _, err := qp.Read64(0); err != ErrNodeDead {
		t.Fatalf("read on dead node: %v", err)
	}
	if err := qp.Write64(0, 1); err != ErrNodeDead {
		t.Fatalf("write on dead node: %v", err)
	}
	if _, _, err := qp.CAS(0, 0, 1); err != ErrNodeDead {
		t.Fatalf("cas on dead node: %v", err)
	}
	if err := qp.Send(nil); err != ErrNodeDead {
		t.Fatalf("send to dead node: %v", err)
	}
	if _, err := net.NIC(1).Recv(time.Millisecond); err != ErrNodeDead {
		t.Fatalf("recv on dead node: %v", err)
	}
}

func TestNICStats(t *testing.T) {
	net, _ := newFabric(t, 2, Config{})
	var clk sim.Clock
	qp := net.NewQP(0, 1, &clk)
	qp.Read64(0)
	qp.Write64(0, 1)
	qp.CAS(0, 1, 2)
	s := net.NIC(1).Snapshot()
	if s.Reads != 1 || s.Writes != 1 || s.Atomics != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.BytesIn == 0 {
		t.Fatal("bytes not counted")
	}
}
