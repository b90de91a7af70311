package memstore

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// loadRows feeds the same row sequence through put: enough keys for a
// 16-bucket table to grow overflow chains, multi-line values, and a
// duplicate key whose freed block the next row reuses.
func loadRows(t *testing.T, put func(key uint64, value []byte) (uint64, error)) {
	t.Helper()
	val := make([]byte, 100)
	for k := uint64(0); k < 150; k++ {
		binary.LittleEndian.PutUint64(val, k*7+1)
		if _, err := put(k, val); err != nil {
			t.Fatalf("row %d: %v", k, err)
		}
		if k == 60 {
			if _, err := put(17, val); err != ErrKeyExists {
				t.Fatalf("duplicate key 17: got %v, want ErrKeyExists", err)
			}
		}
	}
}

// TestLoadMatchesInsert pins Table.Load to Insert's memory image: the same
// rows loaded either way leave identical arena bytes, arena high-water
// marks and ordered indexes, freed-and-reused blocks and overflow chains
// included.
func TestLoadMatchesInsert(t *testing.T) {
	spec := TableSpec{Name: "t", ValueSize: 100, ExpectedRows: 8, Ordered: true}
	ins, ld := newTestStore(1<<20), newTestStore(1<<20)
	it, lt := ins.CreateTable(1, spec), ld.CreateTable(1, spec)
	loadRows(t, it.Insert)
	loadRows(t, lt.Load)

	if ins.arena.Used() != ld.arena.Used() {
		t.Fatalf("arena used: Insert %d, Load %d", ins.arena.Used(), ld.arena.Used())
	}
	if !bytes.Equal(ins.eng.Mem(), ld.eng.Mem()) {
		t.Fatal("Load left a different memory image than Insert")
	}
	var ik, lk []uint64
	it.Ordered().Scan(0, ^uint64(0), func(k, v uint64) bool { ik = append(ik, k, v); return true })
	lt.Ordered().Scan(0, ^uint64(0), func(k, v uint64) bool { lk = append(lk, k, v); return true })
	if len(ik) != 300 || !slices.Equal(ik, lk) {
		t.Fatalf("ordered index differs: Insert %d entries, Load %d", len(ik)/2, len(lk)/2)
	}
	if ld.eng.Snapshot().Begins != 0 {
		t.Fatal("Load began an HTM transaction")
	}
}

// TestLoadInsertFillsHoles pins loadInsert's slot choice to Insert's on
// chains with free slots ahead of occupied ones, which only deletes make.
func TestLoadInsertFillsHoles(t *testing.T) {
	var mems [2][]byte
	for i, insert := range []func(h *HashTable, k, off uint64) error{
		(*HashTable).Insert, (*HashTable).loadInsert,
	} {
		s := newTestStore(1 << 16)
		h := NewHashTable(s.eng, s.arena, 4)
		for k := uint64(0); k < 40; k++ {
			if err := h.Insert(k, k+100); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(0); k < 40; k += 3 {
			if _, err := h.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(40); k < 60; k++ {
			if err := insert(h, k, k+100); err != nil {
				t.Fatal(err)
			}
		}
		if err := insert(h, 41, 1); err != ErrKeyExists {
			t.Fatalf("duplicate: got %v, want ErrKeyExists", err)
		}
		mems[i] = s.eng.Mem()
	}
	if !bytes.Equal(mems[0], mems[1]) {
		t.Fatal("loadInsert chose different slots than Insert")
	}
}

func TestLoadRejectsOversizeValue(t *testing.T) {
	s := newTestStore(1 << 16)
	tbl := s.CreateTable(1, TableSpec{Name: "t", ValueSize: 8, ExpectedRows: 16})
	used := s.arena.Used()
	if _, err := tbl.Load(1, make([]byte, 9)); err == nil {
		t.Fatal("oversize value accepted")
	}
	if _, ok := tbl.Lookup(1); ok || s.arena.Used() != used {
		t.Fatal("rejected value left a binding or an allocation behind")
	}
}

func TestLoadAfterBeginPanics(t *testing.T) {
	s := newTestStore(1 << 16)
	tbl := s.CreateTable(1, TableSpec{Name: "t", ValueSize: 8, ExpectedRows: 16})
	if _, err := tbl.Load(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	s.eng.Begin().Abort(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Load after an HTM Begin did not panic")
		}
	}()
	_, _ = tbl.Load(2, []byte("b"))
}

// TestLoadAllocFree pins the set-up path to zero heap allocations per row
// on an unordered table (overflow buckets come from the arena).
func TestLoadAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	s := newTestStore(1 << 20)
	tbl := s.CreateTable(1, TableSpec{Name: "t", ValueSize: 100, ExpectedRows: 64})
	val := make([]byte, 100)
	key := uint64(0)
	if allocs := testing.AllocsPerRun(500, func() {
		key++
		if _, err := tbl.Load(key, val); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Table.Load allocates %v times per row, want 0", allocs)
	}
}

// benchmarkTablePut reports the wall cost per loaded row of put on a
// TPC-C-sized record (100-byte values, two cachelines). Every 1<<14 rows
// it starts over on a fresh store, off the clock, so memory stays bounded.
func benchmarkTablePut(b *testing.B, put func(tbl *Table, key uint64, value []byte) (uint64, error)) {
	const rowsPerStore = 1 << 14
	spec := TableSpec{Name: "t", ValueSize: 100, ExpectedRows: rowsPerStore}
	val := make([]byte, 100)
	var tbl *Table
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%rowsPerStore == 0 {
			b.StopTimer()
			tbl = newTestStore(1<<22).CreateTable(1, spec)
			b.StartTimer()
		}
		if _, err := put(tbl, uint64(i%rowsPerStore), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}

func BenchmarkTableInsert(b *testing.B) { benchmarkTablePut(b, (*Table).Insert) }

func BenchmarkTableLoad(b *testing.B) { benchmarkTablePut(b, (*Table).Load) }
