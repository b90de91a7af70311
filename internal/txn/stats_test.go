package txn

import (
	"reflect"
	"testing"
)

// fillStats sets every plain counter of s to v (uint64 fields, arrays of
// them, and the per-phase verb counters) and reports the names of the fields
// it could not fill, which the caller checks by hand.
func fillStats(s *Stats, v uint64) (other []string) {
	rv := reflect.ValueOf(s).Elem()
	var fill func(f reflect.Value) bool
	fill = func(f reflect.Value) bool {
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(v)
		case reflect.Array:
			for i := 0; i < f.Len(); i++ {
				if !fill(f.Index(i)) {
					return false
				}
			}
		case reflect.Struct:
			if f.Type() != reflect.TypeOf(PhaseStat{}) {
				return false
			}
			for i := 0; i < f.NumField(); i++ {
				fill(f.Field(i))
			}
		default:
			return false
		}
		return true
	}
	for i := 0; i < rv.NumField(); i++ {
		if !fill(rv.Field(i)) {
			other = append(other, rv.Type().Field(i).Name)
		}
	}
	return other
}

// TestStatsMergeFoldsEveryCounter pins Stats.Merge as the one roll-up path:
// every counter sums except CoMaxInFlight (max), and a new Stats field that
// Merge does not fold fails here.
func TestStatsMergeFoldsEveryCounter(t *testing.T) {
	var s, o Stats
	fillStats(&s, 2)
	other := fillStats(&o, 3)
	hk := HotKey{Table: 1, Key: 9}
	s.AbortCells.Record(1, 2, 0)
	o.AbortCells.Record(1, 2, 0)
	o.KeyAborts = map[HotKey]uint64{hk: 4}
	s.QueueWaitHist.Record(100)
	o.QueueWaitHist.Record(300)

	s.Merge(&o)

	var want Stats
	fillStats(&want, 5)
	want.CoMaxInFlight = 3
	got := s
	got.AbortCells, got.KeyAborts, got.QueueWaitHist = want.AbortCells, nil, want.QueueWaitHist
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged counters:\n got %+v\nwant %+v", got, want)
	}
	handled := map[string]bool{"AbortCells": true, "KeyAborts": true, "QueueWaitHist": true}
	for _, name := range other {
		if !handled[name] {
			t.Errorf("Stats.%s is not a plain counter: fold it in Merge and check it here", name)
		}
	}
	if n := s.AbortCells.Total(); n != 2 {
		t.Errorf("AbortCells total %d, want 2", n)
	}
	if n := s.KeyAborts[hk]; n != 4 {
		t.Errorf("KeyAborts[%v] = %d, want 4 (merged into a nil map)", hk, n)
	}
	if h := &s.QueueWaitHist; h.Count() != 2 || h.Sum() != 400 {
		t.Errorf("QueueWaitHist count %d sum %d, want 2 and 400", h.Count(), h.Sum())
	}
}
