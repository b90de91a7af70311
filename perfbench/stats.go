package main

import (
	"fmt"
	"math"
	"sort"

	"drtmr/internal/obs"
)

// median returns the middle of xs (mean of the two middle values for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailQuantile picks the percentile to report as a tail: want, or the
// highest percentile below it that still has minBeyond samples beyond it
// when n is too small for want. It fails when even the median would not
// qualify.
func tailQuantile(n int, want float64) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("no samples")
	}
	if float64(n)*(1-want) >= minBeyond {
		return want, nil
	}
	q := 1 - float64(minBeyond)/float64(n)
	if q < 0.5 {
		return 0, fmt.Errorf("%d samples cannot support a tail percentile", n)
	}
	return q, nil
}

// checkTail fails unless quantile q of n samples has minBeyond samples
// beyond it. End-to-end tails use it: their percentile is fixed by name.
func checkTail(n int, q float64) error {
	if beyond := float64(n) * (1 - q); beyond < minBeyond {
		return fmt.Errorf("p%g over %d samples has only %.1f samples beyond it (need %d)",
			q*100, n, beyond, minBeyond)
	}
	return nil
}

// sampleQuantile returns the q-quantile of raw samples (linear
// interpolation between closest ranks). sorted must be ascending.
func sampleQuantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[lo+1]-sorted[lo])
}

// histQuantile returns the q-quantile of a log-bucketed histogram,
// placing the target rank linearly inside its bucket. obs.Histogram's own
// Quantile reports bucket lower bounds, which stay constant while the
// distribution shifts by less than a bucket (about 3%); interpolating
// lets a small shift show.
func histQuantile(h *obs.Histogram, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var seen float64
	out := float64(h.Max())
	done := false
	h.Fold(func(b int, c uint64) {
		if done {
			return
		}
		if seen+float64(c) >= rank {
			lo := float64(obs.BucketLower(b))
			width := float64(obs.BucketUpper(b)) + 1 - lo
			out = lo + width*(rank-seen)/float64(c)
			done = true
			return
		}
		seen += float64(c)
	})
	return math.Min(math.Max(out, float64(h.Min())), float64(h.Max()))
}

// failFrac is the share of attempted operations that did not succeed.
func failFrac(attempted, ok uint64) float64 {
	if attempted == 0 {
		return 1
	}
	if ok > attempted {
		ok = attempted
	}
	return float64(attempted-ok) / float64(attempted)
}

// lateness returns how late each call was sent against its schedule,
// ascending, in ns. A call sent early counts as on time.
func lateness(due, sent []int64) []int64 {
	out := make([]int64, len(due))
	for i := range due {
		if d := sent[i] - due[i]; d > 0 {
			out[i] = d
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkMoney verifies the bank's conservation law: every balance summed
// must equal the money loaded plus the deposits the server acknowledged
// (payments only move money, and insufficient-funds payments commit as
// no-ops).
func checkMoney(total, initial, deposits uint64) error {
	if want := initial + deposits; total != want {
		return fmt.Errorf("money not conserved: balances sum to %d, want %d (initial %d + acknowledged deposits %d)",
			total, want, initial, deposits)
	}
	return nil
}

// Span kinds, ordered by nesting depth on a worker's clock: an attempt
// contains commit phases, which contain HTM regions and doorbells, and a
// coroutine yield can sit inside any of them.
const (
	kindTxn = iota
	kindPhase
	kindHTM
	kindDoorbell
	kindYield
	numKinds
)

var kindLevel = [numKinds]int{kindTxn: 0, kindPhase: 1, kindHTM: 2, kindDoorbell: 2, kindYield: 3}

// span is one interval on a single worker's virtual clock.
type span struct {
	kind       int
	start, end int64
}

// interval is a half-open [lo, hi) range of virtual ns.
type interval struct{ lo, hi int64 }

// union merges intervals into sorted, disjoint ranges.
func union(iv []interval) []interval {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var out []interval
	for _, x := range iv {
		if x.hi <= x.lo {
			continue
		}
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			if x.hi > out[n-1].hi {
				out[n-1].hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// covered returns how much of [lo, hi) the sorted disjoint ranges u cover.
func covered(u []interval, lo, hi int64) int64 {
	i := sort.Search(len(u), func(i int) bool { return u[i].hi > lo })
	var c int64
	for ; i < len(u) && u[i].lo < hi; i++ {
		c += min(u[i].hi, hi) - max(u[i].lo, lo)
	}
	return c
}

// foldSelf sums each kind's self time over the spans of one coroutine: a
// span's duration minus the part of it that the coroutine's spans of
// deeper kinds cover. A yield span is the coroutine's own parked time, so
// an attempt or doorbell loses exactly the time its siblings held the
// worker.
func foldSelf(spans []span) [numKinds]int64 {
	var self [numKinds]int64
	for lvl := 0; lvl < 3; lvl++ {
		var deeper []interval
		for _, s := range spans {
			if kindLevel[s.kind] > lvl {
				deeper = append(deeper, interval{s.start, s.end})
			}
		}
		u := union(deeper)
		for _, s := range spans {
			if kindLevel[s.kind] == lvl {
				self[s.kind] += (s.end - s.start) - covered(u, s.start, s.end)
			}
		}
	}
	for _, s := range spans {
		if s.kind == kindYield {
			self[kindYield] += s.end - s.start
		}
	}
	return self
}

// coroutineSlots attributes each event of one worker's ring (in recording
// order) to the coroutine slot that recorded it. Doorbells and yields carry
// no transaction id, but a worker runs one coroutine at a time and a yield
// event is recorded by the coroutine resuming (Arg = its slot), so every
// event up to the next yield belongs to that slot. A coroutine's very first
// run starts without a resume event; events carrying a transaction id are
// corrected from that transaction's later, attributable events, which
// leaves at most a few id-less events per worker on the wrong slot.
func coroutineSlots(evs []obs.Event) []int {
	slots := make([]int, len(evs))
	idSlot := make(map[uint64]int)
	cur, known := 0, false
	for i, e := range evs {
		if e.Kind == obs.EvYield {
			cur, known = int(e.Arg), true
		}
		slots[i] = cur
		if known && e.ID != 0 {
			idSlot[e.ID] = cur
		}
	}
	for i, e := range evs {
		if s, ok := idSlot[e.ID]; ok && e.ID != 0 {
			slots[i] = s
		}
	}
	return slots
}
