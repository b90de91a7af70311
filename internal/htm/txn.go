package htm

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"drtmr/internal/obs"
	"drtmr/internal/sim"
)

// Transaction status values, packed into one atomic word together with the
// abort cause and XABORT code so that the (state, cause, code) triple is
// always read and written atomically: bits 0-7 state, 8-15 cause, 16-23 code.
const (
	statusActive uint32 = iota
	statusAborted
	statusCommitted
)

func packAborted(cause AbortCause, code uint8) uint32 {
	return statusAborted | uint32(cause)<<8 | uint32(code)<<16
}

func unpack(w uint32) (state uint32, cause AbortCause, code uint8) {
	return w & 0xff, AbortCause(w >> 8 & 0xff), uint8(w >> 16 & 0xff)
}

// Txn is one hardware transaction (the code between XBEGIN and XEND).
//
// A Txn is owned by a single goroutine; only the abort path may touch it
// from outside, and that path synchronizes through the status word and the
// operation mutex.
type Txn struct {
	eng    *Engine
	status atomic.Uint32 // packed (state, cause, code)

	// opMu serializes this transaction's own operations against external
	// abort cleanup. Cleanup (undo restore + deregistration) runs exactly
	// once, always under opMu: either by an external aborter that wins a
	// TryLock, or by the owner the moment an operation observes the
	// aborted status. An aborter never *blocks* on opMu — that would
	// deadlock two transactions aborting each other — it instead lets
	// the in-flight operation finish and clean up itself, and waits for
	// deregistration in its own retry loop.
	opMu    sync.Mutex
	cleaned bool // guarded by opMu

	readLines  map[uint64]struct{}
	writeUndo  map[uint64][]byte // line -> original 64B content
	writeOrder []uint64          // lines in first-write order (for tests/debug)

	// Tracing (nil rec = off). The end event is emitted only by OWNER-side
	// paths (Commit, selfAbort, checkActive) — never by extAbort, whose
	// cleanup may run on a foreign goroutine that must not touch the owner's
	// single-writer recorder. tended dedupes across those paths; tbegin is
	// the virtual XBEGIN timestamp.
	rec    *obs.Recorder
	tclk   *sim.Clock
	tid    uint64
	tbegin int64
	tended bool
}

// Trace arms trace recording for this hardware transaction: XBEGIN is
// stamped now from clk, and XEND/XABORT will emit one obs.EvHTM event onto
// rec carrying txn id (the protocol-level transaction this region serves),
// abort cause (0 = committed) and XABORT code.
func (t *Txn) Trace(rec *obs.Recorder, clk *sim.Clock, id uint64) {
	t.rec, t.tclk, t.tid = rec, clk, id
	t.tbegin = clk.Now()
}

// traceEnd emits the region's end event once. Callers are owner-side only
// (they hold opMu or own the Txn exclusively).
func (t *Txn) traceEnd(cause AbortCause, code uint8) {
	if t.rec == nil || t.tended {
		return
	}
	t.tended = true
	t.rec.Record(obs.EvHTM, uint8(cause), 0, uint32(code), t.tid, t.tbegin, t.tclk.Now())
}

// Begin starts a hardware transaction.
func (e *Engine) Begin() *Txn {
	e.stats.Begins.Add(1)
	return &Txn{
		eng:       e,
		readLines: make(map[uint64]struct{}, 8),
		writeUndo: make(map[uint64][]byte, 4),
	}
}

// Active reports whether the transaction can still perform operations.
func (t *Txn) Active() bool { return t.status.Load()&0xff == statusActive }

// abortErr builds the error for the recorded cause.
func (t *Txn) abortErr() *AbortError {
	_, cause, code := unpack(t.status.Load())
	return &AbortError{Cause: cause, Code: code}
}

// checkActive returns nil if the transaction may proceed. If it was aborted
// externally, the owner runs cleanup here (it holds opMu) so the aborter's
// retry loop can make progress. Caller holds opMu.
func (t *Txn) checkActive() *AbortError {
	w := t.status.Load()
	if w&0xff == statusActive {
		return nil
	}
	if w&0xff == statusAborted {
		t.cleanupLocked()
		_, cause, code := unpack(w)
		t.traceEnd(cause, code)
	}
	return t.abortErr()
}

// selfAbort is called by the owning goroutine (which holds opMu) to abort
// and clean up.
func (t *Txn) selfAbort(cause AbortCause, code uint8) *AbortError {
	if t.status.CompareAndSwap(statusActive, packAborted(cause, code)) {
		t.eng.stats.countAbort(cause)
	}
	t.cleanupLocked()
	_, cause, code = unpack(t.status.Load())
	t.traceEnd(cause, code)
	return t.abortErr()
}

// extAbort aborts the transaction from outside (conflicting access). The
// caller must hold NO shard locks and must not block on the victim: if the
// victim is mid-operation it will clean itself up on exit. The caller's
// retry loop observes completion as deregistration from the line registry.
func (t *Txn) extAbort(cause AbortCause) {
	if !t.status.CompareAndSwap(statusActive, packAborted(cause, 0)) {
		return
	}
	t.eng.stats.countAbort(cause)
	if t.opMu.TryLock() {
		t.cleanupLocked()
		t.opMu.Unlock()
	}
}

// cleanupLocked restores undo data and deregisters every line. Caller holds
// opMu. Idempotent.
func (t *Txn) cleanupLocked() {
	if t.cleaned {
		return
	}
	t.cleaned = true
	for lineIdx, undo := range t.writeUndo {
		s := t.eng.shardFor(lineIdx)
		s.mu.Lock()
		off := lineIdx << sim.CachelineShift
		copy(t.eng.mem[off:off+sim.CachelineSize], undo)
		if ln := s.lines[lineIdx]; ln != nil && ln.writer == t {
			ln.writer = nil
			s.maybeDrop(lineIdx, ln)
		}
		s.mu.Unlock()
	}
	for lineIdx := range t.readLines {
		if _, alsoWrote := t.writeUndo[lineIdx]; alsoWrote {
			continue // write deregistration handled above
		}
		s := t.eng.shardFor(lineIdx)
		s.mu.Lock()
		if ln := s.lines[lineIdx]; ln != nil {
			ln.dropReader(t)
			s.maybeDrop(lineIdx, ln)
		}
		s.mu.Unlock()
	}
	t.writeUndo = nil
	t.readLines = nil
}

// deregisterCommitted removes registrations leaving written data in place.
// Caller holds opMu.
func (t *Txn) deregisterCommitted() {
	t.cleaned = true
	for lineIdx := range t.writeUndo {
		s := t.eng.shardFor(lineIdx)
		s.mu.Lock()
		if ln := s.lines[lineIdx]; ln != nil && ln.writer == t {
			ln.writer = nil
			s.maybeDrop(lineIdx, ln)
		}
		s.mu.Unlock()
	}
	for lineIdx := range t.readLines {
		if _, alsoWrote := t.writeUndo[lineIdx]; alsoWrote {
			continue
		}
		s := t.eng.shardFor(lineIdx)
		s.mu.Lock()
		if ln := s.lines[lineIdx]; ln != nil {
			ln.dropReader(t)
			s.maybeDrop(lineIdx, ln)
		}
		s.mu.Unlock()
	}
	t.writeUndo = nil
	t.readLines = nil
}

func (ln *line) dropReader(t *Txn) {
	for i, r := range ln.readers {
		if r == t {
			last := len(ln.readers) - 1
			ln.readers[i] = ln.readers[last]
			ln.readers = ln.readers[:last]
			return
		}
	}
}

func (s *shard) maybeDrop(lineIdx uint64, ln *line) {
	if ln.writer == nil && len(ln.readers) == 0 {
		delete(s.lines, lineIdx)
	}
}

// acquireLine registers this transaction on lineIdx, aborting conflicting
// transactions (requester wins). asWriter also saves undo data. Returns an
// AbortError if this transaction itself was aborted or hit a capacity limit.
//
// Caller holds opMu.
func (t *Txn) acquireLine(lineIdx uint64, asWriter bool) *AbortError {
	for {
		if err := t.checkActive(); err != nil {
			return err
		}
		s := t.eng.shardFor(lineIdx)
		s.mu.Lock()
		ln := s.lines[lineIdx]
		if ln == nil {
			ln = &line{}
			s.lines[lineIdx] = ln
		}
		// Collect victims. We must not abort them while holding the
		// shard lock (their cleanup needs shard locks), so gather and
		// release first. A victim that is already aborted but still
		// registered is mid-cleanup: wait for it to disappear.
		var victims []*Txn
		pending := false
		if ln.writer != nil && ln.writer != t {
			if ln.writer.Active() {
				victims = append(victims, ln.writer)
			} else {
				pending = true
			}
		}
		if asWriter {
			for _, r := range ln.readers {
				if r == t {
					continue
				}
				if r.Active() {
					victims = append(victims, r)
				} else {
					pending = true
				}
			}
		}
		if len(victims) > 0 || pending {
			s.mu.Unlock()
			for _, v := range victims {
				v.extAbort(CauseConflict)
			}
			if pending && len(victims) == 0 {
				runtime.Gosched() // let the victim finish cleanup
			}
			continue // registry changed; retry
		}
		// No conflicts: register.
		if asWriter {
			if _, ok := t.writeUndo[lineIdx]; !ok {
				if len(t.writeUndo) >= t.eng.cfg.MaxWriteLines {
					s.mu.Unlock()
					return t.selfAbort(CauseCapacity, 0)
				}
				off := lineIdx << sim.CachelineShift
				undo := make([]byte, sim.CachelineSize)
				copy(undo, t.eng.mem[off:off+sim.CachelineSize])
				t.writeUndo[lineIdx] = undo
				t.writeOrder = append(t.writeOrder, lineIdx)
				ln.writer = t
				// A writer subsumes its own read registration.
				ln.dropReader(t)
			}
		} else {
			if _, wrote := t.writeUndo[lineIdx]; !wrote {
				if _, ok := t.readLines[lineIdx]; !ok {
					if len(t.readLines) >= t.eng.cfg.MaxReadLines {
						s.mu.Unlock()
						return t.selfAbort(CauseCapacity, 0)
					}
					t.readLines[lineIdx] = struct{}{}
					ln.readers = append(ln.readers, t)
				}
			}
		}
		s.mu.Unlock()
		return nil
	}
}

// Read copies n bytes at offset off into buf and returns buf[:n]. If buf is
// nil or too small a new slice is allocated.
func (t *Txn) Read(off uint64, n int, buf []byte) ([]byte, error) {
	t.opMu.Lock()
	defer t.opMu.Unlock()
	if err := t.checkActive(); err != nil {
		return nil, err
	}
	if t.eng.spurious() {
		return nil, t.selfAbort(CauseSpurious, 0)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if n == 0 {
		return buf, nil
	}
	first := sim.LineOf(uintptr(off))
	last := sim.LineOf(uintptr(off) + uintptr(n) - 1)
	for li := first; li <= last; li++ {
		//drtmr:allow lockorder opMu is this txn's own op mutex; aborters only TryLock it (never block), so the requester-wins spin inside acquireLine cannot deadlock and MUST run under opMu for cleanup atomicity
		if err := t.acquireLine(li, false); err != nil {
			return nil, err
		}
	}
	// All lines registered; requester-wins means nobody changes them
	// without first aborting us, and cleanup (undo restore) can only run
	// under opMu, which we hold — so this copy is a consistent snapshot
	// provided we are still active afterwards.
	copy(buf, t.eng.mem[off:off+uint64(n)])
	if err := t.checkActive(); err != nil {
		return nil, err
	}
	return buf, nil
}

// Load64 reads a little-endian uint64 at off.
func (t *Txn) Load64(off uint64) (uint64, error) {
	var tmp [8]byte
	b, err := t.Read(off, 8, tmp[:])
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Write stores data at offset off.
func (t *Txn) Write(off uint64, data []byte) error {
	t.opMu.Lock()
	defer t.opMu.Unlock()
	if err := t.checkActive(); err != nil {
		return err
	}
	if t.eng.spurious() {
		return t.selfAbort(CauseSpurious, 0)
	}
	n := len(data)
	if n == 0 {
		return nil
	}
	first := sim.LineOf(uintptr(off))
	last := sim.LineOf(uintptr(off) + uintptr(n) - 1)
	for li := first; li <= last; li++ {
		//drtmr:allow lockorder opMu is this txn's own op mutex; aborters only TryLock it (never block), so the requester-wins spin inside acquireLine cannot deadlock and MUST run under opMu for cleanup atomicity
		if err := t.acquireLine(li, true); err != nil {
			return err
		}
	}
	copy(t.eng.mem[off:off+uint64(n)], data)
	if err := t.checkActive(); err != nil {
		return err
	}
	return nil
}

// Store64 writes a little-endian uint64 at off.
func (t *Txn) Store64(off uint64, v uint64) error {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return t.Write(off, tmp[:])
}

// Abort executes XABORT with the given 8-bit code.
func (t *Txn) Abort(code uint8) error {
	t.opMu.Lock()
	defer t.opMu.Unlock()
	if err := t.checkActive(); err != nil {
		return err
	}
	return t.selfAbort(CauseExplicit, code)
}

// Commit executes XEND. On success all writes become visible atomically (in
// this simulation they are already in place; commit makes them permanent and
// releases conflict tracking). Returns an AbortError if the transaction was
// aborted.
func (t *Txn) Commit() error {
	t.opMu.Lock()
	defer t.opMu.Unlock()
	if t.Active() && t.eng.spurious() {
		return t.selfAbort(CauseSpurious, 0)
	}
	if !t.status.CompareAndSwap(statusActive, statusCommitted) {
		w := t.status.Load()
		if w&0xff == statusAborted {
			t.cleanupLocked()
			_, cause, code := unpack(w)
			t.traceEnd(cause, code)
		}
		return t.abortErr()
	}
	t.eng.stats.Commits.Add(1)
	t.deregisterCommitted()
	t.traceEnd(0, 0)
	return nil
}
