// Closed-form set-stride fold for sequential demand (DESIGN.md §4h).
//
// A sequential line range walks the direct-mapped tag store's sets with
// unit stride, wrapping set -> 0 with a tag carry. Against arbitrary
// prior state, the first visit to each set can take any Table-I outcome
// — but this range's own visit leaves the set in a state the policy
// fully determines, so from the second wrap on (reads may need one more
// wrap to flush dirt that a hit preserved) every line takes exactly one
// outcome:
//
//	reads:  tag miss, clean victim (this range's own install),
//	        NVRAM fill + DRAM install
//	writes: tag miss, dirty victim = the line one set-wrap back,
//	        victim writeback + fill + install + data write
//
// The fold therefore splits a range into predicated probe wraps (at
// most two wraps for reads, one for writes) and a uniform remainder.
// Every step looks up the controller's transition table (table.go). A
// probe wrap commits runs: within a tag segment, consecutive sets
// holding the same packed word take the same transition, so a run costs
// one word store per set plus k × the transition's row in bulk counter
// and device calls, while an isolated set takes the per-set step. Prior
// state that a sequential pass left behind is a handful of long runs;
// random state is mostly isolated sets. The remainder is one run of the
// uniform transition: counters in O(1), per-channel CAS through dram's
// range distributor, NVRAM media through the ascending-run entry
// points, and the final tag state as a bulk stamp of the last window of
// sets. The interleaved writeback+read fold does the same for the
// eviction shadow a store stream drags behind its demand reads.
// Fallbacks: associativity > 1 (no flat entry array) and the
// no-allocate ablations take the per-line path; DisableDDO folds (it
// only changes which transition the write hits take). Legality is
// pinned by the differential and range-split tests in seqfold_test.go —
// byte-identical counters, channel CAS, NVRAM media counters, and final
// tag state versus per-line dispatch.

package imc

import (
	"twolm/internal/cache"
	"twolm/internal/mem"
)

// seqReadRange is the closed-form body of LLCReadRange. Preconditions:
// n > 0, entries is the flat Ways==1 tag array, and ReadAllocate holds.
// The caller flushes telemetry.
func (c *Controller) seqReadRange(entries []uint64, addr, n uint64) {
	sets := c.sets
	rem := n
	a := addr
	// Probe wraps: the first visit to each set runs predicated against
	// whatever the set held. A read hit preserves a dirty bit, so one
	// more wrap of dirt can follow; after a wrap with no dirty hits the
	// remainder is uniform. Two wraps is the fixed point: a second wrap
	// cannot hit (its tags are one carry past the tags it installed).
	for rem > 0 {
		w := min(rem, sets)
		dirtyHits := c.probeWrap(entries, 0, a, w)
		a += w * mem.Line
		rem -= w
		if dirtyHits == 0 {
			break
		}
	}
	// Uniform remainder: every line misses clean against this range's
	// own install one set wrap back.
	if rem > 0 {
		t := &c.trans[outcome(0, 0, cache.EntryValid|cache.EntryLLCOwned)]
		c.commitRun(t, c.DRAM.ChannelIndex(a), a, 0, rem)
		c.stampTail(a, rem, t.set)
	}
}

// stampTail stamps the final tag state of the uniform remainder of n
// lines from a, whose every line installed with flags: the last set
// wrap's lines.
func (c *Controller) stampTail(a, n, flags uint64) {
	wlen := min(n, c.sets)
	ws, wt := c.Cache.Index(a + (n-wlen)*mem.Line)
	c.Cache.StampSeqRun(ws, wt, wlen, flags)
}

// probeWrap services n consecutive lines (n <= sets) of one operation
// (isW is 1 for writebacks) with the per-line path's semantics. Within
// a tag segment, consecutive sets holding the same packed word take the
// same transition, so a run of them commits at once (commitRun); a set
// whose successor differs takes the per-set step, so random or
// adversarial prior state costs one packed-word load and store per
// set. It reports how many hits found the line dirty — for reads, the
// condition for another predicated wrap.
func (c *Controller) probeWrap(entries []uint64, isW, addr, n uint64) (dirtyHits uint64) {
	sets := c.sets
	set, tag := c.Cache.Index(addr)
	chIdx := c.DRAM.ChannelIndex(addr)
	a := addr
	for n > 0 {
		w := entries[set]
		hit := hitBit(w, tag)
		t := &c.trans[outcome(isW, hit, w)]
		nw := t.next(w, tag)
		victim := (uint64(cache.EntryTagOf(w))*sets + set) << mem.LineShift
		limit := set + min(n, sets-set)
		k := uint64(1)
		if set+1 < limit && entries[set+1] == w {
			k = claimRun(entries, set, limit, nw)
			chIdx = c.commitRun(t, chIdx, a, victim, k)
		} else {
			entries[set] = nw
			c.commit(t.col, 1)
			c.lineTraffic(t, chIdx, a, victim)
			chIdx = c.nextChannel(chIdx)
		}
		if hit == 1 && w&cache.EntryDirty != 0 {
			dirtyHits += k
		}
		n -= k
		set += k
		if set == sets {
			set, tag = 0, tag+1
		}
		a += k << mem.LineShift
	}
	return dirtyHits
}

// claimRun overwrites with nw the words from set up to limit that
// equal entries[set], stopping at the first that differs, and returns
// how many it overwrote (at least one). Fusing the run scan with the
// store keeps a run at one pass over the tag array.
func claimRun(entries []uint64, set, limit, nw uint64) uint64 {
	w := entries[set]
	i := set
	for i < limit && entries[i] == w {
		entries[i] = nw
		i++
	}
	return i - set
}

// lineRunMin is the shortest run committed through the device layers'
// bulk entry points. Those pay a fixed cost per call (a channel sweep,
// an interleave-chunk step, the XPBuffer bound scan), so shorter runs —
// the common case under random or adversarial prior state — step the
// per-line device calls as the per-set walk always did.
const lineRunMin = 8

// commitRun commits k lines of transition t from line (the first on
// DRAM channel chIdx) whose victims, if any, are the k consecutive
// lines from victim: k × t's row of counters, DRAM CAS and NVRAM, with
// NVRAM traffic in per-direction ascending order. It returns the
// channel of the line after the run.
func (c *Controller) commitRun(t *transition, chIdx int, line, victim, k uint64) int {
	c.commit(t.col, k)
	if k < lineRunMin {
		for ; k > 0; k-- {
			c.lineTraffic(t, chIdx, line, victim)
			line += mem.Line
			victim += mem.Line
			chIdx = c.nextChannel(chIdx)
		}
		return chIdx
	}
	if t.nvW != 0 {
		c.NVRAM.WriteLineRun(t.writeTarget(line, victim), k)
	}
	if t.nvR != 0 {
		c.NVRAM.ReadLineRun(line, k)
	}
	for i := uint64(0); i < t.casR; i++ {
		c.DRAM.ReadRange(line, k)
	}
	for i := uint64(0); i < t.casW; i++ {
		c.DRAM.WriteRange(line, k)
	}
	return c.DRAM.ChannelIndex(line + k<<mem.LineShift)
}

// nextChannel returns the DRAM channel index after chIdx.
func (c *Controller) nextChannel(chIdx int) int {
	chIdx++
	if chIdx == c.nch {
		chIdx = 0
	}
	return chIdx
}

// seqWriteRange is the closed-form body of LLCWriteRange. Preconditions:
// n > 0, entries is the flat Ways==1 tag array, and WriteAllocate holds
// (DisableDDO folds). The caller flushes telemetry.
func (c *Controller) seqWriteRange(entries []uint64, addr, n uint64) {
	// One probe wrap reaches the fixed point: every write leaves its set
	// valid and dirty with this wrap's tag, so the next wrap always
	// misses dirty against the line one set wrap back.
	head := min(n, c.sets)
	c.probeWrap(entries, 1, addr, head)
	if rem := n - head; rem > 0 {
		a := addr + head*mem.Line
		t := &c.trans[outcome(1, 0, cache.EntryValid|cache.EntryDirty)]
		c.commitRun(t, c.DRAM.ChannelIndex(a), a, a-c.sets*mem.Line, rem)
		c.stampTail(a, rem, t.set)
	}
}

// LLCWritebackReadRange services n interleaved (writeback, read) line
// pairs: for each i in [0, n), an LLCWrite of the line at waddr+i*64
// followed by an LLCRead of the line at raddr+i*64 — the stream an LLC
// filter emits in its streaming steady state, where every demand read
// evicts the dirty line `lag` lines behind it (waddr = raddr - lag*64).
// Counter results are byte-identical to the per-line interleave.
//
// When the write stream trails the read stream by 0 < lag < sets lines
// on a direct-mapped store with both allocate policies, the fold
// applies: after one predicated set wrap, every write hits the line its
// paired read installed lag pairs earlier (the Dirty Data Optimization
// case, or a plain tag hit with DDO disabled), and every read evicts
// the dirty line one set wrap back. Other configurations fall back to
// the per-line entry points.
//
//hot:entry batched streaming-store path, driven on pooled controllers
//alloc:free batched writeback+read path, 0 allocs/op by benchmark contract
func (c *Controller) LLCWritebackReadRange(waddr, raddr, n uint64) {
	if n == 0 {
		return
	}
	entries := c.Cache.DirectEntries()
	lag := (raddr >> mem.LineShift) - (waddr >> mem.LineShift)
	if entries == nil || !c.policy.ReadAllocate || !c.policy.WriteAllocate ||
		raddr <= waddr || lag == 0 || lag >= c.sets {
		for i := uint64(0); i < n; i++ {
			c.LLCWrite(waddr + i*mem.Line)
			c.LLCRead(raddr + i*mem.Line)
		}
		if c.sink != nil {
			c.maybeSample()
		}
		return
	}

	sets := c.sets
	head := min(n, sets)
	c.pairProbeWrap(entries, waddr, raddr, lag, head)
	// Write stream past the first lag pairs, inside the probe wrap and
	// beyond it: every write hits the clean line its paired read
	// installed lag pairs earlier and the LLC still owns.
	if n > lag {
		wa := waddr + lag*mem.Line
		t := &c.trans[outcome(1, 1, cache.EntryValid|cache.EntryLLCOwned)]
		c.commitRun(t, c.DRAM.ChannelIndex(wa), wa, 0, n-lag)
	}
	if rem := n - head; rem > 0 {
		// Read stream: every probe evicts the dirty line installed one
		// set wrap back, writes it back, refills, and reinstalls.
		ra := raddr + head*mem.Line
		t := &c.trans[outcome(0, 0, cache.EntryValid|cache.EntryDirty)]
		c.commitRun(t, c.DRAM.ChannelIndex(ra), ra, ra-sets*mem.Line, rem)
		// Final tag state. A set's last toucher is the read stream when
		// no write follows it (the trailing lag pairs), the write
		// stream when no read revisits the set (the trailing sets-lag
		// write lines); both stamp the tag of the line involved, since
		// a write's set was (re)installed by its own paired read. Sets
		// last touched inside the probe wrap already hold their state.
		gw := min(rem, sets-lag)
		sw, tw := c.Cache.Index(waddr + (n-gw)*mem.Line)
		c.Cache.StampSeqRun(sw, tw, gw, cache.EntryValid|cache.EntryDirty)
		gr := min(rem, lag)
		sr, tr := c.Cache.Index(raddr + (n-gr)*mem.Line)
		c.Cache.StampSeqRun(sr, tr, gr, cache.EntryValid|cache.EntryLLCOwned)
	}
	if c.sink != nil {
		c.maybeSample()
	}
}

// pairProbeWrap services the tag probes of n interleaved (writeback,
// read) pairs (n <= sets) whose write stream trails the read stream by
// lag lines, predicated against arbitrary tag state. It runs in three
// steps, each preserving the per-pair path's per-set operation order
// and its per-direction NVRAM order:
//
//  1. The first min(n, lag) pairs run per line, interleaved. Their
//     writes touch lines this range never reads, whose sets the read
//     stream reaches only at the end of the wrap.
//  2. The remaining reads go through the run-length probe wrap. No
//     write after step 1 shares a set with a read of this wrap.
//  3. The remaining writes each hit the line their paired read
//     installed lag pairs earlier, so their sets are stamped
//     Valid|Dirty. They generate no NVRAM traffic, so committing them
//     after the reads leaves device order unchanged; the caller counts
//     them with the rest of the range's write stream.
func (c *Controller) pairProbeWrap(entries []uint64, waddr, raddr, lag, n uint64) {
	head := min(n, lag)
	for i := uint64(0); i < head; i++ {
		c.probeWrap(entries, 1, waddr+i*mem.Line, 1)
		c.probeWrap(entries, 0, raddr+i*mem.Line, 1)
	}
	if n == head {
		return
	}
	c.probeWrap(entries, 0, raddr+head*mem.Line, n-head)
	ws, wt := c.Cache.Index(waddr + head*mem.Line)
	c.Cache.StampSeqRun(ws, wt, n-head, cache.EntryValid|cache.EntryDirty)
}
