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
// most two wraps for reads, one for writes) and a uniform remainder
// committed arithmetically. A probe wrap commits runs: within a tag
// segment, consecutive sets holding the same packed word take the same
// outcome, so a run costs one word store per set plus bulk counter and
// device calls, while an isolated set takes the per-set step. Prior
// state that a sequential pass left behind is a handful of long runs;
// random state is mostly isolated sets. The remainder commits counters in
// O(1), per-channel CAS through dram's range distributor, NVRAM media
// through the ascending-run entry points, and the final tag state as a
// bulk stamp of the last window of sets. The interleaved writeback+read
// fold does the same for the eviction shadow a store stream drags
// behind its demand reads. Fallbacks: associativity > 1 (no flat entry
// array) and the no-allocate ablations take the per-line loops;
// DisableDDO folds (it only changes which uniform write formula
// applies). Legality is pinned by the differential and range-split
// tests in seqfold_test.go — byte-identical counters, channel CAS,
// NVRAM media counters, and final tag state versus per-line dispatch.

package imc

import (
	"twolm/internal/cache"
	"twolm/internal/mem"
)

// seqReadRange is the closed-form body of LLCReadRange. Preconditions:
// n > 0, entries is the flat Ways==1 tag array, and ReadAllocate holds.
// The caller flushes telemetry.
func (c *Controller) seqReadRange(entries []uint64, addr, n uint64) {
	var d Counters
	d.LLCRead = n
	// Every read costs one DRAM data+tag read, hit or miss.
	d.DRAMRead = n
	c.DRAM.ReadRange(addr, n)

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
		dirtyHits := c.readProbeWrap(entries, &d, a, w)
		a += w * mem.Line
		rem -= w
		if dirtyHits == 0 {
			break
		}
	}
	// Uniform remainder: every line misses clean against this range's
	// own install and refills.
	if rem > 0 {
		d.TagMissClean += rem
		d.NVRAMRead += rem
		c.NVRAM.ReadLineRun(a, rem)
		d.DRAMWrite += rem
		c.DRAM.WriteRange(a, rem)
		wlen := min(rem, sets)
		ws, wt := c.Cache.Index(a + (rem-wlen)*mem.Line)
		c.Cache.StampSeqRun(ws, wt, wlen, cache.EntryValid|cache.EntryLLCOwned)
	}
	c.counters = c.counters.Add(d)
}

// readProbeWrap services n consecutive read lines (n <= sets) with
// LLCRead's per-line semantics. Within a tag segment, consecutive sets
// holding the same packed word take the same Table-I outcome, so a run
// of them commits at once (commitRun); a set whose successor differs
// takes the per-set step, so random or adversarial prior state costs
// one packed-word load and store per set, as it always did. It reports
// how many hits preserved a dirty bit — the condition for another
// predicated wrap. The per-line DRAM data read is accounted by the
// caller for the whole range.
func (c *Controller) readProbeWrap(entries []uint64, d *Counters, addr, n uint64) (dirtyHits uint64) {
	sets := c.sets
	set, tag := c.Cache.Index(addr)
	chIdx := c.DRAM.ChannelIndex(addr)
	a := addr
	for n > 0 {
		w := entries[set]
		hit := w&cache.EntryValid != 0 && cache.EntryTagOf(w) == tag
		limit := set + min(n, sets-set)
		k := uint64(1)
		switch {
		case set+1 < limit && entries[set+1] == w:
			var t runTraffic
			if hit {
				k = claimRun(entries, set, limit, w|cache.EntryLLCOwned)
				d.TagHit += k
				if w&cache.EntryDirty != 0 {
					dirtyHits += k
				}
			} else {
				k = claimRun(entries, set, limit, cache.PackEntry(tag, cache.EntryValid|cache.EntryLLCOwned))
				// Fill from NVRAM, install into DRAM.
				t = runTraffic{casWrites: 1, fill: true}
			}
			chIdx = c.commitRun(d, t, w, set, a, chIdx, k)
		case hit:
			d.TagHit++
			entries[set] = w | cache.EntryLLCOwned
			if w&cache.EntryDirty != 0 {
				dirtyHits++
			}
			chIdx = c.nextChannel(chIdx)
		default:
			if w&(cache.EntryValid|cache.EntryDirty) == cache.EntryValid|cache.EntryDirty {
				d.TagMissDirty++
				d.NVRAMWrite++
				c.NVRAM.Write((uint64(cache.EntryTagOf(w))*sets + set) << mem.LineShift)
			} else {
				d.TagMissClean++
			}
			d.NVRAMRead++
			c.NVRAM.Read(a)
			d.DRAMWrite++
			c.DRAM.ChannelAt(chIdx).CASWrites++
			entries[set] = cache.PackEntry(tag, cache.EntryValid|cache.EntryLLCOwned)
			chIdx = c.nextChannel(chIdx)
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

// runTraffic is the device traffic every line of a probe run generates
// besides its tag outcome.
type runTraffic struct {
	casReads  uint64 // DRAM CAS reads (the write tag check)
	casWrites uint64 // DRAM CAS writes (fill install, data write)
	fill      bool   // a tag miss: NVRAM fill, plus the victim writeback if dirty
}

// lineRunMin is the shortest run committed through the device layers'
// bulk entry points. Those pay a fixed cost per call (a channel sweep,
// an interleave-chunk step, the XPBuffer bound scan), so shorter runs —
// the common case under random or adversarial prior state — step the
// per-line device calls as the per-set walk always did.
const lineRunMin = 8

// commitRun commits the traffic t of a run of k lines from a (the
// first on DRAM channel chIdx) over the sets from set, which held the
// packed word w: counters, DRAM CAS and NVRAM, and for a miss the
// clean/dirty classification and the victims' writeback — the run's
// victims share w's tag, so they are k consecutive lines. NVRAM
// traffic keeps its per-direction ascending order. It returns the
// channel of the line after the run.
func (c *Controller) commitRun(d *Counters, t runTraffic, w, set, a uint64, chIdx int, k uint64) int {
	d.DRAMRead += t.casReads * k
	d.DRAMWrite += t.casWrites * k
	writeback := false
	if t.fill {
		d.NVRAMRead += k
		if w&(cache.EntryValid|cache.EntryDirty) == cache.EntryValid|cache.EntryDirty {
			d.TagMissDirty += k
			d.NVRAMWrite += k
			writeback = true
		} else {
			d.TagMissClean += k
		}
	}
	victim := (uint64(cache.EntryTagOf(w))*c.sets + set) << mem.LineShift
	if k < lineRunMin {
		for ; k > 0; k-- {
			ch := c.DRAM.ChannelAt(chIdx)
			ch.CASReads += t.casReads
			ch.CASWrites += t.casWrites
			if writeback {
				c.NVRAM.Write(victim)
				victim += mem.Line
			}
			if t.fill {
				c.NVRAM.Read(a)
			}
			a += mem.Line
			chIdx = c.nextChannel(chIdx)
		}
		return chIdx
	}
	if writeback {
		c.NVRAM.WriteLineRun(victim, k)
	}
	if t.fill {
		c.NVRAM.ReadLineRun(a, k)
	}
	for i := uint64(0); i < t.casReads; i++ {
		c.DRAM.ReadRange(a, k)
	}
	for i := uint64(0); i < t.casWrites; i++ {
		c.DRAM.WriteRange(a, k)
	}
	return c.DRAM.ChannelIndex(a + k<<mem.LineShift)
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
	var d Counters
	d.LLCWrite = n

	sets := c.sets
	// One probe wrap reaches the fixed point: every write branch leaves
	// its set valid and dirty with this wrap's tag, so the next wrap
	// always takes the dirty-miss path.
	head := min(n, sets)
	c.writeProbeWrap(entries, &d, addr, head)
	rem := n - head
	if rem > 0 {
		a := addr + head*mem.Line
		// Tag-check read, then: victim writeback of the line one wrap
		// back, fill, install, and the data write.
		d.DRAMRead += rem
		c.DRAM.ReadRange(a, rem)
		d.TagMissDirty += rem
		d.NVRAMWrite += rem
		c.NVRAM.WriteLineRun(a-sets*mem.Line, rem)
		d.NVRAMRead += rem
		c.NVRAM.ReadLineRun(a, rem)
		d.DRAMWrite += 2 * rem
		c.DRAM.WriteRange(a, rem)
		c.DRAM.WriteRange(a, rem)
		wlen := min(rem, sets)
		ws, wt := c.Cache.Index(a + (rem-wlen)*mem.Line)
		c.Cache.StampSeqRun(ws, wt, wlen, cache.EntryValid|cache.EntryDirty)
	}
	c.counters = c.counters.Add(d)
}

// writeProbeWrap services n consecutive writeback lines (n <= sets)
// with LLCWrite's per-line semantics, committing runs of identical
// packed words at once and isolated sets per set, like readProbeWrap.
func (c *Controller) writeProbeWrap(entries []uint64, d *Counters, addr, n uint64) {
	sets := c.sets
	set, tag := c.Cache.Index(addr)
	chIdx := c.DRAM.ChannelIndex(addr)
	a := addr
	for n > 0 {
		w := entries[set]
		hit := w&cache.EntryValid != 0 && cache.EntryTagOf(w) == tag
		ddo := hit && !c.DisableDDO && w&cache.EntryLLCOwned != 0
		limit := set + min(n, sets-set)
		k := uint64(1)
		if set+1 < limit && entries[set+1] == w {
			var t runTraffic
			switch {
			case ddo:
				k = claimRun(entries, set, limit, (w|cache.EntryDirty)&^cache.EntryLLCOwned)
				d.DDO += k
				d.TagHit += k
				t = runTraffic{casWrites: 1}
			case hit:
				k = claimRun(entries, set, limit, (w|cache.EntryDirty)&^cache.EntryLLCOwned)
				d.TagHit += k
				// DRAM read purely for the tag check, then the data write.
				t = runTraffic{casReads: 1, casWrites: 1}
			default:
				k = claimRun(entries, set, limit, cache.PackEntry(tag, cache.EntryValid|cache.EntryDirty))
				// Tag-check read; fill write, then the data write of the
				// incoming line.
				t = runTraffic{casReads: 1, casWrites: 2, fill: true}
			}
			chIdx = c.commitRun(d, t, w, set, a, chIdx, k)
		} else {
			ch := c.DRAM.ChannelAt(chIdx)
			switch {
			case ddo:
				d.DDO++
				d.TagHit++
				d.DRAMWrite++
				ch.CASWrites++
				entries[set] = (w | cache.EntryDirty) &^ cache.EntryLLCOwned
			case hit:
				d.DRAMRead++
				ch.CASReads++
				d.TagHit++
				d.DRAMWrite++
				ch.CASWrites++
				entries[set] = (w | cache.EntryDirty) &^ cache.EntryLLCOwned
			default:
				d.DRAMRead++
				ch.CASReads++
				if w&(cache.EntryValid|cache.EntryDirty) == cache.EntryValid|cache.EntryDirty {
					d.TagMissDirty++
					d.NVRAMWrite++
					c.NVRAM.Write((uint64(cache.EntryTagOf(w))*sets + set) << mem.LineShift)
				} else {
					d.TagMissClean++
				}
				d.NVRAMRead++
				c.NVRAM.Read(a)
				d.DRAMWrite += 2
				ch.CASWrites += 2
				entries[set] = cache.PackEntry(tag, cache.EntryValid|cache.EntryDirty)
			}
			chIdx = c.nextChannel(chIdx)
		}
		n -= k
		set += k
		if set == sets {
			set, tag = 0, tag+1
		}
		a += k << mem.LineShift
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

	var d Counters
	d.LLCWrite = n
	d.LLCRead = n
	// Every read costs one DRAM data+tag read, hit or miss.
	d.DRAMRead = n
	c.DRAM.ReadRange(raddr, n)

	sets := c.sets
	head := min(n, sets)
	c.pairProbeWrap(entries, &d, waddr, raddr, lag, head)
	// Write stream past the first lag pairs, inside the probe wrap and
	// beyond it: every write hits the line its paired read installed
	// lag pairs earlier and the LLC still owns.
	if n > lag {
		wn := n - lag
		wa := waddr + lag*mem.Line
		d.TagHit += wn
		if c.DisableDDO {
			d.DRAMRead += wn
			c.DRAM.ReadRange(wa, wn)
		} else {
			d.DDO += wn
		}
		d.DRAMWrite += wn
		c.DRAM.WriteRange(wa, wn)
	}
	rem := n - head
	if rem > 0 {
		ra := raddr + head*mem.Line
		// Read stream: every probe evicts the dirty line installed one
		// set wrap back, writes it back, refills, and reinstalls.
		d.TagMissDirty += rem
		d.NVRAMWrite += rem
		c.NVRAM.WriteLineRun(ra-sets*mem.Line, rem)
		d.NVRAMRead += rem
		c.NVRAM.ReadLineRun(ra, rem)
		d.DRAMWrite += rem
		c.DRAM.WriteRange(ra, rem)
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
	c.counters = c.counters.Add(d)
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
//  2. The remaining reads go through the run-length read probe. No
//     write after step 1 shares a set with a read of this wrap.
//  3. The remaining writes each hit the line their paired read
//     installed lag pairs earlier, so their sets are stamped
//     Valid|Dirty. They generate no NVRAM traffic, so committing them
//     after the reads leaves device order unchanged; the caller counts
//     them with the rest of the range's write stream.
//
// The read stream's per-line DRAM data read is accounted by the caller
// for the whole range.
func (c *Controller) pairProbeWrap(entries []uint64, d *Counters, waddr, raddr, lag, n uint64) {
	head := min(n, lag)
	for i := uint64(0); i < head; i++ {
		c.writeProbeWrap(entries, d, waddr+i*mem.Line, 1)
		c.readProbeWrap(entries, d, raddr+i*mem.Line, 1)
	}
	if n == head {
		return
	}
	c.readProbeWrap(entries, d, raddr+head*mem.Line, n-head)
	ws, wt := c.Cache.Index(waddr + head*mem.Line)
	c.Cache.StampSeqRun(ws, wt, n-head, cache.EntryValid|cache.EntryDirty)
}
