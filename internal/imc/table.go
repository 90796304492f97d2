// Table I and the Figure 3 flow, written once. Every dispatch path —
// the per-line LLCRead/LLCWrite, the chunked scatter loop and the
// sequential folds — classifies a request by one lookup in the
// controller's transition table and commits k requests of the chosen
// column through commit (the counters are k × the column's row), plus
// the device traffic that row implies.

package imc

import (
	"twolm/internal/cache"
	"twolm/internal/mem"
)

// column is one outcome column of Table I: the paper's seven, plus the
// read-around and write-around columns of the no-allocate ablations.
type column uint8

const (
	colReadHit column = iota
	colReadMissClean
	colReadMissDirty
	colReadAround // read miss forwarded from NVRAM uncached
	colWriteHit
	colWriteMissClean
	colWriteMissDirty
	colWriteAround // write miss sent straight to NVRAM
	colDDO
	numColumns
)

// tableI holds the per-line events of each column. The DRAM and NVRAM
// rows are the paper's Table I:
//
//	                LLC Read                   LLC Write
//	             Hit  MissC MissD Around   Hit  MissC MissD Around DDO
//	DRAM Read     1     1     1     1       1     1     1     1     -
//	DRAM Write    -     1     1     -       1     2     2     -     1
//	NVRAM Read    -     1     1     1       -     1     1     -     -
//	NVRAM Write   -     -     1     -       -     -     1     1     -
//	Amplification 1     3     4     2       2     4     5     2     1
//
// Every column records exactly one tag event. An around miss counts as
// clean: it disturbs no victim. The NVRAM write of a dirty miss is its
// victim's writeback; that of write-around is the request's own line.
var tableI = [numColumns]Counters{
	colReadHit:        {LLCRead: 1, DRAMRead: 1, TagHit: 1},
	colReadMissClean:  {LLCRead: 1, DRAMRead: 1, DRAMWrite: 1, NVRAMRead: 1, TagMissClean: 1},
	colReadMissDirty:  {LLCRead: 1, DRAMRead: 1, DRAMWrite: 1, NVRAMRead: 1, NVRAMWrite: 1, TagMissDirty: 1},
	colReadAround:     {LLCRead: 1, DRAMRead: 1, NVRAMRead: 1, TagMissClean: 1},
	colWriteHit:       {LLCWrite: 1, DRAMRead: 1, DRAMWrite: 1, TagHit: 1},
	colWriteMissClean: {LLCWrite: 1, DRAMRead: 1, DRAMWrite: 2, NVRAMRead: 1, TagMissClean: 1},
	colWriteMissDirty: {LLCWrite: 1, DRAMRead: 1, DRAMWrite: 2, NVRAMRead: 1, NVRAMWrite: 1, TagMissDirty: 1},
	colWriteAround:    {LLCWrite: 1, DRAMRead: 1, NVRAMWrite: 1, TagMissClean: 1},
	colDDO:            {LLCWrite: 1, DRAMWrite: 1, TagHit: 1, DDO: 1},
}

// update rewrites a packed tag word: w' = w&keep | set, and an install
// (keep == 0) also writes the request's tag.
type update struct{ keep, set uint64 }

// step is Figure 3: the column a request takes and the update it makes
// to the tag word it probed. victimDirty is the probed word's valid and
// dirty state (on a hit, the line's own), llcOwned its LLC-owned flag.
func step(write, hit, victimDirty, llcOwned bool, p Policy) (column, update) {
	unchanged := update{keep: ^uint64(0)}
	if !write {
		// The DRAM read fetches data and tag together. A read leaves
		// the line held by the LLC, so its eventual writeback can use
		// the Dirty Data Optimization.
		install := update{set: cache.EntryValid | cache.EntryLLCOwned}
		switch {
		case hit:
			return colReadHit, update{keep: ^uint64(0), set: cache.EntryLLCOwned}
		case !p.ReadAllocate:
			// The hierarchy never owns an uncached line.
			return colReadAround, unchanged
		case victimDirty:
			return colReadMissDirty, install
		default:
			return colReadMissClean, install
		}
	}
	// A write leaves the line dirty and no longer held by the LLC.
	written := update{keep: ^cache.EntryLLCOwned, set: cache.EntryDirty}
	install := update{set: cache.EntryValid | cache.EntryDirty}
	switch {
	case hit && llcOwned && !p.DisableDDO:
		// DDO: the controller knows the LLC owns this exact line, so the
		// tag check is unnecessary and the write goes straight to DRAM.
		return colDDO, written
	case hit:
		// A DRAM read purely for the tag check, then the data write.
		return colWriteHit, written
	case !p.WriteAllocate:
		// Write-around: the cache, victim included, is left alone.
		return colWriteAround, unchanged
	case victimDirty:
		// Insert on miss even for a full-line write: fill, install, then
		// the data write.
		return colWriteMissDirty, install
	default:
		return colWriteMissClean, install
	}
}

// transition is one entry of a controller's transition table: step's
// column and word update for one outcome, with the device traffic of
// the column's row copied beside them so a dispatch loop loads a single
// entry per request.
type transition struct {
	update
	casR, casW uint64 // DRAM CAS reads and writes on the line's channel
	nvR, nvW   uint64 // NVRAM reads (the line) and writes
	self       uint64 // all ones when the NVRAM write is the line itself, else 0 (the victim)
	col        column
}

// transitions evaluates step once for every outcome index (see
// outcome for the bit layout).
func transitions(p Policy) (t [16]transition) {
	for i := range t {
		b := uint64(i)
		col, u := step(b&8 != 0, b&4 != 0, b&1 != 0, b&2 != 0, p)
		r := tableI[col]
		t[i] = transition{update: u, col: col,
			casR: r.DRAMRead, casW: r.DRAMWrite, nvR: r.NVRAMRead, nvW: r.NVRAMWrite}
		if col == colWriteAround {
			t[i].self = ^uint64(0)
		}
	}
	return t
}

// outcome packs a probe's outcome into a transition-table index: the
// operation (isW), the hit, and the probed word's LLC-owned bit and
// valid-and-dirty state. isW and hit are 0 or 1. It relies on the
// packed-word flag layout EntryValid=1, EntryDirty=2, EntryLLCOwned=4.
func outcome(isW, hit, w uint64) uint64 {
	return isW<<3 | hit<<2 | w>>1&2 | w&(w>>1)&1
}

// hitBit reports (as 0 or 1) whether the direct-mapped word w holds tag:
// masking the dirty and owned bits off leaves exactly the valid tag image.
func hitBit(w uint64, tag uint32) (hit uint64) {
	if w&^(cache.EntryDirty|cache.EntryLLCOwned) == cache.PackEntry(tag, cache.EntryValid) {
		hit = 1
	}
	return hit
}

// next applies t's word update to w for a request carrying tag.
func (t *transition) next(w uint64, tag uint32) uint64 {
	return w&t.keep | t.set | cache.PackEntry(tag, 0)&^t.keep
}

// writeTarget returns the line t's NVRAM write goes to.
func (t *transition) writeTarget(line, victim uint64) uint64 {
	return victim ^ (victim^line)&t.self
}

// commit records k requests of column col, whose events are k × the
// column's row of Table I (Counters multiplies them out).
func (c *Controller) commit(col column, k uint64) { c.tally[col] += k }

// Counters returns a snapshot of the event counters: the committed
// requests of each column times its row of Table I, plus FlushAll's
// writebacks.
//
//hot:entry observers snapshot pooled controllers between and during jobs
func (c *Controller) Counters() Counters {
	ctr := Counters{NVRAMWrite: c.flushWrites}
	for col, k := range c.tally {
		ctr.DRAMRead += k * tableI[col].DRAMRead
		ctr.DRAMWrite += k * tableI[col].DRAMWrite
		ctr.NVRAMRead += k * tableI[col].NVRAMRead
		ctr.NVRAMWrite += k * tableI[col].NVRAMWrite
		ctr.TagHit += k * tableI[col].TagHit
		ctr.TagMissClean += k * tableI[col].TagMissClean
		ctr.TagMissDirty += k * tableI[col].TagMissDirty
		ctr.DDO += k * tableI[col].DDO
		ctr.LLCRead += k * tableI[col].LLCRead
		ctr.LLCWrite += k * tableI[col].LLCWrite
	}
	return ctr
}

// demand returns the number of demand requests: one per committed
// request of any column.
func (c *Controller) demand() (d uint64) {
	for _, k := range c.tally {
		d += k
	}
	return d
}

// lineTraffic issues the device traffic of one request of t: CAS on
// DRAM channel chIdx, and NVRAM at line (the request) or victim (the
// line the probed word held).
func (c *Controller) lineTraffic(t *transition, chIdx int, line, victim uint64) {
	ch := c.DRAM.ChannelAt(chIdx)
	ch.CASReads += t.casR
	ch.CASWrites += t.casW
	if t.nvW != 0 {
		c.NVRAM.Write(t.writeTarget(line, victim))
	}
	if t.nvR != 0 {
		c.NVRAM.Read(line)
	}
}

// access services one request of the stream whose locator memo is m
// through the transition table: the probe, one lookup, the update of
// the probed word, and the column's counters and device traffic. It
// serves every associativity: on a miss the handle is the replacement
// victim, whose word holds another tag or none.
func (c *Controller) access(isW uint64, m *streamLocator, addr uint64) (cache.LookupResult, column) {
	// Decompose addr into its tag-store set/tag and DRAM channel, taking
	// the incremental path when addr is the line right after the
	// stream's previous one.
	line := addr >> mem.LineShift
	var set uint64
	var tag uint32
	var chIdx int
	if m.valid && line == m.line+1 {
		set, tag, chIdx = m.set+1, m.tag, m.chIdx+1
		if set == c.sets {
			set, tag = 0, tag+1
		}
		if chIdx == c.nch {
			chIdx = 0
		}
	} else {
		set, tag = c.Cache.Index(addr)
		chIdx = c.DRAM.ChannelIndex(addr)
	}
	m.line, m.set, m.tag, m.chIdx, m.valid = line, set, tag, chIdx, true

	h, res := c.Cache.ProbeAt(set, tag)
	words := c.Cache.Entries()
	w := words[h]
	var hit uint64
	if res == cache.Hit {
		hit = 1
	}
	t := &c.trans[outcome(isW, hit, w)]
	if t.keep == 0 {
		// InstallTag refreshes the LRU stamp of an associative store.
		c.Cache.InstallTag(h, tag)
	}
	words[h] = t.next(w, tag)
	c.commit(t.col, 1)
	// lineTraffic, written out: a call per request measured ~10% on
	// the per-line path.
	ch := c.DRAM.ChannelAt(chIdx)
	ch.CASReads += t.casR
	ch.CASWrites += t.casW
	if t.nvW != 0 {
		c.NVRAM.Write(t.writeTarget(addr, (uint64(cache.EntryTagOf(w))*c.sets+set)<<mem.LineShift))
	}
	if t.nvR != 0 {
		c.NVRAM.Read(addr)
	}
	return res, t.col
}
