// Batched random dispatch: the random-traffic counterpart of the
// LLCReadRange/LLCWriteRange fast paths. Random demand defeats both of
// the controller's sequential-stream devices — the per-stream locator
// memo never hits, and every tag probe lands on a cold cache line of
// the (multi-megabyte) tag array. LLCScatter takes the whole batch at
// once and restructures the work two ways:
//
//  1. The request loop is split into chunked passes. A light pass
//     resolves each request's set/tag/channel and touches its tag word,
//     in a loop small enough that the out-of-order window holds dozens
//     of iterations — the random tag-array fetches overlap at the
//     memory system's full concurrency. The heavy pass then probes and
//     updates the same (now cache-warm) words IN REQUEST ORDER through
//     the controller's transition table (table.go), so the tag state
//     sequence, every imc counter, and the per-channel CAS counts are
//     byte-identical to serial dispatch by construction.
//
//  2. NVRAM device calls are not issued inside the heavy pass (a
//     call per miss on an unpredictable branch). Each NVRAM read (a
//     fill, or a read-around line) and each NVRAM write (a dirty
//     victim's writeback, or a write-around line) is instead appended
//     — still in request order — to a queue per (DIMM, direction), and
//     the queues are applied after the batch as tight homogeneous loops
//     inside the nvram package. Legality: the interleave map is a pure
//     function of the address, DIMMs share no state, and within one
//     DIMM the read path (read memo, media read count) and the write
//     path (combining buffer, write memo, media write count) touch
//     disjoint fields — so the only orders that matter are the per-DIMM
//     same-direction orders, which append order preserves exactly.
//     Every interface and media counter is byte-identical to serial
//     dispatch, and the queues may be applied in ANY order — the
//     shuffle property test permutes them and asserts byte-identity,
//     across all policy ablations. See DESIGN.md §4e for the full
//     argument.
package imc

import (
	"twolm/internal/cache"
	"twolm/internal/fastdiv"
	"twolm/internal/mem"
	"twolm/internal/nvram"
)

// Req is one LLC-level request, packed into a single word: the
// line-aligned address with the operation in the low (sub-line) bits.
// Build with ReadReq/WriteReq.
type Req uint64

const (
	// reqWrite marks a writeback; clear means a demand read. Line
	// addresses are 64 B aligned, so the low six bits are free.
	reqWrite uint64 = 1

	lineMask = uint64(mem.Line - 1)
)

// ReadReq packs a demand read (load miss / RFO) of addr's line.
func ReadReq(addr uint64) Req { return Req(addr &^ lineMask) }

// WriteReq packs an LLC writeback (or nontemporal store) of addr's line.
func WriteReq(addr uint64) Req { return Req(addr&^lineMask | reqWrite) }

// chiWrite marks a writeback in the packed channel word of the chunk
// scratch; the channel index occupies the low 31 bits.
const chiWrite uint32 = 1 << 31

// dispatchChunk is the two-pass granularity: small enough that a
// chunk's resolved tag words survive in cache until the heavy pass
// reuses them, large enough to amortize the loop split.
const dispatchChunk = 512

// scatterState is the controller-owned scratch of LLCScatter, reused
// across batches so the steady-state random path allocates nothing.
type scatterState struct {
	serial bool // geometry exceeds the packed channel encoding

	// touchSink keeps the resolve pass's tag-word loads observable:
	// accumulating into controller-owned memory stops the compiler
	// from discarding the loads as dead code (which would silently
	// turn the touch into pure bounds checks and reintroduce the
	// stalls it exists to hide). Controller-owned rather than a
	// package variable so concurrent controllers — engine shards,
	// sweep workers — never share a write target.
	touchSink uint64

	// Per-chunk scratch of the resolve pass.
	cset [dispatchChunk]uint64
	ctag [dispatchChunk]uint32
	cchi [dispatchChunk]uint32 // channel | chiWrite

	// Per-chunk deferred-NVRAM staging: the reads and writes collected
	// by the heavy pass through register cursors, partitioned into the
	// per-DIMM queues by the tiny loops that follow it.
	cread  [dispatchChunk]uint64
	cwrite [dispatchChunk]uint64

	casR []uint64 // per-channel CAS deltas of the current batch
	casW []uint64

	// Deferred NVRAM queues: one per (DIMM, direction) — read queues
	// first, then write queues. Entries are line addresses in request
	// order; buffers grow monotonically and are reused across batches.
	qbuf    [][]uint64
	qcur    []int
	order   []uint32 // queue apply order (identity; test hook permutes)
	ndimm   int
	dimmDiv fastdiv.Divisor

	// Divisor copies for the resolve pass: DivMod/Mod on a local
	// Divisor value inline fully, where the cache and DRAM method
	// calls per request do not. Same construction, same quotients.
	setDiv fastdiv.Divisor
	chDiv  fastdiv.Divisor

	reqs []Req // packing buffer for the address-slice wrappers
}

// initScatter captures the NVRAM interleave geometry and sizes the
// fixed scratch.
func (c *Controller) initScatter() {
	st := &c.scat
	// The chunk scratch packs the channel index beside the operation
	// bit; a geometry exceeding 31 bits of channel index (never built
	// in practice) falls back to serial dispatch instead of truncating.
	if uint64(c.nch) >= uint64(chiWrite) {
		st.serial = true
		return
	}
	st.casR = make([]uint64, c.nch)
	st.casW = make([]uint64, c.nch)
	nd := c.NVRAM.DIMMs()
	st.ndimm = nd
	st.dimmDiv = c.NVRAM.DIMMDivisor()
	st.setDiv = fastdiv.New(c.sets)
	st.chDiv = fastdiv.New(uint64(c.nch))
	st.qbuf = make([][]uint64, 2*nd)
	st.qcur = make([]int, 2*nd)
	st.order = make([]uint32, 2*nd)
	for i := range st.order {
		st.order[i] = uint32(i)
	}
}

// queueReserve guarantees every deferred queue has room for n more
// entries, so the dispatch loop can append with an unconditional store
// and a masked cursor bump instead of a per-append capacity branch.
//
//alloc:cold queue growth is amortized: buffers double, survive Reset, and are reused across batches (0 steady-state allocs)
func (c *Controller) queueReserve(n int) {
	st := &c.scat
	for j := range st.qbuf {
		need := st.qcur[j] + n
		if need <= len(st.qbuf[j]) {
			continue
		}
		ncap := 2 * len(st.qbuf[j])
		if ncap < need {
			ncap = need
		}
		if ncap < 4096 {
			ncap = 4096
		}
		nb := make([]uint64, ncap)
		copy(nb, st.qbuf[j][:st.qcur[j]])
		st.qbuf[j] = nb
	}
}

// applyQueues drains the deferred NVRAM queues. The apply order is
// immaterial (disjoint DIMMs; disjoint read/write state within a DIMM)
// — the scatShuffle hook permutes it to let the property test prove
// exactly that. Applying through the DIMM batch entry points bypasses
// the Module's interleave memos, which are pure lookup caches with no
// counter effect.
func (c *Controller) applyQueues() {
	st := &c.scat
	if c.scatShuffle != nil {
		c.scatShuffle(st.order)
	}
	nd := st.ndimm
	for _, j := range st.order {
		n := st.qcur[j]
		st.qcur[j] = 0
		if n == 0 {
			continue
		}
		q := st.qbuf[j][:n]
		if int(j) < nd {
			c.NVRAM.DIMMAt(int(j)).ReadBatch(q)
		} else {
			c.NVRAM.DIMMAt(int(j) - nd).WriteBatch(q)
		}
	}
}

// LLCReadScatter services a batch of demand reads at arbitrary line
// addresses — the random-traffic analogue of LLCReadRange. Counter
// results are byte-identical to calling LLCRead on each address in
// slice order.
//
//hot:entry random-traffic batch path, driven on pooled controllers
//alloc:free 0 allocs/op by benchmark contract (BenchmarkLLCReadScatter)
func (c *Controller) LLCReadScatter(addrs []uint64) {
	reqs := c.scat.reqs[:0]
	for _, a := range addrs {
		reqs = append(reqs, ReadReq(a))
	}
	c.scat.reqs = reqs
	c.LLCScatter(reqs)
}

// LLCWriteScatter services a batch of LLC writebacks at arbitrary line
// addresses — the random-traffic analogue of LLCWriteRange. Counter
// results are byte-identical to calling LLCWrite on each address in
// slice order.
//
//hot:entry random-traffic batch path, driven on pooled controllers
//alloc:free 0 allocs/op by benchmark contract (BenchmarkLLCWriteScatter)
func (c *Controller) LLCWriteScatter(addrs []uint64) {
	reqs := c.scat.reqs[:0]
	for _, a := range addrs {
		reqs = append(reqs, WriteReq(a))
	}
	c.scat.reqs = reqs
	c.LLCScatter(reqs)
}

// scatterSerial dispatches a batch through the per-line entry points:
// the associative (Ways > 1) stores and geometry fallbacks, where
// request order and device-call order are trivially serial.
func (c *Controller) scatterSerial(reqs []Req) {
	for _, r := range reqs {
		if uint64(r)&reqWrite == 0 {
			c.LLCRead(uint64(r) &^ lineMask)
		} else {
			c.LLCWrite(uint64(r) &^ lineMask)
		}
	}
	if c.sink != nil {
		c.maybeSample()
	}
}

// LLCScatter services a mixed batch of packed requests. Counter
// results — imc.Counters, per-channel CAS, NVRAM interface and media
// counters — are byte-identical to dispatching each request serially
// in slice order (the differential tests pin this); requests are
// processed in slice order through the transition table (table.go),
// with only the NVRAM device calls regrouped per DIMM and direction.
// Ways > 1 stores take the per-line entry points.
//
//hot:entry mixed-batch dispatch path, driven on pooled controllers
//alloc:free 0 allocs/op by benchmark contract (PR 7 steady-state guarantee)
func (c *Controller) LLCScatter(reqs []Req) {
	if len(reqs) == 0 {
		return
	}
	st := &c.scat
	words := c.Cache.DirectEntries()
	if st.serial || words == nil {
		c.scatterSerial(reqs)
		return
	}
	clear(st.casR)
	clear(st.casW)
	c.dispatch(words, reqs)
	for i, r := range st.casR {
		c.DRAM.ChannelAt(i).CASReads += r
	}
	for i, w := range st.casW {
		c.DRAM.ChannelAt(i).CASWrites += w
	}
	c.applyQueues()
	if c.sink != nil {
		c.maybeSample()
	}
}

// dispatch is the chunked dispatch loop over the direct-mapped (Ways==1)
// tag array, for every policy. The tag outcome splits random demand
// roughly in half, so any branch on it mispredicts constantly; the heavy
// pass is straight-line instead — the outcome bits index the transition
// table, whose entry supplies the column, the CAS increments, the
// deferred-NVRAM cursor bumps and the word update, and the deferred
// NVRAM appends store unconditionally with a masked cursor bump (the
// slot is overwritten when the request defers nothing).
func (c *Controller) dispatch(words []uint64, reqs []Req) {
	st := &c.scat
	sets := c.sets
	casR, casW := st.casR, st.casW
	nd := st.ndimm
	dimmDiv := st.dimmDiv
	for off := 0; off < len(reqs); off += dispatchChunk {
		chunk := reqs[off:]
		if len(chunk) > dispatchChunk {
			chunk = chunk[:dispatchChunk]
		}
		// Resolve pass: split each address once, with fully inlined
		// divisor arithmetic — the cache and DRAM method calls would
		// cost a call per request.
		for k, r := range chunk {
			line := (uint64(r) &^ lineMask) >> mem.LineShift
			tag, set := st.setDiv.DivMod(line)
			st.cset[k] = set
			st.ctag[k] = uint32(tag)
			st.cchi[k] = uint32(st.chDiv.Mod(line)) | uint32(uint64(r)&reqWrite)<<31
		}
		// Touch pass: pull the chunk's tag words toward the core. Three
		// micro-ops per iteration, so the reorder window holds dozens
		// of them and the random fetches overlap at the memory system's
		// full concurrency, where the heavy pass below would stall on
		// them a few at a time.
		var touch uint64
		for k := range chunk {
			touch += words[st.cset[k]]
		}
		st.touchSink += touch
		// Heavy pass, in request order: probe, one table lookup, the
		// tag-word update and masked staging of the deferred NVRAM work.
		var nr, nw int
		for k, r := range chunk {
			a := uint64(r) &^ lineMask
			set := st.cset[k]
			tag := st.ctag[k]
			chi := st.cchi[k] &^ chiWrite
			w := words[set]
			t := &c.trans[outcome(uint64(st.cchi[k]>>31), hitBit(w, tag), w)]
			c.commit(t.col, 1)
			casR[chi] += t.casR
			casW[chi] += t.casW
			// The victim address is garbage when the word is invalid,
			// and discarded with its slot when the cursor does not
			// advance.
			st.cread[nr] = a
			nr += int(t.nvR)
			st.cwrite[nw] = t.writeTarget(a, (uint64(cache.EntryTagOf(w))*sets+set)<<mem.LineShift)
			nw += int(t.nvW)
			words[set] = t.next(w, tag)
		}
		// Hand the staged work to the device model, still in request
		// order per direction (reads and writes commute within a DIMM,
		// so splitting the directions preserves byte-identity). With
		// the shuffle hook installed, the property-test path instead
		// partitions into the per-DIMM queues applied after the batch,
		// so the test can permute the apply order.
		if c.scatShuffle == nil {
			c.NVRAM.ReadBatch(st.cread[:nr])
			c.NVRAM.WriteBatch(st.cwrite[:nw])
		} else {
			c.queueReserve(len(chunk))
			for _, a := range st.cread[:nr] {
				di := dimmDiv.Mod(a / nvram.InterleaveGranularity)
				st.qbuf[di][st.qcur[di]] = a
				st.qcur[di]++
			}
			for _, va := range st.cwrite[:nw] {
				dj := uint64(nd) + dimmDiv.Mod(va/nvram.InterleaveGranularity)
				st.qbuf[dj][st.qcur[dj]] = va
				st.qcur[dj]++
			}
		}
	}
}
